__version__ = "0.28.0"
