__version__ = "0.7.0"
