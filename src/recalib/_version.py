__version__ = "0.27.0"
