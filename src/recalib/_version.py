__version__ = "0.23.0"
