__version__ = "0.24.0"
