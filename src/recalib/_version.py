__version__ = "0.25.0"
