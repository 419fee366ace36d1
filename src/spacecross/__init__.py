"""Exact space-crossing toolkit for spatial graph drawings."""

__version__ = "0.1.0"
