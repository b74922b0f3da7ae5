"""Batch gender inference for mixed Chinese/English name lists."""

__version__ = "0.1.0"
