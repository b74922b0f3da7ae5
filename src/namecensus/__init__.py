"""Batch gender inference for mixed Chinese/English name lists."""

__version__ = "0.1.0"

from namecensus.classifier import ClassifierConfig, GenderLabel, Posterior, predict
from namecensus.corpus import CountModel
from namecensus.scriptdetect import Script, detect_script

__all__ = [
    "ClassifierConfig",
    "CountModel",
    "GenderLabel",
    "Posterior",
    "Script",
    "detect_script",
    "predict",
]
