"""Surname and given name splits, built from `classifier`'s split rules.

No package code imports this module: it exists for the benchmark's
traced run (perfbench/traced.py) until ROADMAP item 2 deletes it.
"""

from __future__ import annotations

from typing import NamedTuple

from namecensus.classifier import default_compound_surnames, han_given, latin_given

__all__ = ["SplitName", "default_compound_surnames", "split_chinese", "split_english"]


class SplitName(NamedTuple):
    surname: str
    given: str


def split_chinese(han_text: str, compound_surnames: frozenset[str]) -> SplitName:
    given = han_given(han_text, compound_surnames)
    return SplitName(han_text[:len(han_text) - len(given)], given)


def split_english(latin_text: str) -> SplitName:
    tokens = latin_text.split()
    return SplitName(tokens[-1] if tokens else "", latin_given(latin_text))
