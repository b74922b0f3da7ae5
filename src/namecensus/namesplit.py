"""Extract the gender-bearing given name from a full name."""

from __future__ import annotations

import functools
from importlib import resources
from typing import NamedTuple

from namecensus.scriptdetect import is_latin_letter
from namecensus.textio import split_lines


class SplitName(NamedTuple):
    surname: str
    given: str


@functools.lru_cache(maxsize=1)
def default_compound_surnames() -> frozenset[str]:
    """The shipped two-character surname list; one per line, `#` comments allowed."""
    text = resources.files("namecensus").joinpath("data/compound_surnames.txt").read_text(
        encoding="utf-8")
    entries = (line.split("#", 1)[0].strip() for line in split_lines(text))
    return frozenset(filter(None, entries))


def split_chinese(han_text: str, compound_surnames: frozenset[str]) -> SplitName:
    """Surname-first split: compound surname if listed, else one character.

    A single-character input is all given name; there is nobody to strip.
    """
    if len(han_text) == 1:
        return SplitName(surname="", given=han_text)
    if han_text[:2] in compound_surnames and len(han_text) > 2:
        return SplitName(surname=han_text[:2], given=han_text[2:])
    return SplitName(surname=han_text[0], given=han_text[1:])


def _is_initial(token: str) -> bool:
    if len(token) == 1:
        return is_latin_letter(token)
    return len(token) == 2 and token[1] == "." and is_latin_letter(token[0])


def split_english(latin_text: str) -> SplitName:
    """Western order: given name first, surname last.

    Leading single-letter initials are skipped when picking the given
    name; the last token is never picked. All-initial prefixes fall back
    to the first token verbatim (such names end up Unknown downstream).
    """
    tokens = latin_text.split()
    if not tokens:
        return SplitName(surname="", given=latin_text)
    surname = tokens[-1]
    given = tokens[0]
    for token in tokens[:-1]:
        if not _is_initial(token):
            given = token
            break
    return SplitName(surname=surname, given=given)
