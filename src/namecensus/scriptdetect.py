"""Classify an input name by script to pick the prediction pipeline."""

from __future__ import annotations

import enum
import functools
import re
import unicodedata

# CJK Unified Ideographs, base block plus extensions A-H.
_HAN_RANGES = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
    (0x20000, 0x2A6DF),
    (0x2A700, 0x2B73F),
    (0x2B740, 0x2B81F),
    (0x2B820, 0x2CEAF),
    (0x2CEB0, 0x2EBEF),
    (0x30000, 0x3134F),
    (0x31350, 0x323AF),
)


@functools.cache
def _han_re() -> re.Pattern[str]:
    """A run of Han characters, captured, compiled on first use: an
    up-to-date build-cache never detects a script."""
    return re.compile(
        "([" + "".join(f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in _HAN_RANGES) + "]+)"
    )


_ASCII_LETTER_RE = re.compile("[A-Za-z]")


class Script(enum.Enum):
    HAN = "Han"
    LATIN = "Latin"
    MIXED = "Mixed"
    OTHER = "Other"
    EMPTY = "Empty"


# The members the per-name path reads, as module globals, here and in
# `classifier` and `batchio`: on Python 3.11 a `Script.X` read runs Python
# code and costs several times a global's.
_HAN, _LATIN, _MIXED, _EMPTY = Script.HAN, Script.LATIN, Script.MIXED, Script.EMPTY


def is_han(ch: str) -> bool:
    """Whether `ch` is one Han character; a run of them is not."""
    return len(ch) == 1 and _han_re().fullmatch(ch) is not None


@functools.lru_cache(maxsize=4096)
def is_latin_letter(ch: str) -> bool:
    return ch.isalpha() and unicodedata.name(ch, "").startswith("LATIN")


def common_script(name: str) -> Script | None:
    """The script of the two common shapes, by one regex match: an ASCII
    name is Latin (Empty without a letter) and an all-Han name is Han.
    None for any other name."""
    if name.isascii():
        # The only ASCII letters are A-Z and a-z, all Latin.
        return _LATIN if _ASCII_LETTER_RE.search(name) else _EMPTY
    return _HAN if _han_re().fullmatch(name) else None


def script_and_han(name: str) -> tuple[Script, str]:
    """`detect_script` of a name that `common_script` does not know, and
    its Han characters, in order. One split cuts the name into its Han
    runs and the rest, and only the rest is scanned for Latin letters, so
    no Han character enters `is_latin_letter`'s cache."""
    parts = _han_re().split(name)  # the rest and the Han runs, alternating
    rest = "".join(parts[::2])
    latin = any(map(is_latin_letter, rest))
    if len(parts) > 1:
        return (_MIXED if latin else _HAN), "".join(parts[1::2])
    if latin:
        return _LATIN, ""
    return (Script.OTHER if any(map(str.isalpha, rest)) else _EMPTY), ""


def detect_script(raw_name: str) -> Script:
    """Pure, total script verdict; digits and punctuation never count.

    Han wins over stray non-Latin letters, Latin likewise; both present
    means Mixed, only non-Latin non-Han letters means Other, and no
    letters at all means Empty.
    """
    script = common_script(raw_name)
    return script_and_han(raw_name)[0] if script is None else script


def han_substring(raw_name: str) -> str:
    """The Han characters of a name, in order."""
    return "".join(_han_re().findall(raw_name))
