"""Parse and aggregate the name-frequency corpora into classifier models.

English side: a directory of yearly ``yob<YYYY>.txt`` files, each line
``Name,S,Count`` with no header. Chinese side: a single UTF-8 CSV
``char,female,male`` with a header row. A leading byte-order mark is
ignored in both. A yob file is read whole, and the table a row at a time.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import NamedTuple

from namecensus.errors import NamecensusError
from namecensus.scriptdetect import is_han
from namecensus.textio import csv_rows, read_text

YEAR_FILE_RE = re.compile(r"^yob(\d{4})\.txt$")
# A yob line that needs no line check: blank, or a row `Name,S,Count` with an
# ASCII name and a count of at most 18 digits. A longer count may pass
# int()'s limit on digits, a fault the line check reports.
_SSA_LINE = "(?:[A-Za-z]+,[FM],[1-9][0-9]{0,17})?"
_SSA_FILE = re.compile(f"{_SSA_LINE}(?:\n{_SSA_LINE})*")


class CountModel(NamedTuple):
    """Per-key gender counts: a Latin given name (case-folded, NFC) or
    one Han character, mapped to its (female_count, male_count) pair.
    A NamedTuple, not a dataclass, as every record of the package is: no
    command then imports `dataclasses`."""

    entries: Mapping[str, tuple[int, int]]
    total_female: int
    total_male: int

    @classmethod
    def from_entries(cls, entries: dict[str, tuple[int, int]]) -> CountModel:
        return cls(
            entries=entries,
            total_female=sum(f for f, _ in entries.values()),
            total_male=sum(m for _, m in entries.values()),
        )


def normalize_name_key(name: str) -> str:
    """Canonical lookup key for a Latin given name."""
    return unicodedata.normalize("NFC", name).casefold()


def _parse_year_line(line: str, path: Path, lineno: int) -> tuple[str, str, int]:
    parts = line.split(",")
    if len(parts) != 3:
        raise NamecensusError(
            f"{path}:{lineno}: expected 3 comma-separated fields, got {len(parts)}"
        )
    name, sex, count_text = parts
    if sex not in ("F", "M"):
        raise NamecensusError(f"{path}:{lineno}: sex must be F or M, got {sex!r}")
    # No code point is alpha and a digit or a space, so an all-alpha name
    # skips the per-character scan. A space would make a key that no split
    # given name can equal.
    if not name or not name.isalpha() and any(c.isdigit() or c.isspace() for c in name):
        raise NamecensusError(f"{path}:{lineno}: bad name field {name!r}")
    try:
        count = int(count_text)
    except ValueError:
        # All decimal digits, so past int()'s limit on digits: not echoed.
        if count_text.isdecimal():
            raise NamecensusError(
                f"{path}:{lineno}: count has too many digits ({len(count_text)})") from None
        raise NamecensusError(f"{path}:{lineno}: count is not an integer: {count_text!r}")
    if count < 1:
        raise NamecensusError(f"{path}:{lineno}: count must be >= 1, got {count}")
    return name, sex, count


def _checked_rows(lines: list[str], path: Path, lineno: int) -> Iterator[tuple[str, str, int]]:
    """The (key, "f" or "m", count) rows of `lines`, the first numbered
    `lineno`, each line checked on its own; a fault names its line."""
    for i, line in enumerate(lines, lineno):
        if line:
            name, sex, count = _parse_year_line(line, path, i)
            yield normalize_name_key(name), sex.lower(), count


def find_year_files(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise NamecensusError(f"corpus directory not found: {directory}")
    files = sorted(p for p in directory.iterdir() if YEAR_FILE_RE.match(p.name))
    if not files:
        raise NamecensusError(f"no yob<YYYY>.txt files in {directory}")
    return files


def load_english_year_files(directory: str | Path) -> CountModel:
    """Aggregate every yearly file in `directory` into one model.

    Counts for the same (case-folded name, sex) sum across years, so the
    result is independent of file and row order. Each file is read whole.
    Its lines up to the first that is not blank or an ASCII row in the SSA
    shape, every line of the SSA corpus, are checked with one regex and
    split in one call; that line and the rest are checked line by line,
    so a fault names its line.
    """
    entries: dict[str, tuple[int, int]] = {}
    for path in find_year_files(directory):
        text = read_text(path)
        checked: Iterable[tuple[str, str, int]] = ()
        end = _SSA_FILE.match(text).end()
        if end < len(text):
            end = text.rfind("\n", 0, end) + 1  # the start of the first line not matched
            checked = _checked_rows(text[end:].split("\n"), path, text.count("\n", 0, end) + 1)
            text = text[:end]
        # An ASCII name is NFC already, and its case fold is its lower
        # case. Only commas and line ends part the lines' fields.
        fields = text.lower().replace(",", "\n").split()
        rows = zip(fields[::3], fields[1::3], map(int, fields[2::3]))
        for key, sex, count in itertools.chain(rows, checked):
            female, male = entries.get(key, (0, 0))
            if sex == "f":
                entries[key] = (female + count, male)
            else:
                entries[key] = (female, male + count)
    return CountModel.from_entries(entries)


def load_chinese_charfreq(file_path: str | Path) -> CountModel:
    """Load the single-character frequency table ``char,female,male``."""
    entries: dict[str, tuple[int, int]] = {}
    with csv_rows(file_path) as reader:
        header = next(reader, None)
        if header != ["char", "female", "male"]:
            raise NamecensusError(f"{file_path}:1: expected header char,female,male, got {header}")
        for row in filter(None, reader):  # blank lines are skipped
            lineno = reader.line_num
            if len(row) != 3:
                raise NamecensusError(f"{file_path}:{lineno}: expected 3 columns, got {len(row)}")
            char, female_text, male_text = row
            if not is_han(char):
                raise NamecensusError(
                    f"{file_path}:{lineno}: key must be one Han character, got {char!r}"
                )
            if char in entries:
                raise NamecensusError(f"{file_path}:{lineno}: duplicate character {char!r}")
            try:
                female, male = int(female_text), int(male_text)
            except ValueError:
                # Both all decimal digits: one is past int()'s limit on digits.
                fault = ("count has too many digits"
                         if female_text.isdecimal() and male_text.isdecimal()
                         else "non-integer count")
                raise NamecensusError(f"{file_path}:{lineno}: {fault}") from None
            if female < 0 or male < 0:
                raise NamecensusError(f"{file_path}:{lineno}: negative count")
            entries[char] = (female, male)
    return CountModel.from_entries(entries)
