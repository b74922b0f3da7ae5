"""Parse and aggregate the name-frequency corpora into classifier models.

English side: a directory of yearly ``yob<YYYY>.txt`` files, each line
``Name,S,Count`` with no header. Chinese side: a single UTF-8 CSV
``char,female,male`` with a header row. A leading byte-order mark is
ignored in both.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from namecensus.errors import NamecensusError
from namecensus.scriptdetect import is_han
from namecensus.textio import csv_rows, split_lines, text_blocks

YEAR_FILE_RE = re.compile(r"^yob(\d{4})\.txt$")


@dataclass(frozen=True)
class CountModel:
    """Per-key gender counts: a Latin given name (case-folded, NFC) or
    one Han character, mapped to its (female_count, male_count) pair."""

    entries: dict[str, tuple[int, int]]
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
    # No code point is both alpha and a digit, so an all-alpha name,
    # the common case, skips the per-character scan.
    if not name or not name.isalpha() and any(map(str.isdigit, name)):
        raise NamecensusError(f"{path}:{lineno}: bad name field {name!r}")
    try:
        count = int(count_text)
    except ValueError:
        raise NamecensusError(f"{path}:{lineno}: count is not an integer: {count_text!r}")
    if count < 1:
        raise NamecensusError(f"{path}:{lineno}: count must be >= 1, got {count}")
    return name, sex, count


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
    result is independent of file and row order.
    """
    entries: dict[str, list[int]] = {}
    for path in find_year_files(directory):
        lineno = 1  # of the block's first line
        for block in text_blocks(path):
            lines = split_lines(block)
            for i, line in enumerate(lines, lineno):
                if not line:
                    continue
                name, sex, count = _parse_year_line(line, path, i)
                key = normalize_name_key(name)
                pair = entries.setdefault(key, [0, 0])
                pair[0 if sex == "F" else 1] += count
            lineno += len(lines) - 1
    return CountModel.from_entries({k: (f, m) for k, (f, m) in entries.items()})


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
                raise NamecensusError(f"{file_path}:{lineno}: non-integer count")
            if female < 0 or male < 0:
                raise NamecensusError(f"{file_path}:{lineno}: negative count")
            entries[char] = (female, male)
    return CountModel.from_entries(entries)
