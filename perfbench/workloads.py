"""Seeded benchmark inputs, each with the expected split of every row.

A generator writes the file the CLI reads and returns, per input row,
``(name, script, given)``: the stripped name, the script the row was
built from and the given name it was built with. Expected labels and
probabilities come from the references in ``checks.py``, not from here.

The training corpus is always ``tests/corpusgen.write_corpus`` (fixed
seed); only the batch depends on the workload seed.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

import corpusgen

Row = tuple[str, str, str]  # (name, script, given)


@dataclass(frozen=True)
class Workload:
    name: str
    names: int  # rows in the generated batch
    suffix: str  # input file extension, which picks the CLI's reader
    chart: bool  # predict also emits --chart-json/--chart-svg


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed-100k", 100_000, ".txt", chart=True),
        Workload("tail-csv-100k", 100_000, ".csv", chart=False),
        Workload("startup-1k", 1_000, ".txt", chart=False),
    )
}


def _is_han_char(ch: str) -> bool:
    return "一" <= ch <= "鿿"


def write_mixed(path: Path, count: int, seed: int) -> list[Row]:
    """``corpusgen.write_mixed_batch``; rows are "Given Surname" or
    one-character Han surname plus a one- or two-character given name."""
    corpusgen.write_mixed_batch(path, count, seed)
    rows: list[Row] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        name = line.strip()
        if name and all(_is_han_char(ch) for ch in name):
            if name[0] not in corpusgen.CHINESE_SURNAMES or len(name) not in (2, 3):
                raise ValueError(f"unexpected Han row from write_mixed_batch: {name!r}")
            rows.append((name, "Han", name[1:]))
        else:
            tokens = name.split()
            if len(tokens) != 2:
                raise ValueError(f"unexpected Latin row from write_mixed_batch: {name!r}")
            rows.append((name, "Latin", tokens[0]))
    return rows


# Tail-workload vocabularies. Compound surnames are taken from the
# program's list; no single surname below followed by a given-name
# character forms a listed compound, so the split is unambiguous.
_COMPOUND_SURNAMES = ["欧阳", "司马", "诸葛", "上官", "司徒"]
_NO_EVIDENCE_CHARS = "乙丁甲戊己辰巳午未申酉戌亥"  # absent from the corpus table
_PINYIN = ["Qing", "Wei", "Li", "Na", "Jun", "Fang", "Hua", "Ming", "Xiu", "Lan",
           "Tao", "Yong", "Jing", "Bin", "Wang", "Zhao", "Chen", "Zhang", "Ouyang"]
_CYRILLIC_GIVEN = ["Иван", "Мария", "Олег", "Анна", "Дмитрий", "Елена", "Сергей",
                   "Ольга", "Никита", "Татьяна", "Павел", "Ирина", "Алексей", "Юлия"]
_CYRILLIC_SURNAME = ["Петров", "Иванова", "Смирнов", "Кузнецова", "Попов", "Соколова",
                     "Лебедев", "Козлова", "Новиков", "Морозова", "Волков", "Павлова"]
_UNSEEN_ONSETS = ["xq", "zv", "qx", "vz", "jx", "xk"]
_UNSEEN_VOWELS = ["ao", "uy", "oe", "yu"]
_COUNTRIES = ["CN", "US", "GB", "RU", "TW", "SG", "CA", "AU"]


def _unseen_latin(rng: random.Random, known: set[str]) -> str:
    while True:
        name = "".join(
            rng.choice(_UNSEEN_ONSETS) + rng.choice(_UNSEEN_VOWELS)
            for _ in range(rng.randint(2, 3))
        ).capitalize()
        if name.casefold() not in known:
            return name


def _han_name(rng: random.Random, chars: list[str]) -> tuple[str, str]:
    """(full name, given name); 25% compound surnames, 5% given names
    built only from characters the corpus lacks."""
    surname = (
        rng.choice(_COMPOUND_SURNAMES) if rng.random() < 0.25
        else rng.choice(corpusgen.CHINESE_SURNAMES)
    )
    pool = _NO_EVIDENCE_CHARS if rng.random() < 0.05 else chars
    given = "".join(rng.choice(pool) for _ in range(rng.randint(1, 2)))
    return surname + given, given


def _tail_row(rng: random.Random, corpus_names: list[str], known: set[str],
              chars: list[str]) -> Row:
    kind = rng.random()
    if kind < 0.52:  # corpus given name, corpus surname, some leading initials
        given = rng.choice(corpus_names)
        initials = [
            rng.choice("ABCDEFGHJKLMNPRSTW") + rng.choice([".", ""])
            for _ in range(rng.choice([0, 0, 0, 1, 2]))
        ]
        name = " ".join(initials + [given, rng.choice(corpus_names)])
        return name, "Latin", given
    if kind < 0.62:  # Latin name the corpus does not contain
        given = _unseen_latin(rng, known)
        return f"{given} {rng.choice(corpus_names)}", "Latin", given
    if kind < 0.80:
        name, given = _han_name(rng, chars)
        return name, "Han", given
    if kind < 0.88:  # "王青 (Qing Wang)"
        name, given = _han_name(rng, chars)
        return f"{name} ({rng.choice(_PINYIN)} {rng.choice(_PINYIN)})", "Mixed", given
    if kind < 0.95:
        name = f"{rng.choice(_CYRILLIC_GIVEN)} {rng.choice(_CYRILLIC_SURNAME)}"
        if rng.random() < 0.5:
            name += f" {rng.choice(_CYRILLIC_GIVEN)}ович"
        return name, "Other", ""
    return str(rng.randint(1, 10**rng.randint(1, 9))), "Empty", ""


def write_tail_csv(path: Path, count: int, seed: int, english_dir: Path) -> list[Row]:
    """4-column CSV (id,country,name,year), name in column ``name``.

    Short Han, Cyrillic and digit names repeat by chance and 3% of rows
    repeat an earlier row, so about 85% of the names are distinct.
    """
    rng = random.Random(seed)
    corpus_names = sorted({
        line.split(",", 1)[0]
        for year_file in sorted(english_dir.glob("yob*.txt"))
        for line in year_file.read_text(encoding="utf-8").splitlines()
        if line
    })
    known = {n.casefold() for n in corpus_names}
    chars = list(corpusgen.CHINESE_CHARS)
    rows: list[Row] = []
    for _ in range(count):
        if rows and rng.random() < 0.03:
            rows.append(rng.choice(rows))
        else:
            rows.append(_tail_row(rng, corpus_names, known, chars))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "country", "name", "year"])
        for i, (name, _, _) in enumerate(rows, start=1):
            writer.writerow([i, rng.choice(_COUNTRIES), name, rng.randint(1950, 2015)])
    return rows


def write_input(workload: Workload, path: Path, seed: int, english_dir: Path) -> list[Row]:
    if workload.suffix == ".csv":
        return write_tail_csv(path, workload.names, seed, english_dir)
    return write_mixed(path, workload.names, seed)
