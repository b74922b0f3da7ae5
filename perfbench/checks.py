"""Independent references for the results CSV, and the row checker.

English expectations come from this file's own parse of the
``yob*.txt`` files (count ratio of the summed counts); Han expectations
from the product-form oracle in ``tests/oracles.py``. Neither uses the
program's models or classifier.
"""

from __future__ import annotations

import csv
import hashlib
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from oracles import bayes_product_oracle
from workloads import Row

RESULT_FIELDS = ["item", "name", "gender", "probability", "script", "given_name"]
DECISIVE_THRESHOLD = 0.60  # the CLI default
PRINTED_TOLERANCE = 0.5e-4 + 1e-12  # probability is printed with 4 decimals
ORACLE_TOLERANCE = 1e-9


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def label_for(p_female: float, p_male: float) -> str:
    """The documented rule: strictly above the threshold is decisive."""
    if p_female > DECISIVE_THRESHOLD:
        return "Female"
    if p_male > DECISIVE_THRESHOLD:
        return "Male"
    return "Unisex"


@dataclass(frozen=True)
class Expectation:
    labels: frozenset[str]  # two labels only for a threshold tie
    posterior: tuple[float, float] | None  # (p_female, p_male); None: no evidence

    @property
    def tie(self) -> bool:
        return len(self.labels) > 1


class Reference:
    """Expected labels and probability for a (script, given name) pair.

    A Han posterior that the oracle puts within ORACLE_TOLERANCE of the
    decisive threshold is a tie: the program's log-space sum and the
    oracle's product round differently there, so either the decisive
    label or Unisex agrees with the reference. Ties are counted in
    every result record.
    """

    def __init__(self, english_dir: Path, chinese_csv: Path) -> None:
        english: dict[str, list[int]] = {}
        for year_file in sorted(Path(english_dir).glob("yob*.txt")):
            for line in year_file.read_text(encoding="utf-8").splitlines():
                if not line:
                    continue
                name, sex, count = line.split(",")
                pair = english.setdefault(unicodedata.normalize("NFC", name).casefold(), [0, 0])
                pair[0 if sex == "F" else 1] += int(count)
        self.english = {k: (f, m) for k, (f, m) in english.items()}
        with open(chinese_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        self.chinese = {ch: (int(f), int(m)) for ch, f, m in rows}
        self._memo: dict[tuple[str, str], Expectation] = {}

    def posterior(self, script: str, given: str) -> tuple[float, float] | None:
        """(p_female, p_male), or None when the corpus has no evidence."""
        if script == "Latin":
            pair = self.english.get(unicodedata.normalize("NFC", given).casefold())
            if pair is None:
                return None
            return pair[0] / (pair[0] + pair[1]), pair[1] / (pair[0] + pair[1])
        if script in ("Han", "Mixed"):
            return bayes_product_oracle(self.chinese, given)
        return None

    def expect(self, script: str, given: str) -> Expectation:
        key = (script, given)
        hit = self._memo.get(key)
        if hit is None:
            post = self.posterior(script, given)
            if post is None:
                labels = {"Unknown"}
            else:
                labels = {label_for(*post)}
                if script != "Latin" and abs(max(post) - DECISIVE_THRESHOLD) <= ORACLE_TOLERANCE:
                    labels = {"Unisex", "Female" if post[0] > post[1] else "Male"}
            hit = self._memo[key] = Expectation(frozenset(labels), post)
        return hit


@dataclass
class CheckReport:
    problems: list[str]  # one line per wrong row; empty when all rows match
    labels: Counter  # gender column of the checked results
    ties: int = 0  # rows whose reference posterior is a threshold tie
    ties_decisive: int = 0  # of those, rows the program labelled Female or Male


def row_problem(row: list[str], item: int, expected: Row, exp: Expectation) -> str | None:
    if len(row) != len(RESULT_FIELDS):
        return f"item {item}: {len(row)} columns"
    got = dict(zip(RESULT_FIELDS, row))
    name, script, given = expected
    for field, want in (("item", str(item)), ("name", name), ("script", script),
                        ("given_name", given)):
        if got[field] != want:
            return f"item {item}: {field} {got[field]!r}, expected {want!r}"
    if got["gender"] not in exp.labels:
        return f"item {item}: gender {got['gender']!r}, expected {' or '.join(sorted(exp.labels))}"
    prob = got["probability"]
    if exp.posterior is None:
        return None if prob == "" else f"item {item}: probability {prob!r}, expected blank"
    try:
        ok = abs(float(prob) - max(exp.posterior)) <= PRINTED_TOLERANCE
    except ValueError:
        ok = False
    if ok and len(prob.partition(".")[2]) == 4:
        return None
    return f"item {item}: probability {prob!r}, expected {max(exp.posterior):.6f}"


def check_results(path: Path, expected: list[Row], ref: Reference) -> CheckReport:
    """Check every row of a results CSV against its expected split, label
    and probability."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RESULT_FIELDS:
        return CheckReport([f"header {rows[:1]!r}, expected {RESULT_FIELDS}"], Counter())
    body = rows[1:]
    report = CheckReport([], Counter(row[2] for row in body if len(row) > 2))
    if len(body) != len(expected):
        report.problems.append(f"{len(body)} rows, expected {len(expected)}")
    for item, (row, exp_row) in enumerate(zip(body, expected), start=1):
        exp = ref.expect(exp_row[1], exp_row[2])
        problem = row_problem(row, item, exp_row, exp)
        if problem:
            report.problems.append(problem)
        elif exp.tie:
            report.ties += 1
            report.ties_decisive += row[2] != "Unisex"
    return report


def workload_mix(expected: list[Row], ref: Reference, report: CheckReport | None) -> dict:
    """The traffic as checked facts: size, repeats, script and label mix,
    Unknown share, corpus hit ratios over the lookups attempted, and the
    threshold ties. Labels and ties come from the checked results, so
    they are empty when no results were produced."""
    report = report or CheckReport([], Counter())
    total = len(expected)
    scripts = Counter(script for _, script, _ in expected)
    english_tries = scripts["Latin"]
    chinese_tries = scripts["Han"] + scripts["Mixed"]
    english_hits = sum(1 for _, s, g in expected
                       if s == "Latin" and ref.expect(s, g).posterior is not None)
    chinese_hits = sum(1 for _, s, g in expected
                       if s in ("Han", "Mixed") and ref.expect(s, g).posterior is not None)
    return {
        "names": total,
        "distinct_ratio": len({name for name, _, _ in expected}) / total,
        "scripts": dict(sorted(scripts.items())),
        "labels": dict(sorted(report.labels.items())),
        "unknown_share": report.labels["Unknown"] / total,
        "english_hit_ratio": english_hits / english_tries if english_tries else 0.0,
        "chinese_hit_ratio": chinese_hits / chinese_tries if chinese_tries else 0.0,
        "threshold_ties": report.ties,
        "threshold_ties_labelled_decisive": report.ties_decisive,
    }
