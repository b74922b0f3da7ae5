"""Read name lists, drive batch prediction in order, write results."""

from __future__ import annotations

import csv
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from namecensus.classifier import (
    ClassifierConfig,
    GenderLabel,
    Prediction,
    predict,
)
from namecensus.corpus import ChineseCharModel, EnglishNameModel
from namecensus.errors import EmptyInputError, InputError


@dataclass(frozen=True)
class NameRecord:
    index: int  # 1-based, contiguous over kept records
    raw_name: str


@dataclass(frozen=True)
class AggregateStats:
    counts: dict[GenderLabel, int]
    percentages: dict[GenderLabel, float]
    total: int


def _read_text(path: Path) -> str:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    try:
        # Decoded as "utf-8-sig" would be, but byte offsets stay file offsets.
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: invalid UTF-8 at byte offset {exc.start}")


def read_input(
    path: str | Path,
    format: str = "auto",
    name_column: str | int = "name",
    has_header: bool = True,
) -> list[NameRecord]:
    """One NameRecord per nonblank name, indices contiguous from 1.

    txt is one name per line; csv takes `name_column` (header name or
    0-based index); auto picks by file extension.
    """
    path = Path(path)
    text = _read_text(path)
    if format == "auto":
        format = "csv" if path.suffix.lower() == ".csv" else "txt"
    names: list[str] = []
    if format == "txt":
        names = [line.strip() for line in text.splitlines() if line.strip()]
    elif format == "csv":
        rows = list(csv.reader(text.splitlines()))
        if not rows:
            raise EmptyInputError(f"{path}: empty input")
        col: int
        if isinstance(name_column, int) or str(name_column).isdigit():
            col = int(name_column)
            body = rows[1:] if has_header else rows
        else:
            if not has_header:
                raise InputError(
                    f"{path}: name column {name_column!r} needs a header row"
                )
            header = rows[0]
            if name_column not in header:
                raise InputError(
                    f"{path}: no column {name_column!r} in header {header}"
                )
            col = header.index(name_column)
            body = rows[1:]
        for row in body:
            if not row or all(not cell.strip() for cell in row):
                continue
            if col >= len(row):
                raise InputError(
                    f"{path}: row {row} has no column index {col}"
                )
            name = row[col].strip()
            if name:
                names.append(name)
    else:
        raise InputError(f"unknown input format {format!r}")
    if not names:
        raise EmptyInputError(f"{path}: no name records found")
    return [NameRecord(i, name) for i, name in enumerate(names, start=1)]


def run_batch(
    english: EnglishNameModel,
    chinese: ChineseCharModel,
    config: ClassifierConfig,
    records: list[NameRecord],
) -> list[Prediction]:
    """Predict every record, in input order. Each distinct raw name is
    predicted once; its repeats share the same frozen Prediction."""
    memo: dict[str, Prediction] = {}
    predictions = []
    for record in records:
        pred = memo.get(record.raw_name)
        if pred is None:
            pred = memo[record.raw_name] = predict(
                english, chinese, config, record.raw_name
            )
        predictions.append(pred)
    return predictions


RESULT_FIELDS = ["item", "name", "gender", "probability", "script", "given_name"]


def write_results(predictions: list[Prediction], path: str | Path) -> None:
    """Results CSV; item is the 1-based row position (read_input numbers
    records the same way), probability the max posterior, blank for Unknown."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)
        for item, pred in enumerate(predictions, start=1):
            if pred.posterior.evidence_found:
                prob = f"{max(pred.posterior.p_female, pred.posterior.p_male):.4f}"
            else:
                prob = ""
            writer.writerow(
                [item, pred.raw_name, pred.label.value, prob,
                 pred.script.value, pred.given]
            )


def aggregate_labels(labels: Iterable[GenderLabel]) -> AggregateStats:
    """Count and percentage per label; every label appears, even at zero."""
    counts = dict.fromkeys(GenderLabel, 0)
    for label in labels:
        counts[label] += 1
    total = sum(counts.values())
    if not total:
        raise EmptyInputError("cannot aggregate zero predictions")
    percentages = {label: 100.0 * n / total for label, n in counts.items()}
    return AggregateStats(counts=counts, percentages=percentages, total=total)


def aggregate(predictions: list[Prediction]) -> AggregateStats:
    return aggregate_labels(pred.label for pred in predictions)
