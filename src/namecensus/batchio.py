"""Read name lists, drive batch prediction in order, write results."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from namecensus.classifier import (
    ClassifierConfig,
    GenderLabel,
    Prediction,
    predict,
)
from namecensus.corpus import CountModel
from namecensus.errors import EmptyInputError, InputError


@dataclass(frozen=True)
class NameRecord:
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
    """One NameRecord per nonblank name, in file order.

    txt is one name per line; csv takes `name_column` (header name or
    0-based index); auto picks by file extension. Records end only at
    LF, CRLF or CR; other Unicode line boundaries, such as U+0085 or
    U+2028, stay inside the name.
    """
    path = Path(path)
    text = _read_text(path)
    if format == "auto":
        format = "csv" if path.suffix.lower() == ".csv" else "txt"
    names: list[str] = []
    if format == "txt":
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        names = [name for name in map(str.strip, lines) if name]
    elif format == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
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
    return [NameRecord(name) for name in names]


def run_batch(
    english: CountModel,
    chinese: CountModel,
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
    """Results CSV; item is the 1-based row position, probability the max
    posterior, blank for Unknown."""
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


def read_result_labels(path: str | Path) -> list[GenderLabel]:
    """The gender column of a results CSV, in row order."""
    labels = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if "gender" not in (reader.fieldnames or ()):
            raise InputError(f"{path}: no gender column")
        for row in reader:
            try:
                labels.append(GenderLabel(row["gender"]))
            except ValueError:
                raise InputError(
                    f"{path}:{reader.line_num}: unknown gender label {row['gender']!r}"
                ) from None
    if not labels:
        raise EmptyInputError(f"no result rows in {path}")
    return labels


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
