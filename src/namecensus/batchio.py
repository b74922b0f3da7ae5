"""Read name lists, drive batch prediction in order, write results."""

from __future__ import annotations

import csv
import io
import itertools
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from namecensus.classifier import (
    ClassifierConfig,
    GenderLabel,
    Prediction,
    predict,
)
from namecensus.corpus import CountModel
from namecensus.errors import EmptyInputError, InputError, invalid_utf8


@dataclass(frozen=True, slots=True)
class NameRecord:
    raw_name: str


@dataclass(frozen=True)
class AggregateStats:
    counts: dict[GenderLabel, int]
    percentages: dict[GenderLabel, float]
    total: int


_CHUNK = 1 << 16


def _text_blocks(path: Path) -> Iterator[str]:
    """The file's text, decoded one block of whole lines at a time.

    Each block but the last ends at LF, CRLF or CR, and never between the
    CR and LF of a pair; UTF-8 never puts those bytes inside a character,
    so every block decodes on its own. A leading BOM is dropped, and a
    decode error names its file byte offset.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    with fh:
        offset = 0  # file offset of `pending`
        pending = b""
        # The read size grows with a line longer than a chunk, so reading it stays linear.
        while chunk := fh.read(max(_CHUNK, len(pending))):
            pending += chunk
            # A CR in the last byte may start a CRLF, so it waits for the next chunk.
            cut = max(pending.rfind(b"\n"), pending.rfind(b"\r", 0, len(pending) - 1)) + 1
            if cut:
                text = _decode_block(path, pending[:cut], offset)
                offset, pending = offset + cut, pending[cut:]
                yield text
        if pending:
            yield _decode_block(path, pending, offset)


def _decode_block(path: Path, block: bytes, offset: int) -> str:
    """Decoded as "utf-8-sig" would be, but byte offsets stay file offsets."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: invalid UTF-8 at byte offset {offset + exc.start}"
        ) from None
    return text.removeprefix("\ufeff") if offset == 0 else text


def _txt_names(blocks: Iterable[str]) -> Iterator[str]:
    for block in blocks:
        # No name holds the line list, so it is freed before the next block is read.
        yield from filter(
            None, map(str.strip, block.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
        )


def _csv_names(
    blocks: Iterable[str], path: Path, name_column: str | int, has_header: bool
) -> Iterator[str]:
    # newline="" splits lines at LF, CRLF and CR only, and keeps their ends.
    reader = csv.reader(line for block in blocks for line in io.StringIO(block, newline=""))
    try:
        first = next(reader, None)
        if first is None:
            raise EmptyInputError(f"{path}: empty input")
        col: int
        if isinstance(name_column, int) or str(name_column).isdigit():
            col = int(name_column)
            rows = reader if has_header else itertools.chain([first], reader)
        else:
            if not has_header:
                raise InputError(
                    f"{path}: name column {name_column!r} needs a header row"
                )
            if name_column not in first:
                raise InputError(
                    f"{path}: no column {name_column!r} in header {first}"
                )
            col = first.index(name_column)
            rows = reader
        for row in rows:
            try:
                name = row[col].strip()
            except IndexError:
                if any(cell.strip() for cell in row):
                    raise InputError(
                        f"{path}: row {row} has no column index {col}"
                    ) from None
                continue  # a blank row
            if name:
                yield name
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def iter_names(
    path: str | Path,
    format: str = "auto",
    name_column: str | int = "name",
    has_header: bool = True,
) -> Iterator[str]:
    """Every nonblank name, stripped, in file order, read as the file is
    iterated; at most one block of lines is held at a time.

    txt is one name per line; csv takes `name_column` (header name or
    0-based index); auto picks by file extension. Records end only at
    LF, CRLF or CR; other Unicode line boundaries, such as U+0085 or
    U+2028, stay inside the name.
    """
    path = Path(path)
    if format == "auto":
        format = "csv" if path.suffix.lower() == ".csv" else "txt"
    if format == "txt":
        names = _txt_names(_text_blocks(path))
    elif format == "csv":
        names = _csv_names(_text_blocks(path), path, name_column, has_header)
    else:
        raise InputError(f"unknown input format {format!r}")
    first = next(names, None)
    if first is None:
        raise EmptyInputError(f"{path}: no name records found")
    yield first
    yield from names


def read_input(
    path: str | Path,
    format: str = "auto",
    name_column: str | int = "name",
    has_header: bool = True,
) -> list[NameRecord]:
    """One NameRecord per name of `iter_names`."""
    return [NameRecord(name) for name in iter_names(path, format, name_column, has_header)]


def iter_predictions(
    english: CountModel,
    chinese: CountModel,
    config: ClassifierConfig,
    names: Iterable[str],
) -> Iterator[Prediction]:
    """Predict every name, in input order. Each distinct raw name is
    predicted once; its repeats share the same frozen Prediction, so the
    memo holds one entry per distinct name."""
    memo: dict[str, Prediction] = {}
    for name in names:
        pred = memo.get(name)
        if pred is None:
            pred = memo[name] = predict(english, chinese, config, name)
        yield pred


def run_batch(
    english: CountModel,
    chinese: CountModel,
    config: ClassifierConfig,
    records: list[NameRecord],
) -> list[Prediction]:
    return list(iter_predictions(english, chinese, config,
                                 (record.raw_name for record in records)))


RESULT_FIELDS = ["item", "name", "gender", "probability", "script", "given_name"]


def write_results(predictions: Iterable[Prediction], path: str | Path) -> AggregateStats:
    """Results CSV, written as `predictions` is iterated; returns its label
    counts. item is the 1-based row position, probability the max
    posterior, blank for Unknown.

    The rows go to a temp file beside `path`, which replaces `path` only
    once every row is written, so a failed batch leaves `path` as it was.
    A pipe or a device, such as /dev/stdout, cannot be renamed over and
    is written in place.
    """
    path = Path(path)
    tmp = None
    if path.is_file() or not path.exists():
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # Counted by label value: a str hashes in C, an Enum member in Python.
    counts = dict.fromkeys((label.value for label in GenderLabel), 0)
    try:
        with open(tmp or path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            # csv.writer leaves a field with a bare CR unquoted, and a reader
            # then splits the row there; such rows are quoted in full.
            quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(RESULT_FIELDS)
            for item, pred in enumerate(predictions, start=1):
                if pred.posterior.evidence_found:
                    prob = f"{max(pred.posterior.p_female, pred.posterior.p_male):.4f}"
                else:
                    prob = ""
                label = pred.label.value
                counts[label] += 1
                row = [item, pred.raw_name, label, prob, pred.script.value, pred.given]
                if "\r" in pred.raw_name or "\r" in pred.given:
                    quoted.writerow(row)
                else:
                    writer.writerow(row)
        stats = _stats({label: counts[label.value] for label in GenderLabel})
        if tmp:
            os.replace(tmp, path)
    except BaseException:
        if tmp:
            tmp.unlink(missing_ok=True)
        raise
    return stats


def read_result_labels(path: str | Path) -> list[GenderLabel]:
    """The gender column of a results CSV, in row order."""
    labels = []
    try:
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
    except csv.Error as exc:
        # DictReader counts only the lines of whole rows.
        raise InputError(f"{path}:{reader.reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise InputError(invalid_utf8(path)) from None
    if not labels:
        raise EmptyInputError(f"no result rows in {path}")
    return labels


def _stats(counts: dict[GenderLabel, int]) -> AggregateStats:
    total = sum(counts.values())
    if not total:
        raise EmptyInputError("cannot aggregate zero predictions")
    percentages = {label: 100.0 * n / total for label, n in counts.items()}
    return AggregateStats(counts=counts, percentages=percentages, total=total)


def aggregate_labels(labels: Iterable[GenderLabel]) -> AggregateStats:
    """Count and percentage per label; every label appears, even at zero."""
    counts = dict.fromkeys(GenderLabel, 0)
    for label in labels:
        counts[label] += 1
    return _stats(counts)


def aggregate(predictions: Iterable[Prediction]) -> AggregateStats:
    return aggregate_labels(pred.label for pred in predictions)
