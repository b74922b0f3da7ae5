"""Read name lists, drive batch prediction in order, write results."""

from __future__ import annotations

import io
import itertools
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import NamedTuple, TypeVar

from namecensus.classifier import (
    ClassifierConfig,
    GenderLabel,
    Posterior,
    decide,
    printed_probability,
    route,
)
from namecensus.corpus import CountModel, normalize_name_key
from namecensus.errors import NamecensusError
from namecensus.scriptdetect import _HAN, _LATIN, _MIXED, Script
from namecensus.textio import column, csv_rows, replace_file, split_lines, text_blocks


class AggregateStats(NamedTuple):
    counts: dict[GenderLabel, int]
    percentages: dict[GenderLabel, float]
    total: int


def _txt_names(path: Path) -> Iterator[str]:
    for block in text_blocks(path):
        # No name holds the line list, so it is freed before the next block is read.
        yield from filter(None, map(str.strip, split_lines(block)))


def _csv_names(path: Path, name_column: str | int, has_header: bool) -> Iterator[str]:
    with csv_rows(path) as reader:
        first = next(reader, None)
        if first is None:
            raise NamecensusError(f"{path}: empty input")
        col: int
        if isinstance(name_column, int) or str(name_column).isdigit():
            col = int(name_column)
            rows = reader if has_header else itertools.chain([first], reader)
        else:
            if not has_header:
                raise NamecensusError(f"{path}: name column {name_column!r} needs a header row")
            col = column(path, first, name_column)
            rows = reader
        for row in rows:
            try:
                name = row[col].strip()
            except IndexError:
                if any(cell.strip() for cell in row):
                    raise NamecensusError(
                        f"{path}:{reader.line_num}: row has no column index {col}"
                    ) from None
                continue  # a blank row
            if name:
                yield name


def input_format(path: str | Path, format: str = "auto") -> str:
    """`format`, with auto read as csv for a `.csv` file name and txt otherwise."""
    if format == "auto":
        return "csv" if Path(path).suffix.lower() == ".csv" else "txt"
    return format


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
    format = input_format(path, format)
    if format == "txt":
        names = _txt_names(path)
    elif format == "csv":
        names = _csv_names(path, name_column, has_header)
    else:
        raise NamecensusError(f"unknown input format {format!r}")
    first = next(names, None)
    if first is None:
        raise NamecensusError(f"{path}: no name records found")
    yield first
    yield from names


_T = TypeVar("_T")


def _memoised(fn: Callable[[str], _T], keys: Iterable[str]) -> Iterator[_T]:
    """`fn(key)` for every key, in order. Each distinct key is computed
    once and its repeats share the value, so the memo holds one entry
    per distinct key."""
    memo: dict[str, _T] = {}
    for key in keys:
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(key)
        yield value


RESULT_FIELDS = ["item", "name", "gender", "probability", "script", "given_name"]

# (label, name field, rest): the row is f"{item},{name field}{rest}".
_Row = tuple[str, str, str]


def _field(field: str) -> str:
    """A field holding a comma, a quote, an LF or a CR is quoted, as
    csv.writer's default dialect quotes it; any other field, NUL
    included, is written as it is."""
    if "," in field or '"' in field or "\n" in field or "\r" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


# The (label, "label,probability") text of every row without evidence.
_UNKNOWN_TEXT = (GenderLabel.UNKNOWN.value, f"{GenderLabel.UNKNOWN.value},")


def predict_to_results(
    english: CountModel,
    chinese: CountModel,
    config: ClassifierConfig,
    names: Iterable[str],
    path: str | Path,
) -> AggregateStats:
    """Predict every name into the results CSV at `path`, as `names` is
    iterated; returns its label counts. Each distinct name is stripped,
    routed and its row formatted once; the memo holds that row text.
    Each distinct Han given name, and each Latin corpus entry, is decided
    once."""
    entries = english.entries
    # Keyed by the evidence a decision depends on: a Han given name, or
    # the model's own (female, male) tuple of a Latin given name, so a
    # Latin key costs no memory and names with equal counts share it.
    decisions: dict[str | tuple[int, int], tuple[str, str]] = {}
    # One value per distinct decision text, shared by all keys that have it.
    texts: dict[str, tuple[str, str]] = {}

    def row(raw_name: str) -> _Row:
        name = raw_name.strip()
        script, given = route(name)
        if script is _LATIN:
            key = entries.get(normalize_name_key(given))
        elif script is _HAN or script is _MIXED:
            key = given
        else:
            key = None
        if key is None:
            label, text = _UNKNOWN_TEXT
        else:
            decision = decisions.get(key)
            if decision is None:
                post, gender = decide(english, chinese, config, script, given)
                text = f"{gender.value},{printed_probability(post)}"
                decision = decisions[key] = texts.setdefault(text, (gender.value, text))
            label, text = decision
        # The script column is the member's `_value_`, a plain attribute:
        # `.value` and `Enum.__hash__` run Python code.
        return label, _field(name), f",{text},{script._value_},{_field(given)}\n"

    return _write_rows(_memoised(row, names), path)


def _write_rows(rows: Iterable[_Row], path: str | Path) -> AggregateStats:
    """The results CSV of `rows`, written through `textio.replace_file`;
    returns its label counts. item is the 1-based row position."""
    # Counted by label value: a str hashes in C, an Enum member in Python.
    counts = dict.fromkeys((label.value for label in GenderLabel), 0)
    with replace_file(path) as out, io.TextIOWrapper(out, encoding="utf-8", newline="\n") as fh:
        write = fh.write
        write(",".join(RESULT_FIELDS) + "\n")
        for item, (label, name, rest) in enumerate(rows, start=1):
            counts[label] += 1
            write(f"{item},{name}{rest}")
        # Inside the block, so a batch of zero rows leaves `path` as it was.
        return _stats({label: counts[label.value] for label in GenderLabel})


def read_result_labels(path: str | Path) -> list[GenderLabel]:
    """The gender column of a results CSV, in row order."""
    labels = []
    with csv_rows(path) as reader:
        col = column(path, next(reader, []), "gender")
        for row in filter(None, reader):  # blank lines are skipped
            try:
                labels.append(GenderLabel(row[col]))
            except IndexError:
                raise NamecensusError(
                    f"{path}:{reader.line_num}: row has no column index {col}"
                ) from None
            except ValueError:
                raise NamecensusError(
                    f"{path}:{reader.line_num}: unknown gender label {row[col]!r}"
                ) from None
    if not labels:
        raise NamecensusError(f"no result rows in {path}")
    return labels


def _stats(counts: dict[GenderLabel, int]) -> AggregateStats:
    total = sum(counts.values())
    if not total:
        raise NamecensusError("cannot aggregate zero predictions")
    percentages = {label: 100.0 * n / total for label, n in counts.items()}
    return AggregateStats(counts=counts, percentages=percentages, total=total)


def aggregate_labels(labels: Iterable[GenderLabel]) -> AggregateStats:
    """Count and percentage per label; every label appears, even at zero."""
    counts = dict.fromkeys(GenderLabel, 0)
    for label in labels:
        counts[label] += 1
    return _stats(counts)


# The list API. Its only non-test caller is perfbench/traced.py.


class NameRecord(NamedTuple):
    raw_name: str


class Prediction(NamedTuple):
    raw_name: str
    script: Script
    given: str
    posterior: Posterior
    label: GenderLabel


def read_input(
    path: str | Path,
    format: str = "auto",
    name_column: str | int = "name",
    has_header: bool = True,
) -> list[NameRecord]:
    """One NameRecord per name of `iter_names`."""
    return [NameRecord(name) for name in iter_names(path, format, name_column, has_header)]


def run_batch(
    english: CountModel,
    chinese: CountModel,
    config: ClassifierConfig,
    records: list[NameRecord],
) -> list[Prediction]:
    """Predict every record, in order; repeats of a raw name share one
    frozen Prediction."""

    def prediction(raw_name: str) -> Prediction:
        name = raw_name.strip()
        script, given = route(name)
        return Prediction(name, script, given, *decide(english, chinese, config, script, given))

    return list(_memoised(prediction, (record.raw_name for record in records)))


def _row(pred: Prediction) -> _Row:
    """The results row of `pred`, all but its item; probability is the max
    posterior, blank for Unknown. The name field of a plain name is
    `pred.raw_name` itself, so a memo entry keyed by the name does not
    copy it."""
    prob = printed_probability(pred.posterior)
    label = pred.label.value
    rest = f",{label},{prob},{pred.script.value},{_field(pred.given)}\n"
    return label, _field(pred.raw_name), rest


def write_results(predictions: Iterable[Prediction], path: str | Path) -> AggregateStats:
    """Results CSV of `predictions`, written as they are iterated; returns
    its label counts."""
    return _write_rows(map(_row, predictions), path)


def aggregate(predictions: Iterable[Prediction]) -> AggregateStats:
    return aggregate_labels(pred.label for pred in predictions)
