"""Read name lists, drive batch prediction in order, write results."""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator
from operator import attrgetter, itemgetter
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
from namecensus.scriptdetect import _LATIN, Script
from namecensus.textio import column, csv_rows, line_lists, replace_file


class AggregateStats(NamedTuple):
    counts: dict[GenderLabel, int]
    percentages: dict[GenderLabel, float]
    total: int


def _txt_names(lines: list[str]) -> Iterator[str]:
    """The names of one list of a txt file's lines. No name holds the list,
    so it is freed before the next list is read."""
    return filter(None, map(str.strip, lines))


def _csv_names(path: Path, name_column: str | int, has_header: bool) -> Iterator[list[str]]:
    """The names of a CSV file, in lists of up to `_BLOCK`."""
    # Only ASCII digits make an index: int() also reads "٣" as 3.
    if isinstance(name_column, str) and name_column.isascii() and name_column.isdigit():
        name_column = int(name_column)
    # A bool is an int, and a negative index would count from the row's end.
    if not (isinstance(name_column, str) or (type(name_column) is int and name_column >= 0)):
        raise NamecensusError(
            f"name column must be a header name or an index of 0 or more, got {name_column!r}"
        )
    with csv_rows(path) as (first, reader):
        col: int
        if isinstance(name_column, int):
            col = name_column
            rows = reader if has_header else itertools.chain([first], reader)
        else:
            if not has_header:
                raise NamecensusError(f"{path}: name column {name_column!r} needs a header row")
            col = column(path, first, name_column)
            rows = reader
        names: list[str] = []
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
                names.append(name)
                if len(names) == _BLOCK:
                    yield names
                    names = []
        yield names


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
    U+2028, stay inside the name. A fault, such as a missing file, is
    raised by the first `next()`. The names are handed on in C, with no
    Python frame resumed per name.
    """
    return itertools.chain.from_iterable(_name_runs(Path(path), format, name_column, has_header))


def _name_runs(
    path: Path, format: str, name_column: str | int, has_header: bool
) -> Iterator[Iterable[str]]:
    """`iter_names` as two runs: the first name, checked to exist, then the rest."""
    format = input_format(path, format)
    if format == "txt":
        blocks = map(_txt_names, line_lists(path))
    elif format == "csv":
        blocks = _csv_names(path, name_column, has_header)
    else:
        raise NamecensusError(f"unknown input format {format!r}")
    names = itertools.chain.from_iterable(blocks)
    first = next(names, None)
    if first is None:
        raise NamecensusError(f"{path}: no name records found")
    yield (first,)
    yield names


_T = TypeVar("_T")


RESULT_FIELDS = ["item", "name", "gender", "probability", "script", "given_name"]

# (label, rest): the row is b"%d" % item + rest, rest the UTF-8 of
# ",name,gender,probability,script,given_name\n".
_Row = tuple[str, bytes]

# Rows are formatted, counted and written a block at a time: the per-row
# work of a block runs in C calls. A block's list, rows and text are
# alive together, so it bounds the memory a batch adds to its memos.
_BLOCK = 1024

# Past this many rows both memos are cleared, so memory stops growing with distinct names.
_MEMO_ROWS = 1 << 17


def _blocks(items: Iterable[_T]) -> Iterator[list[_T]]:
    """`items` in order, as lists of up to `_BLOCK` items."""
    it = iter(items)
    return iter(lambda: list(itertools.islice(it, _BLOCK)), [])


def _field(field: str) -> str:
    """A field holding a comma, a quote, an LF or a CR is quoted, as
    csv.writer's default dialect quotes it; any other field, NUL
    included, is written as it is."""
    if "," in field or '"' in field or "\n" in field or "\r" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def predict_to_results(
    english: CountModel,
    chinese: CountModel,
    config: ClassifierConfig,
    names: Iterable[str],
    path: str | Path,
) -> AggregateStats:
    """Predict every name into the results CSV at `path`, as `names` is
    iterated a block at a time; returns its label counts. Both memos are cleared
    together once the row memo holds more than `_MEMO_ROWS` rows, so neither
    holds the entries of more than that many names and a block."""
    entries = english.entries
    # Keyed by the evidence a decision depends on: the model's own
    # (female, male) tuple of a Latin given name, so a Latin key costs no
    # memory and names with equal counts share it, or None for a Latin name
    # the corpus lacks; any other given name is its own key, "" for Empty
    # and Other.
    decisions: dict[str | tuple[int, int] | None, tuple[str, str]] = {}
    # One value per distinct decision text, shared by all keys that have it.
    texts: dict[str, tuple[str, str]] = {}
    # The row of each distinct raw name, so a repeat costs no Python code.
    memo: dict[str, _Row] = {}

    def rows(block: list[str]) -> list[_Row]:
        if len(memo) > _MEMO_ROWS:
            memo.clear()
            decisions.clear()
        # A name repeated within the block is in the memo by its second turn.
        for raw_name in itertools.filterfalse(memo.__contains__, block):
            name = raw_name.strip()
            script, given = route(name)
            key = entries.get(normalize_name_key(given)) if script is _LATIN else given
            decision = decisions.get(key)
            if decision is None:
                post, gender = decide(english, chinese, config, script, given)
                # `_value_` is a plain attribute: `.value` runs Python code.
                text = f"{gender._value_},{printed_probability(post)}"
                decision = decisions[key] = texts.setdefault(text, (gender._value_, text))
            label, text = decision
            # The given name is a substring of the name, or Han characters
            # of it, so it needs quoting only where the name does.
            field = _field(name)
            if field is not name:
                given = _field(given)
            memo[raw_name] = label, f",{field},{text},{script._value_},{given}\n".encode()
        return list(map(memo.__getitem__, block))

    return _write_rows(map(rows, _blocks(names)), path)


def _write_rows(blocks: Iterable[list[_Row]], path: str | Path) -> AggregateStats:
    """The results CSV of the rows of `blocks`, written a block at a time
    through `textio.replace_file`; returns its label counts. item is the
    1-based row position. A block's bytes are one `bytes % tuple` call:
    the format repeats b"%d%s" once per row of the block, and the tuple
    holds each row's item and rest in turn, so no Python code runs per row.
    A `%` inside a name is in a rest, an argument, so it is never read as
    a format."""
    # Counted by label value: a str hashes in C, an Enum member in Python.
    counts: Counter[str] = Counter()
    item = 1
    with replace_file(path) as out:
        out.write(",".join(RESULT_FIELDS).encode() + b"\n")
        for rows in blocks:
            counts.update(map(itemgetter(0), rows))
            end = item + len(rows)
            args: list[int | bytes] = [b""] * (2 * len(rows))
            args[::2] = range(item, end)
            args[1::2] = map(itemgetter(1), rows)
            out.write(b"%d%s" * len(rows) % tuple(args))
            item = end
        # Inside the block, so a batch of zero rows leaves `path` as it was.
        return _stats(counts)


def iter_result_labels(path: str | Path) -> Iterator[GenderLabel]:
    """The gender column of a results CSV, in row order, read as it is iterated."""
    labels = {label.value: label for label in GenderLabel}  # a dict reads faster than the enum
    rows = 0
    with csv_rows(path) as (header, reader):
        col = column(path, header, "gender")
        for rows, row in enumerate(filter(None, reader), 1):  # blank lines are skipped
            try:
                yield labels[row[col]]
            except IndexError:
                raise NamecensusError(
                    f"{path}:{reader.line_num}: row has no column index {col}"
                ) from None
            except KeyError:
                raise NamecensusError(
                    f"{path}:{reader.line_num}: unknown gender label {row[col]!r}"
                ) from None
    if not rows:
        raise NamecensusError(f"{path}: no result rows")


def _stats(values: Counter[str]) -> AggregateStats:
    """The stats of a count per label value; every label appears, even at zero."""
    counts = {label: values[label.value] for label in GenderLabel}
    total = sum(counts.values())
    if not total:
        raise NamecensusError("cannot aggregate zero predictions")
    percentages = {label: 100.0 * n / total for label, n in counts.items()}
    return AggregateStats(counts=counts, percentages=percentages, total=total)


def aggregate_labels(labels: Iterable[GenderLabel]) -> AggregateStats:
    """Count and percentage per label; every label appears, even at zero."""
    # `_value_` is a plain attribute, read in C: `.value` runs Python code.
    return _stats(Counter(map(attrgetter("_value_"), labels)))


# The list API. Its only non-test caller, perfbench/traced.py, calls
# `read_input`, `run_batch`, `write_results` and `aggregate`.


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
    memo: dict[str, Prediction] = {}
    for raw_name in dict.fromkeys(record.raw_name for record in records):  # distinct, in order
        name = raw_name.strip()
        script, given = route(name)
        post, label = decide(english, chinese, config, script, given)
        memo[raw_name] = Prediction(name, script, given, post, label)
    return [memo[record.raw_name] for record in records]


def _row(pred: Prediction) -> _Row:
    """The results row of `pred`, all but its item; probability is the max
    posterior, blank for Unknown."""
    prob = printed_probability(pred.posterior)
    label = pred.label.value
    rest = f",{_field(pred.raw_name)},{label},{prob},{pred.script.value},{_field(pred.given)}\n"
    return label, rest.encode()


def write_results(predictions: Iterable[Prediction], path: str | Path) -> AggregateStats:
    """Results CSV of `predictions`, written a block at a time as they are
    iterated; returns its label counts."""
    return _write_rows(_blocks(map(_row, predictions)), path)


def aggregate(predictions: Iterable[Prediction]) -> AggregateStats:
    return aggregate_labels(pred.label for pred in predictions)
