"""Every file the CLI reads reports the same faults in the same form."""

import codecs

import pytest

from namecensus import textio
from namecensus.batchio import iter_names, read_result_labels
from namecensus.cli import _read_config
from namecensus.corpus import load_chinese_charfreq, load_english_year_files
from namecensus.errors import NamecensusError
from namecensus.report import load_gold_labels

BOM = codecs.BOM_UTF8

# name: (file name, reader, valid first two lines, CSV header or None).
# The first two lines end in CRLF and CR; the third holds the fault.
READERS = {
    "batch-txt": ("names.txt", lambda p: list(iter_names(p)), "Mary Smith\r\n王青\r", None),
    "batch-csv": ("names.csv", lambda p: list(iter_names(p)), "name\r\n王青\r", "name"),
    "gold": ("gold.csv", load_gold_labels, "name,gender\r\n王青,Female\r", "name,gender"),
    "results": ("results.csv", read_result_labels,
                "item,name,gender\r\n1,王青,Female\r", "item,name,gender"),
    "char-table": ("chars.csv", load_chinese_charfreq,
                   "char,female,male\r\n娟,3,1\r", "char,female,male"),
    "yob": ("yob2000.txt", lambda p: load_english_year_files(p.parent),
            "Mary,F,5\r\nJohn,M,3\r", None),
    "config": ("cfg.json", lambda p: _read_config(str(p)), '{"threshold":\r\n 0.9,\r', None),
}
CSV_READERS = [name for name, reader in READERS.items() if reader[3]]


def read(tmp_path, reader, data):
    filename, call, _, _ = READERS[reader]
    path = tmp_path / filename
    path.write_bytes(data)
    with pytest.raises(NamecensusError) as exc:
        call(path)
    return path, str(exc.value)


# Chunks of 1, 2 and 5 bytes split the BOM, the CRLF pair and the Han characters.
@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 16])
@pytest.mark.parametrize("reader", READERS)
def test_invalid_byte_after_bom_and_line_ends(tmp_path, monkeypatch, reader, chunk):
    monkeypatch.setattr(textio, "_CHUNK", chunk)
    data = BOM + READERS[reader][2].encode("utf-8") + b'"Jo\xffhn",M,2\n'
    path, message = read(tmp_path, reader, data)
    offset = data.index(b"\xff")
    assert message == f"{path}:3: invalid UTF-8 at byte offset {offset}"


@pytest.mark.parametrize("reader", CSV_READERS)
def test_field_over_csv_limit(tmp_path, reader):
    data = READERS[reader][2].encode("utf-8") + b"x" * 200_000 + b",1,2\n"
    path, message = read(tmp_path, reader, data)
    assert message == f"{path}:3: field larger than field limit (131072)"


# A yob file cannot be missing: its directory listing names it.
@pytest.mark.parametrize("reader", [name for name in READERS if name != "yob"])
def test_missing_file(tmp_path, reader):
    filename, call, _, _ = READERS[reader]
    path = tmp_path / filename
    with pytest.raises(NamecensusError) as exc:
        call(path)
    assert str(exc.value) == f"{path}: file not found"


@pytest.mark.parametrize("reader", READERS)
def test_directory_given_as_file(tmp_path, reader):
    filename, call, _, _ = READERS[reader]
    path = tmp_path / filename
    path.mkdir()
    with pytest.raises(NamecensusError) as exc:
        call(path)
    assert str(exc.value) == f"{path}: is a directory"


# Which of two `name` columns holds the names cannot be told, so the file is refused.
@pytest.mark.parametrize("reader, column", [
    ("batch-csv", "name"), ("gold", "name"), ("results", "gender"),
])
def test_repeated_header_column_rejected(tmp_path, reader, column):
    header = READERS[reader][3]
    data = f"{header},{column}\nAda Lovelace,Female,Female,Zzz Qqq\n".encode("utf-8")
    path, message = read(tmp_path, reader, data)
    assert message == f"{path}:1: column {column!r} appears more than once in the header"
