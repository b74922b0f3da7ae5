"""Every file the CLI reads reports the same faults in the same form."""

import codecs
import os
import random
import re
import threading
import warnings
from collections import Counter

import pytest

from namecensus import textio
from namecensus.batchio import iter_names, iter_result_labels
from namecensus.cli import _read_config
from namecensus.corpus import load_chinese_charfreq, load_english_year_files
from namecensus.errors import NamecensusError
from namecensus.report import load_gold_labels
from oracles import english_model_oracle

BOM = codecs.BOM_UTF8

# name: (file name, reader, valid first two lines, CSV header or None).
# The first two lines end in CRLF and CR; the third holds the fault.
READERS = {
    "batch-txt": ("names.txt", lambda p: list(iter_names(p)), "Mary Smith\r\n王青\r", None),
    "batch-csv": ("names.csv", lambda p: list(iter_names(p)), "name\r\n王青\r", "name"),
    "gold": ("gold.csv", load_gold_labels, "name,gender\r\n王青,Female\r", "name,gender"),
    "results": ("results.csv", lambda p: list(iter_result_labels(p)),
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


# The stdlib's utf-8-sig decodes the start of a BOM at the end of a file to no text.
@pytest.mark.parametrize("data", [BOM[:1], BOM[:2]])
@pytest.mark.parametrize("reader", READERS)
def test_file_of_a_cut_bom(tmp_path, reader, data):
    path, message = read(tmp_path, reader, data)
    assert message == f"{path}:1: invalid UTF-8 at byte offset 0"


# Pieces of the inputs below: ASCII, a BOM, every line end, line boundaries
# that end no record (U+0085, U+2028), Han, a byte that is never UTF-8 and
# sequences cut short.
TEXT_PIECES = [b"a", b"Z", b" ", BOM, "\u0085".encode(), "\u2028".encode(),
               "王".encode(), "青".encode()]
BAD_PIECES = [b"\xff", "王".encode()[:2], "😀".encode()[:3], b"\x80"]
LINE_ENDS = [b"\n", b"\r\n", b"\r"]
LABELS = ["Female", "Male", "Unisex", "Unknown"]


def decoded_lines(data):
    """The lines of `data` read whole: decoded, its leading BOM dropped and
    split at LF, CRLF and CR only."""
    return re.split("\r\n|\r|\n", data.decode("utf-8").removeprefix("\ufeff"))


def invalid_utf8(path, data):
    """The fault of `data`'s first invalid byte, or None: its offset, and its
    line from the line ends before it."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return f"{path}:{line}: invalid UTF-8 at byte offset {exc.start}"
    return None


def field(rng, pieces, bad):
    """A field of pieces, now and then with an invalid piece in it."""
    out = [rng.choice(pieces) for _ in range(rng.randint(0, 4))]
    if rng.random() < bad:
        out.insert(rng.randint(0, len(out)), rng.choice(BAD_PIECES))
    return b"".join(out)


def txt_names(rng, bad):
    """Bytes of any pieces, line ends among them; the oracle's names."""
    data = field(rng, TEXT_PIECES + LINE_ENDS, 0) + b"".join(
        field(rng, TEXT_PIECES + LINE_ENDS, bad) for _ in range(rng.randint(0, 30)))
    return "names.txt", data, lambda path: [
        name for name in map(str.strip, decoded_lines(data)) if name]


def csv_names(rng, bad):
    rows = [str(i).encode() + b"," + field(rng, TEXT_PIECES, bad) for i in range(30)]
    data = join_rows(rng, b"id,name", rows)
    return "names.csv", data, lambda path: [
        name for line in decoded_lines(data)[1:] if line
        for name in [line.split(",")[1].strip()] if name]


def results(rng, bad):
    rows = [b"%d,%s,%s" % (i, field(rng, TEXT_PIECES, bad), rng.choice(LABELS).encode())
            for i in range(1, 31)]
    data = join_rows(rng, b"item,name,gender", rows)
    return "results.csv", data, lambda path: Counter(
        line.split(",")[2] for line in decoded_lines(data)[1:] if line)


def gold(rng, bad):
    rows = [field(rng, TEXT_PIECES, bad) + b"%d," % i + rng.choice(LABELS[:2]).encode()
            for i in range(30)]
    data = join_rows(rng, b"name,gender", rows)
    return "gold.csv", data, lambda path: {
        line.split(",")[0].strip(): line.split(",")[1]
        for line in decoded_lines(data)[1:] if line}


def yob(rng, bad):
    # Alphabetic names only, so a row is either valid or not UTF-8.
    alpha = [b"a", b"Z", "王".encode(), "青".encode()]
    rows = [b"N%s,%s,%d" % (field(rng, alpha, bad), rng.choice([b"F", b"M"]), rng.randint(1, 99))
            for _ in range(30)]
    data = join_rows(rng, b"Mary,F,5", rows)
    return "yob2000.txt", data, lambda path: english_model_oracle(path.parent)


def join_rows(rng, header, rows):
    """A header and rows, blank lines among them, each ended by any line end."""
    rows = [header] + [row for row in rows for row in [row] + [b""] * (rng.random() < 0.1)]
    return (BOM if rng.random() < 0.3 else b"") + b"".join(
        row + rng.choice(LINE_ENDS) for row in rows)


PROPERTY_READERS = {
    "batch-txt": (txt_names, lambda p: list(iter_names(p))),
    "batch-csv": (csv_names, lambda p: list(iter_names(p))),
    "results": (results, lambda p: Counter(label.value for label in iter_result_labels(p))),
    "gold": (gold, lambda p: {name: label.value for name, label in load_gold_labels(p).items()}),
    "yob": (yob, lambda p: load_english_year_files(p.parent)),
}


# A read of 1 to 7 characters, and of as many bytes, splits CRLF pairs, a BOM
# at the start and Han characters; every reader must give what a read of the
# whole file gives.
@pytest.mark.parametrize("chunk", [1, 2, 3, 7, textio._CHUNK])
@pytest.mark.parametrize("reader", PROPERTY_READERS)
def test_reader_equals_whole_file_read(tmp_path, monkeypatch, reader, chunk):
    monkeypatch.setattr(textio, "_CHUNK", chunk)
    read1 = textio._Counted.read1
    monkeypatch.setattr(textio._Counted, "read1", lambda self, size=-1: read1(self, chunk))
    make, call = PROPERTY_READERS[reader]
    rng = random.Random(f"{reader}-{chunk}")
    outcomes = Counter()
    for trial in range(200):
        directory = tmp_path / str(trial)
        directory.mkdir()
        filename, data, oracle = make(rng, bad=0.02)
        path = directory / filename
        path.write_bytes(data)
        fault = invalid_utf8(path, data)
        if fault is None:
            want = oracle(path)
            if not want:
                fault = f"{path}: no name records found"
        if fault is not None:
            with pytest.raises(NamecensusError) as exc:
                call(path)
            assert str(exc.value) == fault
        else:
            assert call(path) == want
        outcomes["invalid" if fault and "UTF-8" in fault else "valid"] += 1
    assert min(outcomes["invalid"], outcomes["valid"]) >= 30, outcomes


def test_abandoned_names_close_their_file(tmp_path):
    for filename, text in [("names.txt", "Hua Zhao\n王青\n" * 10_000),
                           ("names.csv", "name\nHua Zhao\n王青\n" * 10_000)]:
        path = tmp_path / filename
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            names = iter_names(path)
            assert next(names) == "Hua Zhao"
            del names
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_abandoned_result_labels_close_their_file(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("item,name,gender\n" + "1,Hua Zhao,Female\n" * 10_000, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = iter_result_labels(path)
        assert next(labels).value == "Female"
        del labels
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# A pipe's bytes cannot be read twice: its first invalid byte is placed as it is read.
@pytest.mark.parametrize("data, line, offset", [
    (b"Hua Zhao\nBr\xffown\n", 2, 11),
    (BOM + b"Hua Zhao\r\n\r" + "王".encode()[:2] + b"\n", 3, 14),
    (b"Hua Zhao\n" + "王".encode()[:2], 2, 9),
])
def test_invalid_byte_in_a_pipe(tmp_path, data, line, offset):
    fifo = tmp_path / "names.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    with pytest.raises(NamecensusError) as exc:
        list(iter_names(fifo, format="txt"))
    writer.join(timeout=10)
    assert str(exc.value) == f"{fifo}:{line}: invalid UTF-8 at byte offset {offset}"


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


# A symlinked output is written through: the temp file goes beside the file the
# link names, here in another directory, and replaces that file; the link stays.
# A dangling link is written through the same way: its target is created.
@pytest.mark.parametrize("fault, old", [(False, b"old\n"), (True, b"old\n"),
                                        (False, None), (True, None)],
                         ids=["clean", "mid-write", "dangling", "dangling-mid-write"])
def test_symlinked_output_replaces_its_target(tmp_path, fault, old):
    (tmp_path / "data").mkdir()
    (tmp_path / "links").mkdir()
    target = tmp_path / "data" / "results.csv"
    if old is not None:
        target.write_bytes(old)
    link = tmp_path / "links" / "results.csv"
    link.symlink_to("../data/results.csv")

    def write():
        with textio.replace_file(link) as fh:
            fh.write(b"new\n")
            if fault:
                raise OSError("disk full")

    if fault:
        with pytest.raises(OSError, match="^disk full$"):
            write()
    else:
        write()
    assert link.is_symlink() and os.readlink(link) == "../data/results.csv"
    after = old if fault else b"new\n"
    assert list((tmp_path / "data").iterdir()) == ([target] if after else [])
    assert after is None or target.read_bytes() == after
    assert list((tmp_path / "links").iterdir()) == [link]


# The temp file is created exclusively: a link or a stale file already at its
# first name is neither written through nor renamed over `path` nor removed.
@pytest.mark.parametrize("planted", ["link", "dangling-link", "stale-file"])
@pytest.mark.parametrize("fault", [False, True], ids=["clean", "mid-write"])
def test_existing_file_at_temp_name_is_left_alone(tmp_path, planted, fault):
    victim = tmp_path / "victim"
    if planted == "link":
        victim.write_bytes(b"secret\n")
    out = tmp_path / "results.csv"
    out.write_bytes(b"old\n")
    squatter = tmp_path / f".results.csv.{os.getpid()}.tmp"
    if planted == "stale-file":
        squatter.write_bytes(b"stale\n")
    else:
        squatter.symlink_to(victim)

    def write():
        with textio.replace_file(out) as fh:
            fh.write(b"new\n")
            if fault:
                raise OSError("disk full")

    if fault:
        with pytest.raises(OSError, match="^disk full$"):
            write()
    else:
        write()
    assert not out.is_symlink() and out.read_bytes() == (b"old\n" if fault else b"new\n")
    if planted == "stale-file":
        assert squatter.read_bytes() == b"stale\n"
    else:
        assert squatter.is_symlink() and os.readlink(squatter) == str(victim)
    assert sorted(tmp_path.iterdir()) == sorted(
        [out, squatter] + ([victim] if planted == "link" else []))
    assert planted != "link" or victim.read_bytes() == b"secret\n"


# A path naming an open descriptor is written through a copy of it: a file
# opened for appending keeps its bytes and gets the new ones after them, and it
# is neither renamed over nor reopened, which would truncate it.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("spelling", ["/dev/fd/{fd}", "/proc/self/fd/{fd}", "link"],
                         ids=["dev-fd", "proc-self-fd", "link"])
def test_descriptor_path_is_written_through_the_descriptor(tmp_path, spelling):
    log = tmp_path / "x.log"
    log.write_bytes(b"old\n")
    fd = os.open(log, os.O_WRONLY | os.O_APPEND)
    try:
        path = spelling.format(fd=fd)
        if spelling == "link":  # followed link by link to the descriptor
            path = tmp_path / "out.csv"
            path.symlink_to(f"/dev/fd/{fd}")
        inode = log.stat().st_ino
        with textio.replace_file(path) as fh:
            fh.write(b"new\n")
        os.write(fd, b"after\n")  # the descriptor itself stays open
    finally:
        os.close(fd)
    assert log.read_bytes() == b"old\nnew\nafter\n"
    assert log.stat().st_ino == inode
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["x.log"] + (["out.csv"] if spelling == "link" else []))
