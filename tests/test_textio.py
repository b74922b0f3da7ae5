"""Every file the CLI reads reports the same faults in the same form."""

import codecs
import os

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
