import csv
import io
import os
import random
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from namecensus import batchio, textio
from namecensus.batchio import (
    NameRecord,
    Prediction,
    aggregate,
    aggregate_labels,
    iter_names,
    iter_result_labels,
    predict_to_results,
    read_input,
    run_batch,
    write_results,
)
from namecensus.classifier import ClassifierConfig, GenderLabel, Posterior, route
from namecensus.corpus import CountModel
from namecensus.errors import NamecensusError
from namecensus.scriptdetect import Script
from oracles import result_rows_oracle, results_csv_oracle

CFG = ClassifierConfig()
ENG = CountModel(entries={"hua": (80, 20)}, total_female=80, total_male=20)
CHI = CountModel(entries={"青": (55, 45)}, total_female=55, total_male=45)


def oracle_outputs(names, english=ENG, chinese=CHI, config=CFG):
    """The results bytes and label counts of `names`, by the oracles alone."""
    rows = result_rows_oracle(english, chinese, config, names)
    return results_csv_oracle(rows), aggregate_labels(GenderLabel(row[2]) for row in rows)


class TestReadInput:
    def test_txt_skips_blank_lines_contiguous_indices(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("Hua Zhao\n\n王青\n", encoding="utf-8")
        records = read_input(path)
        assert records == [NameRecord("Hua Zhao"), NameRecord("王青")]

    def test_csv_name_column(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("id,author\n7,Phil Barker\n", encoding="utf-8")
        records = read_input(path, name_column="author")
        assert records == [NameRecord("Phil Barker")]

    def test_csv_quoted_comma(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text('name\n"Gray, Alasdair"\n', encoding="utf-8")
        assert read_input(path) == [NameRecord("Gray, Alasdair")]

    def test_csv_column_by_index_without_header(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("Hua Zhao,x\n王青,y\n", encoding="utf-8")
        records = read_input(path, name_column=0, has_header=False)
        assert [r.raw_name for r in records] == ["Hua Zhao", "王青"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(NamecensusError, match="not found"):
            read_input(tmp_path / "nope.txt")

    def test_invalid_utf8_reports_byte_offset(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_bytes(b"abc\n\xffdef\n")
        with pytest.raises(NamecensusError, match="byte offset 4"):
            read_input(path)

    @pytest.mark.parametrize("filename, content", [
        ("names.txt", "\ufeffHua Zhao\nPhil Barker\n"),
        ("names.csv", "\ufeffname\nHua Zhao\nPhil Barker\n"),
    ], ids=["txt", "csv"])
    def test_leading_bom_ignored(self, tmp_path, filename, content):
        path = tmp_path / filename
        path.write_text(content, encoding="utf-8")
        assert read_input(path) == [NameRecord("Hua Zhao"), NameRecord("Phil Barker")]

    # Unicode line boundaries that str.splitlines() splits at, but a file's
    # records do not: only LF, CRLF and CR end a record.
    @pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c"],
                             ids=["NEL", "LS", "PS", "VT", "FF", "FS"])
    @pytest.mark.parametrize("filename, template", [
        ("names.txt", "Mary{sep}Smith\r\nJohn Brown\rHua Zhao\n"),
        ("names.csv", 'id,name\r\n1,"Mary{sep}Smith"\r\n2,John Brown\r3,Hua Zhao\n'),
        ("names.csv", "id,name\n1,Mary{sep}Smith\n2,John Brown\n3,Hua Zhao\n"),
    ], ids=["txt", "csv-quoted", "csv-unquoted"])
    def test_records_end_only_at_newlines(self, tmp_path, filename, template, sep):
        path = tmp_path / filename
        path.write_bytes(template.format(sep=sep).encode("utf-8"))
        assert read_input(path) == [
            NameRecord(f"Mary{sep}Smith"), NameRecord("John Brown"), NameRecord("Hua Zhao"),
        ]

    def test_invalid_utf8_offset_counts_bom(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_bytes(b"\xef\xbb\xbfabc\n\xffdef\n")
        with pytest.raises(NamecensusError, match="byte offset 7"):
            read_input(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("id,author\n1,x\n", encoding="utf-8")
        with pytest.raises(NamecensusError, match="no column 'name'"):
            read_input(path)

    @pytest.mark.parametrize("content, line", [
        ("id,name\n1,Hua Zhao\n2\n", 3),
        ('id,name\r\n1,"Hua\r\nZhao"\r\n\r\n2\r\n', 5),
    ], ids=["lf", "crlf-multiline-field"])
    def test_short_csv_row_names_file_and_line(self, tmp_path, content, line):
        path = tmp_path / "names.csv"
        path.write_bytes(content.encode("utf-8"))
        with pytest.raises(NamecensusError) as exc:
            read_input(path)
        assert str(exc.value) == f"{path}:{line}: row has no column index 1"

    # An index is an int of 0 or more: -1 would read the last column and
    # True column 1.
    @pytest.mark.parametrize("name_column", [-1, True, False, 1.0, None])
    @pytest.mark.parametrize("has_header", [True, False])
    def test_bad_column_index_is_refused(self, tmp_path, name_column, has_header):
        path = tmp_path / "names.csv"
        path.write_text("name,id\nHua Zhao,7\n", encoding="utf-8")
        names = iter_names(path, name_column=name_column, has_header=has_header)
        with pytest.raises(NamecensusError) as exc:
            next(names)
        assert str(exc.value) == (
            "name column must be a header name or an index of 0 or more, "
            f"got {name_column!r}")

    # Nothing is read until the first name is asked for; then a fault is raised.
    @pytest.mark.parametrize("filename, content, kwargs, message", [
        ("nope.txt", None, {}, "file not found"),
        ("nope.csv", None, {}, "file not found"),
        ("names.txt", "Hua Zhao\n", {"format": "xml"}, "unknown input format 'xml'"),
        ("names.txt", "\n \n", {}, "no name records found"),
        ("names.csv", "name\n\n", {}, "no name records found"),
    ])
    def test_faults_are_raised_by_the_first_next(self, tmp_path, filename, content, kwargs,
                                                 message):
        path = tmp_path / filename
        names = iter_names(path, **kwargs)
        if content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(NamecensusError, match=f"{message}$"):
            next(names)

    def test_empty_input_distinct_error(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(NamecensusError, match="no name records found$"):
            read_input(path)

    def test_auto_format_by_extension(self, tmp_path):
        txt = tmp_path / "n.txt"
        txt.write_text("Hua Zhao\n", encoding="utf-8")
        assert read_input(txt)[0].raw_name == "Hua Zhao"
        csv_path = tmp_path / "n.csv"
        csv_path.write_text("name\nHua Zhao\n", encoding="utf-8")
        assert read_input(csv_path)[0].raw_name == "Hua Zhao"


    # A 5-byte chunk ends the first read between the CR and the LF of "name\r\n".
    @pytest.mark.parametrize("chunk", [5, 1 << 16])
    def test_csv_field_over_limit_names_file_and_line(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        path = tmp_path / "names.csv"
        path.write_bytes(b"name\r\nHua Zhao\r\n" + b"x" * 200_000 + b"\r\n")
        with pytest.raises(NamecensusError) as exc:
            read_input(path)
        assert str(exc.value) == f"{path}:3: field larger than field limit (131072)"


def whole_file_names(path):
    """The names as read from the whole decoded text at once."""
    text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        col = rows[0].index("name")
        return [row[col].strip() for row in rows[1:] if len(row) > col and row[col].strip()]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [name for name in map(str.strip, lines) if name]


class TestIterNames:
    CONTENTS = {
        "cr.txt": "Mary Smith\rJohn Brown\r\r王青\r",
        "crlf.txt": "Mary Smith\r\nJohn Brown\r\n\r\n王青",
        "bom-mixed.txt": "\ufeff Mary\u2028Smith \r\nJohn\rBrown\n\n赵金标\r\r\n\ufeffHua Zhao",
        "cr.csv": 'id,name\r1,"Mary\rSmith"\r2,王青\r\r3,"Gray, Alasdair"\r',
        "bom-crlf.csv": '\ufeffid,name\r\n1,"Mary\r\nSmith"\r\n,\r\n2,"a""b"\n3,赵金标',
    }

    # Chunks of 1-7 bytes split CRLF pairs, UTF-8 characters and the BOM.
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 16])
    @pytest.mark.parametrize("filename", CONTENTS)
    def test_same_names_as_whole_file_read(self, tmp_path, monkeypatch, filename, chunk):
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        path = tmp_path / filename
        path.write_bytes(self.CONTENTS[filename].encode("utf-8"))
        expected = whole_file_names(path)
        assert len(expected) >= 3
        assert list(iter_names(path)) == expected
        assert read_input(path) == [NameRecord(name) for name in expected]

    @pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 16])
    def test_invalid_utf8_after_bom_and_lines_reports_file_offset(
        self, tmp_path, monkeypatch, chunk
    ):
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        path = tmp_path / "names.txt"
        data = "\ufeffMary Smith\r\n王青\rJohn\n".encode("utf-8") + b"Br\xffown\n"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        with pytest.raises(NamecensusError, match=f"byte offset {offset}$"):
            list(iter_names(path))

    def test_peak_memory_follows_distinct_names_not_rows(self, tmp_path):
        names = [f"{chr(65 + i // 26)}{chr(97 + i % 26)}ua Zhao" for i in range(200)]

        def peak(repeats):
            path = tmp_path / f"names{repeats}.txt"
            path.write_text("\n".join(names * repeats) + "\n", encoding="utf-8")
            tracemalloc.start()
            try:
                stats = predict_to_results(ENG, CHI, CFG, iter_names(path), tmp_path / "out.csv")
                assert stats.total == 200 * repeats
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # fills the process-wide caches that later runs share
        small, large = peak(50), peak(500)
        assert abs(large - small) <= 0.1 * small


class TestBlocks:
    """A batch is formatted and written in blocks of `batchio._BLOCK` rows;
    the bytes do not depend on where a block ends."""

    NAMES = ["Hua Zhao", "王青", "Hua Zhao", "Gray, Alasdair", "王青", "1234", "Hua Zhao",
             "Zxqv Q", "王青 (Qing Wang)", "Gray, Alasdair"]

    @staticmethod
    def outputs(tmp_path, names):
        path = tmp_path / "out.csv"
        stats = predict_to_results(ENG, CHI, CFG, iter(names), path)
        return path.read_bytes(), stats

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_block_boundaries_give_the_default_bytes(self, tmp_path, monkeypatch, block):
        # Repeats across a boundary, exactly one block, one block plus one row.
        batches = [self.NAMES, self.NAMES[:block], self.NAMES[:block + 1],
                   self.NAMES[-block:] + self.NAMES[:block]]
        want = [self.outputs(tmp_path, names) for names in batches]
        assert want == [oracle_outputs(names) for names in batches]
        monkeypatch.setattr(batchio, "_BLOCK", block)
        for names, expected in zip(batches, want):
            assert self.outputs(tmp_path, names) == expected, names

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_zero_names_leave_out_as_it_was(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(batchio, "_BLOCK", block)
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        with pytest.raises(NamecensusError, match="^cannot aggregate zero predictions$"):
            predict_to_results(ENG, CHI, CFG, iter([]), path)
        with pytest.raises(NamecensusError, match="^cannot aggregate zero predictions$"):
            write_results(iter([]), path)
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]


class TestFourByteCharacters:
    """Rows are kept and written as UTF-8 bytes: names with characters
    outside the BMP, some quoted, give csv.writer's bytes across blocks."""

    NAMES = ["\U00020000青", "王\U00020000, Jr.", 'Hua "😀"', '😀 "Hua" Zhao', '"😀"',
             "😀\U00020000", '青, "😀"', "Ж😀, 青", "Hua Zhao", "\U00020000青"]

    @pytest.mark.parametrize("block", [1, 2, 3, 1024])
    def test_rows_equal_csv_writer_reference(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(batchio, "_BLOCK", block)
        names = self.NAMES + self.NAMES[::-1]
        want = results_csv_oracle(result_rows_oracle(ENG, CHI, CFG, names))
        assert "\U00020000".encode() in want and "😀".encode() in want
        path = tmp_path / "out.csv"
        predict_to_results(ENG, CHI, CFG, iter(names), path)
        assert path.read_bytes() == want


class TestPercentSigns:
    """A block's rows are written by one `bytes % tuple` call: a `%` in a
    name or given name is data, never a format, and item numbers are right
    across every change of digit count and block end."""

    NAMES = ["%d %s", "%s Hua", "%% Zhao", "%(x)s Wang", "%b Li", "Hua%d Zhao", "王青%s",
             '"%d", %s', "% Hua", "%", "Hua Zhao", "%d"]
    # 2,050 rows: items 9/10, 99/100, 999/1000, 1024/1025 and 2048/2049.
    ROWS = 2050

    @pytest.mark.parametrize("block", [1, 2, 3, 1024])
    def test_rows_equal_csv_writer_reference(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(batchio, "_BLOCK", block)
        names = [self.NAMES[i % len(self.NAMES)] for i in range(self.ROWS)]
        want = results_csv_oracle(result_rows_oracle(ENG, CHI, CFG, names))
        assert b"\n1,%d %s,Unknown,,Latin,%d\n" in want
        assert want.endswith(b"\n2049,% Hua,Unknown,,Latin,%\n2050,%,Unknown,,Empty,\n")
        path = tmp_path / "out.csv"
        predict_to_results(ENG, CHI, CFG, iter(names), path)
        assert path.read_bytes() == want


class TestMemoCap:
    """The row memo and the decision memo are cleared at the start of a block
    once the row memo holds more than `batchio._MEMO_ROWS` rows: no byte or
    count changes, and a run's memory stops growing with its distinct names."""

    BATCHES = [
        TestBlocks.NAMES,
        TestFourByteCharacters.NAMES + TestFourByteCharacters.NAMES[::-1],
        [TestPercentSigns.NAMES[i % len(TestPercentSigns.NAMES)]
         for i in range(TestPercentSigns.ROWS)],
    ]

    @staticmethod
    def run(tmp_path, monkeypatch, names):
        """The results bytes, the label counts and the number of names routed."""
        routed = []

        def counting_route(name):
            routed.append(name)
            return route(name)

        monkeypatch.setattr(batchio, "route", counting_route)
        path = tmp_path / "out.csv"
        stats = predict_to_results(ENG, CHI, CFG, iter(names), path)
        return path.read_bytes(), stats, len(routed)

    @pytest.mark.parametrize("block", [1, 3, 1024])
    @pytest.mark.parametrize("cap", [0, 1, 5])
    def test_cap_gives_the_default_bytes_and_counts(self, tmp_path, monkeypatch, cap, block):
        monkeypatch.setattr(batchio, "_BLOCK", block)
        want = [self.run(tmp_path, monkeypatch, names) for names in self.BATCHES]
        assert [routed for _, _, routed in want] == [len(set(names)) for names in self.BATCHES]
        monkeypatch.setattr(batchio, "_MEMO_ROWS", cap)
        for names, (data, stats, _) in zip(self.BATCHES, want):
            got, got_stats, routed = self.run(tmp_path, monkeypatch, names)
            assert (got, got_stats) == (data, stats)
            if cap == 0 and block == 1:  # cleared before every row but the first
                assert routed == len(names)

    # Latin names the corpus lacks, and Han names whose given names differ,
    # each given name a decision key of its own.
    @pytest.mark.parametrize("name", [
        "Hua S{:07d}".format,
        lambda i: f"王娜{chr(0x4E00 + i // 256)}{chr(0x4E00 + i % 256)}",
    ], ids=["latin", "han"])
    def test_peak_memory_stops_growing_past_the_cap(self, tmp_path, monkeypatch, name):
        # Not raising where the constant is missing, so a memo without a cap
        # fails on the peak rather than on the patch.
        monkeypatch.setattr(batchio, "_MEMO_ROWS", 2000, raising=False)
        monkeypatch.setattr(batchio, "_BLOCK", 100)
        monkeypatch.setattr(textio, "_CHUNK", 1 << 12)

        def peak(distinct):
            path = tmp_path / f"names{distinct}.txt"
            path.write_text("".join(f"{name(i)}\n" for i in range(distinct)),
                            encoding="utf-8")
            tracemalloc.start()
            try:
                stats = predict_to_results(ENG, CHI, CFG, iter_names(path), tmp_path / "out.csv")
                assert stats.total == distinct
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # fills the process-wide caches that later runs share
        capped, large = peak(2000), peak(20 * 2000)
        # About 1.15 times for Latin names and 1.2 for Han on Python 3.10 to
        # 3.13: one block's rows past the cap and allocator noise. A row memo
        # that is never cleared peaks about 24 times higher, and a decision
        # memo that is never cleared about 7 times on the Han names.
        assert large <= 2 * capped


class TestPredictToResults:
    def test_names_print_stripped_with_predicts_row(self, tmp_path):
        names = [" Mary Smith ", "\u3000王青 ", "Hua Zhao\t", "王青", " 1234"]
        path = tmp_path / "out.csv"
        stats = predict_to_results(ENG, CHI, CFG, names, path)
        assert (path.read_bytes(), stats) == oracle_outputs(names)
        assert path.read_bytes().splitlines()[1:] == [
            b"1,Mary Smith,Unknown,,Latin,Mary", "2,王青,Unisex,0.5500,Han,青".encode(),
            b"3,Hua Zhao,Female,0.8000,Latin,Hua", "4,王青,Unisex,0.5500,Han,青".encode(),
            b"5,1234,Unknown,,Empty,"]

    # One name or more of each kind: Latin corpus entries, two of them with
    # equal counts; Latin names the corpus lacks, one a quoted field; Han and
    # Mixed names with and without a known character; Empty; Other.
    KINDS = ["Hua Zhao", " HUA Smith", "Jo Brown", "Phil Barker", "Mary Smith", "Zxqv Q",
             "Gray, Alasdair", "王青", "李青娟", "赵乙", "王青 (Qing Wang)", "赵乙 (Yi Zhao)",
             "1234", " ---", "Иван Петров", "Ὅμηρος"]

    # The decision memo shares one key among names without evidence: None for
    # Latin, "" for Empty and Other. No key may merge rows that print differently.
    @pytest.mark.parametrize("config", [
        CFG, ClassifierConfig(priors="uniform"), ClassifierConfig(alpha=0.3),
    ], ids=["default", "uniform", "alpha-0.3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_repeats_equal_oracle(self, tmp_path, config, seed):
        english = CountModel(entries={"hua": (80, 20), "jo": (80, 20), "phil": (0, 160)},
                             total_female=160, total_male=200)
        chinese = CountModel(entries={"青": (55, 45), "娟": (30, 1)},
                             total_female=85, total_male=46)
        rng = random.Random(seed)
        names = [name for name in self.KINDS for _ in range(rng.randint(1, 4))]
        rng.shuffle(names)
        path = tmp_path / "out.csv"
        stats = predict_to_results(english, chinese, config, names, path)
        assert (path.read_bytes(), stats) == oracle_outputs(names, english, chinese, config)


class TestRunBatch:
    def test_order_and_index_preserved(self, tmp_path):
        records = [NameRecord("Hua Zhao"), NameRecord("王青"), NameRecord("x1")]
        preds = run_batch(ENG, CHI, CFG, records)
        assert [p.raw_name for p in preds] == ["Hua Zhao", "王青", "x1"]
        path = tmp_path / "out.csv"
        write_results(preds, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["item"] for r in rows] == ["1", "2", "3"]

    def test_singleton(self):
        assert len(run_batch(ENG, CHI, CFG, [NameRecord("Hua")])) == 1

    def test_bad_records_degrade_to_unknown_not_abort(self):
        records = [NameRecord("####"), NameRecord("Hua Zhao")]
        preds = run_batch(ENG, CHI, CFG, records)
        assert preds[0].label is GenderLabel.UNKNOWN
        assert preds[1].label is GenderLabel.FEMALE

    # Repeats, and names that differ only in surrounding whitespace.
    MEMO_NAMES = ["Hua Zhao", "王青", "Hua Zhao", " Hua Zhao", "1234", "1234 ",
                  "王青", "Zxqv", "Hua Zhao", " 1234", "Zxqv"]

    def test_memo_equals_per_record_predict(self):
        records = [NameRecord(n) for n in self.MEMO_NAMES]
        assert run_batch(ENG, CHI, CFG, records) == [
            run_batch(ENG, CHI, CFG, [r])[0] for r in records
        ]

    def test_predict_called_once_per_distinct_raw_name(self, monkeypatch):
        calls = []
        route = batchio.route

        def counting_route(name):
            calls.append(name)
            return route(name)

        monkeypatch.setattr(batchio, "route", counting_route)
        records = [NameRecord(n) for n in self.MEMO_NAMES]
        preds = run_batch(ENG, CHI, CFG, records)
        # route takes the stripped name, once per distinct raw name.
        assert sorted(calls) == sorted(name.strip() for name in set(self.MEMO_NAMES))
        assert preds[0] is preds[2] is preds[8]
        assert preds[0] is not preds[3]


def _exact_probability(post):
    """The larger share of the weights, rounded half-even in Fractions."""
    share = Fraction(max(post.female, post.male), post.female + post.male)
    return str(Decimal(round(share * 10**4)).scaleb(-4))


def _prediction(name, label, weights=(8, 2)):
    found = label is not GenderLabel.UNKNOWN
    post = Posterior(found, *weights) if found else Posterior(False)
    return Prediction(name, Script.LATIN, name.split()[0].lower() if name else "",
                      post, label)


class TestWriteResults:
    def test_golden_row(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([_prediction("Hua Zhao", GenderLabel.FEMALE, (8, 2))], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "item,name,gender,probability,script,given_name"
        assert lines[1] == "1,Hua Zhao,Female,0.8000,Latin,hua"

    def test_unknown_has_empty_probability(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([_prediction("Zxqv Q", GenderLabel.UNKNOWN)], path)
        assert path.read_text(encoding="utf-8").splitlines()[1].split(",")[3] == ""

    def test_commas_are_quoted_and_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        preds = [
            _prediction("Gray, Alasdair", GenderLabel.MALE, (1, 9)),
            _prediction("Hua Zhao", GenderLabel.FEMALE, (9, 1)),
        ]
        write_results(preds, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["item"], r["name"], r["gender"]) for r in rows] == [
            ("1", "Gray, Alasdair", "Male"),
            ("2", "Hua Zhao", "Female"),
        ]


    def test_write_returns_label_counts(self, tmp_path):
        preds = [_prediction("Hua Zhao", GenderLabel.FEMALE)] * 3 + [
            _prediction("Zxqv Q", GenderLabel.UNKNOWN)
        ]
        assert write_results(iter(preds), tmp_path / "out.csv") == aggregate(preds)

    def test_cr_rows_quoted_in_full_and_read_back(self, tmp_path):
        names = ["Mary\rSmith", "John\nBrown", 'Hua "Q" Zhao', "Gray, Alasdair",
                 "Mary\u2028Smith", "\ufeffHua Zhao", "王\r青", "Hua\r\nZhao"]
        preds = run_batch(ENG, CHI, CFG, [NameRecord(name) for name in names])
        path = tmp_path / "out.csv"
        write_results(preds, path)
        assert list(iter_result_labels(path)) == [pred.label for pred in preds]
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows] == names
        assert path.read_bytes().split(b"\n")[1] == b'1,"Mary\rSmith",Unknown,,Latin,Mary'

    # csv.writer on Python 3.10 refuses a NUL, so the reference drops it there.
    POOL = ',"\r\n \t\ufeff王青娟Иванa' + ("\x00" if sys.version_info >= (3, 11) else "")

    def test_rows_match_csv_writer_reference_and_read_back(self, tmp_path):
        rng = random.Random(2024)

        def text():
            return "".join(rng.choice(self.POOL) for _ in range(rng.randint(0, 6)))

        preds = []
        for _ in range(3000):
            label = rng.choice(list(GenderLabel))
            found = label is not GenderLabel.UNKNOWN
            weights = rng.randint(0, 10**4), rng.randint(1, 10**4)
            post = Posterior(True, *weights) if found else Posterior(False)
            preds.append(Prediction(text(), rng.choice(list(Script)), text(), post, label))
        path = tmp_path / "out.csv"
        write_results(preds, path)
        assert path.read_bytes() == results_csv_oracle([
            [item, pred.raw_name, pred.label.value,
             _exact_probability(pred.posterior) if pred.posterior.evidence_found else "",
             pred.script.value, pred.given]
            for item, pred in enumerate(preds, start=1)
        ])
        assert list(iter_result_labels(path)) == [pred.label for pred in preds]

    def test_failed_batch_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")

        def failing():
            yield _prediction("Hua Zhao", GenderLabel.FEMALE)
            raise ValueError("mid-batch")

        with pytest.raises(ValueError, match="mid-batch"):
            write_results(failing(), path)
        with pytest.raises(NamecensusError, match="^cannot aggregate zero predictions$"):
            write_results([], path)
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "results.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_results([_prediction("Hua Zhao", GenderLabel.FEMALE)], fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"item,name,gender,probability,script,given_name\n"
                       b"1,Hua Zhao,Female,0.8000,Latin,hua\n"]
        assert list(tmp_path.iterdir()) == [fifo] and fifo.is_fifo()


class TestReadResultLabels:
    @pytest.mark.parametrize("data, message", [
        (b"item,name,gender\n1,Hua Zhao,Female\n2,\xff,Male\n",
         "3: invalid UTF-8 at byte offset 37"),
        (b"item,name,gender\n1,Hua Zhao,Female\n2," + b"x" * 200_000 + b",Male\n",
         "3: field larger than field limit (131072)"),
    ], ids=["bad-byte", "field-limit"])
    def test_bad_file_names_file_and_line(self, tmp_path, data, message):
        path = tmp_path / "results.csv"
        path.write_bytes(data)
        with pytest.raises(NamecensusError) as exc:
            list(iter_result_labels(path))
        assert str(exc.value) == f"{path}:{message}"

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        """chart counts the labels as it reads them: no list of rows or labels."""
        labels = [label.value for label in GenderLabel]

        def peak(rows):
            path = tmp_path / f"results{rows}.csv"
            path.write_text("item,name,gender\n" + "".join(
                f"{i},Hua S{i:07d},{labels[i % 4]}\n" for i in range(1, rows + 1)),
                encoding="utf-8")
            tracemalloc.start()
            try:
                assert aggregate_labels(iter_result_labels(path)).total == rows
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # fills the process-wide caches that later runs share
        small, large = peak(2000), peak(20 * 2000)
        assert large <= 2 * small


class TestAggregate:
    def test_counts_and_percentages(self):
        preds = (
            [_prediction("a b", GenderLabel.MALE) for _ in range(6)]
            + [_prediction("a b", GenderLabel.FEMALE) for _ in range(3)]
            + [_prediction("a b", GenderLabel.UNISEX, (55, 45))]
        )
        stats = aggregate(preds)
        assert stats.total == 10
        assert stats.counts[GenderLabel.MALE] == 6
        assert stats.percentages[GenderLabel.MALE] == pytest.approx(60.0)
        assert stats.percentages[GenderLabel.UNKNOWN] == 0.0

    def test_all_unknown(self):
        stats = aggregate([_prediction("x y", GenderLabel.UNKNOWN) for _ in range(4)])
        assert stats.percentages[GenderLabel.UNKNOWN] == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(NamecensusError, match="^cannot aggregate zero predictions$"):
            aggregate([])

    def test_percentages_sum_property(self):
        rng = random.Random(11)
        labels = list(GenderLabel)
        for _ in range(200):
            preds = [
                _prediction("a b", rng.choice(labels))
                for _ in range(rng.randint(1, 40))
            ]
            stats = aggregate(preds)
            assert sum(stats.percentages.values()) == pytest.approx(100.0, abs=0.01)
            assert sum(stats.counts.values()) == stats.total
