import random
import time

import pytest
from oracles import english_model_oracle

from namecensus import corpus, textio
from namecensus.corpus import (
    CountModel,
    load_chinese_charfreq,
    load_english_year_files,
    normalize_name_key,
)
from namecensus.errors import NamecensusError


def write_years(tmp_path, files):
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tmp_path


def test_from_entries_sums_class_totals():
    model = CountModel.from_entries({"mary": (20, 1), "娟": (3, 0), "刚": (0, 9)})
    assert (model.total_female, model.total_male) == (23, 10)
    assert CountModel.from_entries({}) == CountModel({}, 0, 0)


class TestEnglishCorpus:
    def test_counts_sum_across_years(self, tmp_path):
        write_years(tmp_path, {
            "yob2014.txt": ["Mary,F,10"],
            "yob2015.txt": ["Mary,F,10"],
        })
        model = load_english_year_files(tmp_path)
        assert model.entries == {"mary": (20, 0)}
        assert model.total_female == 20
        assert len(model.entries) == 1

    def test_both_sexes_one_entry(self, tmp_path):
        write_years(tmp_path, {"yob2015.txt": ["Jordan,F,3", "Jordan,M,7"]})
        model = load_english_year_files(tmp_path)
        assert model.entries == {"jordan": (3, 7)}

    def test_keys_case_folded(self, tmp_path):
        write_years(tmp_path, {"yob2015.txt": ["MARY,F,5", "mary,F,5"]})
        assert load_english_year_files(tmp_path).entries == {"mary": (10, 0)}

    def test_leading_bom_ignored(self, tmp_path):
        (tmp_path / "yob2015.txt").write_bytes(b"\xef\xbb\xbfMary,F,10\nMary,F,5\n")
        assert load_english_year_files(tmp_path).entries == {"mary": (15, 0)}

    def test_crlf_endings_accepted(self, tmp_path):
        (tmp_path / "yob2015.txt").write_bytes(b"Mary,F,10\r\nJohn,M,4\r\n")
        model = load_english_year_files(tmp_path)
        assert model.entries["john"] == (0, 4)

    def test_order_independence(self, tmp_path):
        rows = [f"Name{c},{s},{n}" for c, s, n in
                [("a", "F", 3), ("b", "M", 9), ("a", "M", 2), ("c", "F", 7)]]
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        write_years(a_dir, {"yob2014.txt": rows[:2], "yob2015.txt": rows[2:]})
        shuffled = list(reversed(rows))
        write_years(b_dir, {"yob2014.txt": shuffled[:1], "yob2015.txt": shuffled[1:]})
        assert load_english_year_files(a_dir) == load_english_year_files(b_dir)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(NamecensusError, match="not found"):
            load_english_year_files(tmp_path / "nope")

    def test_no_matching_files(self, tmp_path):
        (tmp_path / "names.txt").write_text("Mary,F,10\n")
        with pytest.raises(NamecensusError, match="no yob"):
            load_english_year_files(tmp_path)

    @pytest.mark.parametrize("bad_line,message", [
        ("Mary,F", "3 comma-separated fields"),
        ("Mary,X,3", "sex must be F or M"),
        ("Mary,F,three", "not an integer"),
        ("Mary,F,5" + "0" * 5000, r": count has too many digits \(5001\)$"),  # past int()'s limit
        ("Mary,F,0", "count must be >= 1"),
        ("Mar7y,F,3", "bad name"),
        ("Ann²,F,3", "bad name"),
        ("Ann٣,F,3", "bad name"),
        # route splits given names at whitespace, so such a key could never be looked up.
        ("Mary Jane,F,3", "bad name field 'Mary Jane'"),
        (" Mary,F,3", "bad name field ' Mary'"),
        ("Mary\t,F,3", r"bad name field 'Mary\\t'"),
        ("Mary\xa0,F,3", r"bad name field 'Mary\\xa0'"),
    ])
    def test_malformed_rows_name_file_and_line(self, tmp_path, bad_line, message):
        write_years(tmp_path, {"yob2015.txt": ["Anne,F,2", bad_line]})
        with pytest.raises(NamecensusError, match=message) as exc:
            load_english_year_files(tmp_path)
        assert "yob2015.txt:2" in str(exc.value)

    # A 1- or 3-byte chunk reads about one line per block, so the count runs across blocks.
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_cr_line_ends_number_the_bad_line(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        path = tmp_path / "yob2000.txt"
        path.write_bytes(b"Mary,F,5\rJohn,M,3\r\rAnne,F\rJo,M,2\r")
        with pytest.raises(NamecensusError) as exc:
            load_english_year_files(tmp_path)
        assert str(exc.value) == f"{path}:4: expected 3 comma-separated fields, got 2"

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "yob2000.txt"
        path.write_bytes(b"Mary,F,5\r\nJos\xe9,M,3\n")
        with pytest.raises(NamecensusError) as exc:
            load_english_year_files(tmp_path)
        assert str(exc.value) == f"{path}:2: invalid UTF-8 at byte offset 13"

    def test_ssa_blocks_skip_the_line_check(self, tmp_path, monkeypatch):
        checked, check = [], corpus._checked_rows
        monkeypatch.setattr(corpus, "_checked_rows", lambda lines, path, lineno: checked.append(
            path.name) or check(lines, path, lineno))
        write_years(tmp_path, {"yob2014.txt": ["Mary,F,10", "", "JOHN,M,4"],
                               "yob2015.txt": ["Zoë,F,2", "Mary,M,1"]})
        model = load_english_year_files(tmp_path)
        assert list(model.entries.items()) == [
            ("mary", (10, 1)), ("john", (0, 4)), ("zoë", (2, 0))]
        assert checked == ["yob2015.txt"]  # its non-ASCII name

    def test_downstream_probabilities_sum_to_one(self, tmp_path):
        rng = random.Random(3)
        lines = [
            f"N{chr(97 + i)},{s},{rng.randint(1, 50)}"
            for i in range(20) for s in ("F", "M")
        ]
        write_years(tmp_path, {"yob2015.txt": lines})
        model = load_english_year_files(tmp_path)
        for female, male in model.entries.values():
            total = female + male
            assert (female / total) + (male / total) == pytest.approx(1.0)


# Names of every kind the loader takes: ASCII in any case, a decomposed é,
# a ligature whose case fold is ASCII ("ffi"), and punctuation.
NAMES = ["Mary", "MARY", "mary", "mAry", "John", "Ffi", "ffi", "José", "Jose\u0301",
         "Zoë", "\ufb03", "Ann-Marie", "Jo"]
COUNTS = ["1", "5", "17", "250", "05", "+5", "1_0"]


def random_year_file(rng, lines):
    """Bytes of a yob file: rows drawn from NAMES and COUNTS, duplicates,
    blank lines and now and then a bad line among them, each line ended by
    LF, CRLF or CR."""
    plain = rng.random() < 0.5  # ASCII names and plain counts only
    out = []
    for _ in range(lines):
        draw = rng.random()
        if draw < 0.1:
            row = ""
        elif draw < 0.11:
            row = rng.choice(["Mary,F", "Mary Jane,F,3", "Mary,F,0", "Mary,f,3"])
        else:
            names = NAMES[:5] + NAMES[-1:] if plain else NAMES
            count = rng.choice(COUNTS[:4] if plain else COUNTS)
            row = f"{rng.choice(names)},{rng.choice('FM')},{count}"
        out.append(row + rng.choice(["\n", "\r\n", "\r"]))
    bom = "\ufeff" if rng.random() < 0.2 else ""
    return (bom + "".join(out)).encode("utf-8")


def outcome(load, directory):
    """The model with its key order, or the error string."""
    try:
        model = load(directory)
    except NamecensusError as exc:
        return str(exc)
    return model, list(model.entries)


class TestEnglishOracle:
    """load_english_year_files against the line-by-line oracle."""

    @pytest.mark.parametrize("chunk", [1, 3, 64, 1 << 16])
    def test_random_directories_equal_oracle(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        rng = random.Random(23)
        for trial in range(40):
            directory = tmp_path / str(trial)
            directory.mkdir()
            for year in rng.sample(range(2000, 2010), rng.randint(1, 3)):
                (directory / f"yob{year}.txt").write_bytes(
                    random_year_file(rng, rng.randint(0, 40)))
            assert outcome(load_english_year_files, directory) == outcome(
                english_model_oracle, directory)

    @pytest.mark.parametrize("bad_line", [
        "Mary,F", "Mary,X,3", "Mary Jane,F,3", "Mary,F,0", "Mary,F,x", "Mary,f,3",
        "mary,F,5" + "0" * 5000,  # past int()'s limit on digits
    ], ids=["fields", "sex", "space", "zero", "count", "lower-sex", "long-count"])
    def test_bad_line_in_a_later_block_equals_oracle(self, tmp_path, bad_line):
        rng = random.Random(5)
        rows = [f"{rng.choice(NAMES[:5])},{rng.choice('FM')},{rng.randint(1, 999)}"
                for _ in range(20_000)]  # about 200 KiB: four blocks
        rows.insert(15_000, bad_line)
        path = tmp_path / "yob2001.txt"
        path.write_bytes("\r\n".join(rows).encode("utf-8"))
        with pytest.raises(NamecensusError) as expected:
            english_model_oracle(tmp_path)
        with pytest.raises(NamecensusError) as got:
            load_english_year_files(tmp_path)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"{path}:15001: ")

    # A bad last line fails the block's regex at its very end; the regex
    # must give up in one pass, not retry the rows before it.
    @pytest.mark.parametrize("bad_line", [
        "Mary,F,5x", "Mary,F,5" + "5" * 30 + "x", "Mary,F,", "Mary" * 2000, "Mary,F,5,",
    ], ids=["count", "long-count", "no-count", "long-name", "four-fields"])
    def test_block_with_a_bad_last_line_costs_no_more_than_the_line_check(
            self, tmp_path, bad_line):
        rows = ["Mary,F,5"] * ((1 << 16) // 9)  # 64 KiB, then the bad line
        (tmp_path / "yob2001.txt").write_text("\n".join(rows + [bad_line]), encoding="utf-8")

        def best(load):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                with pytest.raises(NamecensusError):
                    load(tmp_path)
                times.append(time.perf_counter() - start)
            return min(times)

        # The block path runs the regex, then the line check, and still costs
        # less than the oracle's line check (about 0.7 of it); the margin is
        # for a shared host's noise. Backtracking would cost seconds.
        assert best(load_english_year_files) <= 1.5 * best(english_model_oracle)


class TestChineseCorpus:
    def write(self, tmp_path, lines):
        path = tmp_path / "chars.csv"
        path.write_text("\n".join(["char,female,male"] + lines) + "\n", encoding="utf-8")
        return path

    def test_single_row(self, tmp_path):
        model = load_chinese_charfreq(self.write(tmp_path, ["娟,3,1"]))
        assert len(model.entries) == 1
        assert (model.total_female, model.total_male) == (3, 1)

    def test_column_sums(self, tmp_path):
        model = load_chinese_charfreq(self.write(tmp_path, ["娟,3,1", "刚,1,9"]))
        assert (model.total_female, model.total_male) == (4, 10)
        assert len(model.entries) == 2

    def test_header_only_is_valid_empty_model(self, tmp_path):
        model = load_chinese_charfreq(self.write(tmp_path, []))
        assert len(model.entries) == 0

    def test_duplicate_character(self, tmp_path):
        with pytest.raises(NamecensusError, match="duplicate"):
            load_chinese_charfreq(self.write(tmp_path, ["娟,3,1", "娟,1,1"]))

    def test_non_han_key(self, tmp_path):
        with pytest.raises(NamecensusError, match="Han character"):
            load_chinese_charfreq(self.write(tmp_path, ["a,3,1"]))

    def test_negative_count(self, tmp_path):
        with pytest.raises(NamecensusError, match="negative"):
            load_chinese_charfreq(self.write(tmp_path, ["娟,-3,1"]))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "chars.csv"
        path.write_text("character,f,m\n娟,3,1\n", encoding="utf-8")
        with pytest.raises(NamecensusError, match="header"):
            load_chinese_charfreq(path)

    def test_leading_bom_ignored(self, tmp_path):
        path = tmp_path / "chars.csv"
        path.write_text("\ufeffchar,female,male\n娟,3,1\n", encoding="utf-8")
        assert load_chinese_charfreq(path).entries == {"娟": (3, 1)}

    def test_field_over_limit_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path, ["娟,3,1", "x" * 200_000 + ",1,2"])
        with pytest.raises(NamecensusError) as exc:
            load_chinese_charfreq(path)
        assert str(exc.value) == f"{path}:3: field larger than field limit (131072)"

    @pytest.mark.parametrize("row, fault", [
        ("娟,3,x", "non-integer count"),
        ("娟,3," + "1" * 5000, "count has too many digits"),  # past int()'s limit on digits
        ("娟,3", "expected 3 columns, got 2"),
        ("娟,3,1,0", "expected 3 columns, got 4"),
    ])
    def test_bad_count_is_a_short_line(self, tmp_path, row, fault):
        path = self.write(tmp_path, [row])
        with pytest.raises(NamecensusError) as exc:
            load_chinese_charfreq(path)
        assert str(exc.value) == f"{path}:2: {fault}"

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "chars.csv"
        path.write_bytes(b"char,female,male\n\xff\xfe,1,2\n")
        with pytest.raises(NamecensusError, match="UTF-8"):
            load_chinese_charfreq(path)


def test_normalize_name_key_composes_and_casefolds():
    assert normalize_name_key("José") == "josé"
    assert normalize_name_key("MARY") == "mary"
