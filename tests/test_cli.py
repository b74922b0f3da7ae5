import csv
import dataclasses
import errno
import hashlib
import json
import os
import resource
import stat
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from namecensus import batchio
from namecensus.batchio import iter_names, iter_result_labels
from namecensus.cache import FORMAT_VERSION, MAGIC, load_cache, save_cache
from namecensus.classifier import ClassifierConfig, decide, route
from namecensus.cli import main
from namecensus.corpus import CountModel
import corpusgen
from oracles import decision_oracle, result_rows_oracle, results_csv_oracle

CACHE_HEADER_SIZE = len(MAGIC) + 4 + 32 + 4 + 8  # magic, version, source digest, CRC-32, length


@pytest.fixture()
def mini_corpus(tmp_path):
    english = tmp_path / "english"
    english.mkdir()
    (english / "yob2014.txt").write_text(
        "Hua,F,80\nJordan,F,3\nPhil,M,160\n", encoding="utf-8"
    )
    (english / "yob2015.txt").write_text(
        "Hua,M,20\nJordan,M,7\nPhil,M,160\n", encoding="utf-8"
    )
    chinese = tmp_path / "chars.csv"
    chinese.write_text(
        "char,female,male\n娟,30,1\n刚,1,30\n青,55,45\n", encoding="utf-8"
    )
    return english, chinese


@pytest.fixture()
def mini_cache(tmp_path, mini_corpus):
    english, chinese = mini_corpus
    cache = tmp_path / "models.ncm"
    code = main([
        "build-cache", "--english-dir", str(english),
        "--chinese-csv", str(chinese), "--out", str(cache),
    ])
    assert code == 0
    return cache


sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import workloads  # noqa: E402 - the benchmark's input generators


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestBuildCache:
    def test_reports_counts(self, tmp_path, mini_corpus, capsys):
        english, chinese = mini_corpus
        cache = tmp_path / "m.ncm"
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "english distinct names: 3" in out
        assert "chinese distinct characters: 3" in out
        assert cache.exists()

    def test_up_to_date_skip(self, mini_corpus, mini_cache, capsys):
        english, chinese = mini_corpus
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(mini_cache)]) == 0
        assert "cache up to date" in capsys.readouterr().out

    def test_rebuild_after_corpus_change(self, mini_corpus, mini_cache, capsys):
        english, chinese = mini_corpus
        (english / "yob2016.txt").write_text("Anne,F,9\n", encoding="utf-8")
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(mini_cache)]) == 0
        assert "english distinct names: 4" in capsys.readouterr().out

    @pytest.mark.parametrize("old_version", [1, 2, 3, 4])
    def test_rebuilds_old_cache(self, mini_corpus, mini_cache, capsys, old_version):
        english, chinese = mini_corpus
        blob = bytearray(mini_cache.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), old_version)
        mini_cache.write_bytes(bytes(blob))
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(mini_cache)]) == 0
        assert "wrote cache" in capsys.readouterr().out
        load_cache(mini_cache)
        assert FORMAT_VERSION == 5

    @pytest.mark.parametrize("content", [b"Hua Zhao\nPhil Barker\n", b"", b"NCM"],
                             ids=["name-list", "empty", "short"])
    def test_out_that_is_not_a_cache_is_kept(self, tmp_path, mini_corpus, capsys, content):
        english, chinese = mini_corpus
        out = tmp_path / "keep.txt"
        out.write_bytes(content)
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: not a model cache (magic {content[:4]!r})\n")
        assert out.read_bytes() == content

    def test_rebuilds_cache_cut_inside_its_header(self, mini_corpus, mini_cache, capsys):
        english, chinese = mini_corpus
        mini_cache.write_bytes(mini_cache.read_bytes()[:10])
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(mini_cache)]) == 0
        assert "wrote cache" in capsys.readouterr().out
        load_cache(mini_cache)

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:-1] + bytes([blob[-1] ^ 0xFF]),
        lambda blob: blob[:CACHE_HEADER_SIZE],
    ], ids=["flipped-last-byte", "cut-to-header"])
    def test_rebuilds_cache_that_fails_a_check(self, mini_corpus, mini_cache, capsys, corrupt):
        english, chinese = mini_corpus
        good = mini_cache.read_bytes()
        mini_cache.write_bytes(corrupt(good))
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(mini_cache)]) == 0
        assert "wrote cache" in capsys.readouterr().out
        assert mini_cache.read_bytes() == good
        load_cache(mini_cache)

    def test_count_past_int64_names_the_cache(self, tmp_path, mini_corpus, capsys):
        english, chinese = mini_corpus
        (english / "yob2016.txt").write_text("Mary,F,99999999999999999999999\n",
                                             encoding="utf-8")
        cache = tmp_path / "m.ncm"
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(cache)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cache}: cannot cache model: a count is outside the int64 range\n")
        assert not cache.exists()

    def test_missing_directory_exit_1(self, tmp_path, capsys):
        code = main(["build-cache", "--english-dir", str(tmp_path / "nope"),
                     "--chinese-csv", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path / "m.ncm")])
        assert code == 1
        assert "nope" in capsys.readouterr().err


class TestPredict:
    def test_end_to_end(self, tmp_path, mini_cache, capsys):
        infile = tmp_path / "names.txt"
        infile.write_text("Hua Zhao\n王娟\nZxqv Q\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        code = main(["predict", "--cache", str(mini_cache),
                     "--in", str(infile), "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert [r["gender"] for r in rows] == ["Female", "Female", "Unknown"]
        assert rows[0]["probability"] == "0.8000"
        assert rows[2]["probability"] == ""
        stdout = capsys.readouterr().out
        assert "names/s" in stdout
        assert "total names: 3" in stdout

    def test_threshold_flag_widens_unisex_band(self, tmp_path, mini_cache):
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        main(["predict", "--cache", str(mini_cache), "--in", str(infile),
              "--out", str(out)])
        assert read_rows(out)[0]["gender"] == "Male"  # 0.7 male
        main(["predict", "--cache", str(mini_cache), "--in", str(infile),
              "--out", str(out), "--threshold", "0.9"])
        assert read_rows(out)[0]["gender"] == "Unisex"

    def test_config_file_with_flag_override(self, tmp_path, mini_cache):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threshold": 0.9, "priors": "uniform"}', encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        main(["predict", "--cache", str(mini_cache), "--in", str(infile),
              "--out", str(out), "--config", str(cfg)])
        assert read_rows(out)[0]["gender"] == "Unisex"
        main(["predict", "--cache", str(mini_cache), "--in", str(infile),
              "--out", str(out), "--config", str(cfg), "--threshold", "0.6"])
        # Uniform priors from the file still apply: (3/83) / (3/83 + 7/347) = 0.642.
        assert read_rows(out)[0]["gender"] == "Female"

    @pytest.mark.parametrize("content, message", [
        ("[1]", "config must be a JSON object"),
        ('{"threshold": "0.7"}', "config key 'threshold': threshold must be a float, got '0.7'"),
        ('{"treshold": 0.7}', "unknown config key 'treshold'"),
        ('{"priors": "bogus"}',
         "config key 'priors': priors must be empirical or uniform: 'bogus'"),
        ('{"priors": "bogus\\nx"}',  # quoted: a line break cannot split the error line
         "config key 'priors': priors must be empirical or uniform: 'bogus\\nx'"),
        ('{"threshold": 1.5}', "config key 'threshold': need 0.5 <= threshold < 1, got 1.5"),
        ('{"threshold": 0.55, "unisex_floor": 0.58}', "unknown config key 'unisex_floor'"),
        ('{"unisex_floor": 0.4}', "unknown config key 'unisex_floor'"),
        ('{"alpha": 0}', "config key 'alpha': alpha must be a finite positive int or float: 0"),
        ('{"alpha": NaN}',
         "config key 'alpha': alpha must be a finite positive int or float: nan"),
        ('{"alpha": Infinity}',
         "config key 'alpha': alpha must be a finite positive int or float: inf"),
        ('{"alpha": true}',
         "config key 'alpha': alpha must be a finite positive int or float: True"),
        ('{"priors": 5}', "config key 'priors': priors must be empirical or uniform: 5"),
        ('{"alpha": ', "Expecting value: line 1 column 11 (char 10)"),
    ])
    def test_bad_config_exit_1(self, tmp_path, mini_cache, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content, encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    # A file value is checked even where a flag overrides it.
    def test_bad_config_value_overridden_by_a_flag_exit_1(self, tmp_path, mini_cache, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threshold": 1.5}', encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--config", str(cfg), "--threshold", "0.7"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: config key 'threshold': ")
        assert err.count("\n") == 1
        assert not out.exists()

    # json.loads keeps a repeated key's last value, which would run at 0.5 unannounced.
    @pytest.mark.parametrize("content, key", [
        ('{"threshold": 0.9, "threshold": 0.5}', "threshold"),
        ('{"alpha": 1.0, "priors": "uniform", "alpha": 1.0}', "alpha"),
    ])
    def test_repeated_config_key_exit_1(self, tmp_path, mini_cache, capsys, content, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content, encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: duplicate config key {key!r}\n"
        assert not out.exists()

    # ClassifierConfig checks flags too: --priors is no argparse choice, so a
    # bad value is one line and exit 1, as a bad file value is.
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--threshold", "1.0", "need 0.5 <= threshold < 1, got 1.0"),
        ("--threshold", "0.4", "need 0.5 <= threshold < 1, got 0.4"),
        ("--alpha", "0", "alpha must be a finite positive int or float: 0.0"),
        ("--priors", "bogus", "priors must be empirical or uniform: 'bogus'"),
    ])
    def test_bad_flag_value_names_the_flag(self, tmp_path, mini_cache, capsys, command, flag,
                                           value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threshold": 0.9}', encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        gold = tmp_path / "gold.csv"
        gold.write_text("name,gender\nJordan Smith,Male\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        flags = (["--in", str(infile), "--out", str(out)] if command == "predict"
                 else ["--gold", str(gold)])
        code = main([command, "--cache", str(mini_cache), "--config", str(cfg), *flags,
                     flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_flag_exit_1(self, tmp_path, mini_cache, capsys, value):
        infile = tmp_path / "names.txt"
        infile.write_text("王青\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), f"--alpha={value}"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --alpha: alpha must be a finite positive int or float: {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "5e-324"])
    def test_extreme_alpha_rows_match_oracle(self, tmp_path, mini_cache, value):
        # 龘 is not in the corpus, so its smoothed likelihood is alpha / denom,
        # which overflows (1e308) or underflows (5e-324) as a float.
        infile = tmp_path / "names.txt"
        infile.write_text("王龘青\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), f"--alpha={value}"]) == 0
        cache, rows = load_cache(mini_cache), read_rows(out)
        assert [(row["gender"], row["probability"]) for row in rows] == [
            decision_oracle(cache.english.entries, cache.chinese.entries, "Han", "龘青",
                            alpha=float(value))]

    def test_huge_integer_alpha_in_config_rows_match_oracle(self, tmp_path, mini_cache):
        # JSON keeps an integer exact, past any float; it is scored as that integer.
        alpha = 10**400
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"alpha": {alpha}}}', encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("王龘青\n王娟\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--config", str(cfg)]) == 0
        cache, rows = load_cache(mini_cache), read_rows(out)
        assert [(row["gender"], row["probability"]) for row in rows] == [
            decision_oracle(cache.english.entries, cache.chinese.entries, "Han", given,
                            alpha=alpha) for given in ("龘青", "娟")]

    def test_alpha_out_of_range_without_corpus_character_exit_0(self, tmp_path, mini_cache):
        # 王龘's given name has no corpus character, so it is Unknown at any
        # alpha, even one whose float likelihood would overflow or underflow.
        infile = tmp_path / "names.txt"
        infile.write_text("王龘\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        for value in ("1e308", "5e-324"):
            assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                         "--out", str(out), f"--alpha={value}"]) == 0
            assert read_rows(out)[0]["gender"] == "Unknown"

    def test_config_file_with_bom(self, tmp_path, mini_cache):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('\ufeff{"threshold": 0.9}', encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--config", str(cfg)]) == 0
        assert read_rows(out)[0]["gender"] == "Unisex"  # 0.7 male, under 0.9

    def test_summary_lines_in_label_order(self, tmp_path, mini_cache, capsys):
        infile = tmp_path / "names.txt"
        # Unknown, Unisex, Male, Female: the reverse of the printed order.
        infile.write_text("Zxqv Q\n王青\n王刚\n王娟\n", encoding="utf-8")
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(tmp_path / "o.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:5]] == [
            "Female", "Male", "Unisex", "Unknown"]

    def test_chart_emission(self, tmp_path, mini_cache):
        infile = tmp_path / "names.txt"
        infile.write_text("Hua Zhao\n王刚\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        chart_json = tmp_path / "chart.json"
        chart_svg = tmp_path / "chart.svg"
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--chart-json", str(chart_json),
                     "--chart-svg", str(chart_svg)])
        assert code == 0
        assert chart_json.exists() and chart_svg.exists()

    @pytest.mark.parametrize("flag", ["--chart-json", "--chart-svg"])
    def test_chart_flag_alone_exit_1_before_predicting(self, tmp_path, mini_cache,
                                                       capsys, flag):
        infile = tmp_path / "names.txt"
        infile.write_text("Hua Zhao\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), flag, str(tmp_path / "chart")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --chart-json and --chart-svg go together\n"
        assert captured.out == ""
        assert not out.exists()

    def test_uniform_priors_reweight_latin_names(self, tmp_path, mini_cache):
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\nHua Zhao\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        main(["predict", "--cache", str(mini_cache), "--in", str(infile), "--out", str(out)])
        assert [(r["gender"], r["probability"]) for r in read_rows(out)] == [
            ("Male", "0.7000"), ("Female", "0.8000")]
        main(["predict", "--cache", str(mini_cache), "--in", str(infile), "--out", str(out),
              "--priors", "uniform"])
        # Class totals 83 female, 347 male: (3/83) / (3/83 + 7/347), (80/83) / (...).
        assert [(r["gender"], r["probability"]) for r in read_rows(out)] == [
            ("Female", "0.6418"), ("Female", "0.9436")]

    def test_csv_input_with_name_column(self, tmp_path, mini_cache):
        infile = tmp_path / "names.csv"
        infile.write_text("id,author\n7,Phil Barker\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        main(["predict", "--cache", str(mini_cache), "--in", str(infile),
              "--out", str(out), "--name-column", "author"])
        assert read_rows(out)[0]["gender"] == "Male"

    @pytest.mark.parametrize("suffix, flags, named", [
        (".txt", ["--name-column", "nosuch"], "--name-column"),
        (".txt", ["--name-column", "name"], "--name-column"),
        (".txt", ["--no-header"], "--no-header"),
        (".csv", ["--format", "txt", "--no-header"], "--no-header"),
    ])
    def test_csv_flags_on_txt_input_exit_1(self, tmp_path, mini_cache, capsys, suffix, flags,
                                           named):
        infile = tmp_path / f"names{suffix}"
        infile.write_text("Phil Barker\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), *flags])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {named} applies to CSV input only; {infile} is read as txt\n")
        assert not out.exists()

    def test_no_header_csv_by_index(self, tmp_path, mini_cache):
        infile = tmp_path / "names.csv"
        infile.write_text("7,Phil Barker\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--no-header", "--name-column", "1"]) == 0
        assert read_rows(out)[0]["gender"] == "Male"

    # Only ASCII digits are an index: int() would read "٣" as 3 and fail on "²".
    @pytest.mark.parametrize("column", ["٣", "²"])
    def test_non_ascii_digits_name_a_header_column(self, tmp_path, mini_cache, capsys,
                                                   column):
        infile = tmp_path / "names.csv"
        infile.write_text("a,b,c,d\n1,2,3,Phil Barker\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--name-column", column]) == 1
        assert capsys.readouterr().err == (
            f"error: {infile}:1: no column {column!r} in header ['a', 'b', 'c', 'd']\n")
        assert not out.exists()
        infile.write_text(f"a,b,c,{column},e\n1,2,3,Phil Barker,Hua Zhao\n", encoding="utf-8")
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), "--name-column", column]) == 0
        assert read_rows(out)[0]["name"] == "Phil Barker"

    def test_byte_identical_reruns(self, tmp_path, mini_cache):
        infile = tmp_path / "names.txt"
        infile.write_text("Hua Zhao\n王娟\n王青\n", encoding="utf-8")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                  "--out", str(out)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_cache_env_var_default(self, tmp_path, mini_cache, monkeypatch):
        monkeypatch.setenv("NAMECENSUS_CACHE", str(mini_cache))
        infile = tmp_path / "names.txt"
        infile.write_text("Hua Zhao\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--in", str(infile), "--out", str(out)]) == 0

    def test_no_cache_flag_or_env_var_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NAMECENSUS_CACHE", raising=False)
        infile = tmp_path / "names.txt"
        infile.write_text("Hua Zhao\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--in", str(infile), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: missing required flag --cache\n"
        assert not out.exists()

    @pytest.mark.parametrize("content, flags, fault", [
        ("", [], "empty input"),
        ("name\nHua Zhao\n", ["--no-header", "--name-column", "name"],
         "name column 'name' needs a header row"),
    ], ids=["empty-file", "name-column-without-header"])
    def test_unreadable_csv_input_exit_1(self, tmp_path, mini_cache, capsys, content, flags,
                                         fault):
        infile = tmp_path / "names.csv"
        infile.write_text(content, encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {infile}: {fault}\n"
        assert not out.exists()

    def test_names_with_line_breaks_read_back_in_order(self, tmp_path, mini_cache, capsys):
        names = ["Hua\rZhao", "Mary\rSmith", "王\r娟", "Phil\nBarker", 'Jordan "J" Q',
                 "Gray, Alasdair", "Hua\u2028Zhao", "\ufeffPhil Barker", "Hua Zhao"]
        infile = tmp_path / "names.csv"
        with open(infile, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
                [["name"]] + [[name] for name in names])
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out)]) == 0
        cache = load_cache(mini_cache)
        assert list(iter_result_labels(out)) == [
            decide(cache.english, cache.chinese, ClassifierConfig(), *route(name.strip()))[1]
            for name in names
        ]
        capsys.readouterr()
        assert main(["chart", "--results", str(out), "--json", str(tmp_path / "c.json"),
                     "--svg", str(tmp_path / "c.svg")]) == 0
        assert f"total names: {len(names)}\n" in capsys.readouterr().out

    def test_nul_in_name_written_unquoted(self, tmp_path, mini_cache):
        infile = tmp_path / "names.txt"
        infile.write_bytes(b"Mary\x00Ann Smith\nPhil Barker\n")
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"item,name,gender,probability,script,given_name\n"
            b"1,Mary\x00Ann Smith,Unknown,,Latin,Mary\x00Ann\n"
            b"2,Phil Barker,Male,1.0000,Latin,Phil\n"
        )

    def test_nul_in_csv_by_python_version(self, tmp_path, mini_cache, capsys):
        # csv.reader reads a NUL from Python 3.11 on; 3.10's refuses it.
        txt, csv_in = tmp_path / "names.txt", tmp_path / "names.csv"
        txt.write_bytes(b"Mary\x00Ann Smith\nPhil Barker\n")
        csv_in.write_bytes(b"name\nMary\x00Ann Smith\nPhil Barker\n")
        results, csv_results = tmp_path / "results.csv", tmp_path / "csv_results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(txt),
                     "--out", str(results)]) == 0
        capsys.readouterr()
        predict_csv = ["predict", "--cache", str(mini_cache), "--in", str(csv_in),
                       "--out", str(csv_results)]
        chart = ["chart", "--results", str(results), "--json", str(tmp_path / "c.json"),
                 "--svg", str(tmp_path / "c.svg")]
        if sys.version_info >= (3, 11):
            assert main(predict_csv) == 0
            assert csv_results.read_bytes() == results.read_bytes()
            capsys.readouterr()
            assert main(chart) == 0
            assert "total names: 2" in capsys.readouterr().out
        else:
            for argv, path in ((predict_csv, csv_in), (chart, results)):
                assert main(argv) == 1
                assert capsys.readouterr().err == f"error: {path}:2: line contains NUL\n"

    def test_predict_runs_once_per_distinct_raw_name(self, tmp_path, mini_cache,
                                                     monkeypatch):
        routed, decided = [], []

        def counting_route(name):
            routed.append(name)
            return route(name)

        def counting_decide(english, chinese, config, script, given):
            decided.append((script.value, given))
            return decide(english, chinese, config, script, given)

        monkeypatch.setattr(batchio, "route", counting_route)
        monkeypatch.setattr(batchio, "decide", counting_decide)
        names = ["Hua Zhao", "王娟", "Hua Zhao", "Hua  Zhao", "1234", "王娟", "Hua Zhao",
                 "Gray, Alasdair", "Gray, Alasdair", "HUA Smith", "李娟", "王娟 (Juan Wang)"]
        infile = tmp_path / "names.txt"
        infile.write_text("\n".join(names) + "\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out)]) == 0
        assert sorted(routed) == sorted(set(names))
        # One decision per evidence key: Hua and HUA share a corpus entry,
        # 王娟, 李娟 and the Mixed entry share 娟, "Gray," is the one Latin
        # name in no corpus and 1234 the one Empty name.
        assert sorted(decided) == [("Empty", ""), ("Han", "娟"), ("Latin", "Gray,"),
                                   ("Latin", "Hua")]
        assert [row["name"] for row in read_rows(out)] == names

    # The benchmark's three workloads, at a small size.
    @pytest.mark.parametrize("workload, size", [
        ("mixed-100k", 3000), ("tail-csv-100k", 3000), ("startup-1k", 1000),
    ])
    def test_results_equal_oracle(self, tmp_path, cache_path, english_dir, workload, size):
        spec = dataclasses.replace(workloads.WORKLOADS[workload], names=size)
        infile = tmp_path / f"names{spec.suffix}"
        workloads.write_input(spec, infile, 7, english_dir)
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(cache_path), "--in", str(infile),
                     "--out", str(out)]) == 0
        cache = load_cache(cache_path)
        rows = result_rows_oracle(cache.english, cache.chinese, ClassifierConfig(),
                                  iter_names(infile))
        assert out.read_bytes() == results_csv_oracle(rows)
        assert len(read_rows(out)) == size

    @pytest.mark.parametrize("filename, content", [
        ("names.csv", "x,name\n1,Hua Zhao\n2\n"),  # row 3 is short
        ("names.txt", "\n \n"),
    ], ids=["fails-mid-batch", "empty-input"])
    def test_failed_predict_leaves_old_results(self, tmp_path, mini_cache, filename,
                                               content):
        infile = tmp_path / filename
        infile.write_text(content, encoding="utf-8")
        out = tmp_path / "results.csv"
        out.write_bytes(b"item,name,gender\n1,Old Name,Female\n")
        before = sorted(tmp_path.iterdir())
        assert main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out)]) == 1
        assert out.read_bytes() == b"item,name,gender\n1,Old Name,Female\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_missing_input_exit_1(self, tmp_path, mini_cache, capsys):
        code = main(["predict", "--cache", str(mini_cache),
                     "--in", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_accuracy_with_planted_mismatch(self, tmp_path, mini_cache, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text(
            "name,gender\nHua Zhao,Female\n王娟,Female\n王刚,Female\n",
            encoding="utf-8",
        )
        code = main(["eval", "--cache", str(mini_cache), "--gold", str(gold)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy: 0.6667" in out
        assert "王刚: predicted Male, gold Female" in out

    def test_confusion_rows_in_label_order(self, tmp_path, mini_cache, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("name,gender\nZxqv Q,Male\n王青,Female\n王刚,Male\n王娟,Female\n",
                        encoding="utf-8")
        assert main(["eval", "--cache", str(mini_cache), "--gold", str(gold)]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("confusion (predicted x gold):") + 2
        assert [line.split() for line in lines[start:start + 4]] == [
            ["Female", "1", "0"], ["Male", "0", "1"],
            ["Unisex", "1", "0"], ["Unknown", "0", "1"]]

    def test_short_gold_row_exit_1(self, tmp_path, mini_cache, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("name,gender\nAda Lovelace\n", encoding="utf-8")
        assert main(["eval", "--cache", str(mini_cache), "--gold", str(gold)]) == 1
        assert capsys.readouterr().err == (
            f"error: {gold}:2: row has too few cells for name,gender\n")

    def test_repeated_name_column_exit_1(self, tmp_path, cache_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("name,gender,name\nMary Smith,Female,John Brown\n", encoding="utf-8")
        assert main(["eval", "--cache", str(cache_path), "--gold", str(gold)]) == 1
        assert capsys.readouterr().err == (
            f"error: {gold}:1: column 'name' appears more than once in the header\n")


class TestFullCorpus:
    """Rows and summaries that the counts of the full corpusgen corpus fix."""

    HEADER = "item,name,gender,probability,script,given_name\n"

    @pytest.mark.parametrize("flags, rows", [
        (["--alpha", "1e308"], ["1,王龘,Unknown,,Han,龘"]),
        ([], ["1,李浩怡,Unisex,0.6000,Han,浩怡", "2,王军紫,Male,0.6938,Han,军紫"]),
        ([], ["1,王青,Unisex,0.5701,Han,青", "2,李青,Unisex,0.5701,Han,青",
              "3,王青 (Qing Wang),Unisex,0.5701,Mixed,青",
              "4,Mary Smith,Female,0.9901,Latin,Mary", "5,MARY Jones,Female,0.9901,Latin,MARY"]),
        # 欧阳青's given name is 青 only with the shipped data/compound_surnames.txt.
        ([], ["1,A. B. Smith,Unknown,,Latin,A.", "2,J Mary Smith,Female,0.9901,Latin,Mary",
              "3,王,Unknown,,Han,王", "4,欧阳,Unknown,,Han,阳", "5,欧阳青,Unisex,0.5701,Han,青"]),
    ], ids=["no-corpus-char", "exact-ties", "shared-given", "routed"])
    def test_predict_rows(self, tmp_path, cache_path, flags, rows):
        infile = tmp_path / "names.txt"
        infile.write_text("".join(row.split(",")[1] + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(cache_path), "--in", str(infile),
                     "--out", str(out), *flags]) == 0
        assert out.read_text(encoding="utf-8") == self.HEADER + "".join(r + "\n" for r in rows)

    def test_chart_from_results_equals_predict_chart(self, tmp_path, cache_path):
        infile = tmp_path / "names.txt"
        infile.write_text("Mary Smith\n王青\nJohn Brown\n", encoding="utf-8")
        results = tmp_path / "results.csv"
        assert main(["predict", "--cache", str(cache_path), "--in", str(infile),
                     "--out", str(results), "--chart-json", str(tmp_path / "a.json"),
                     "--chart-svg", str(tmp_path / "a.svg")]) == 0
        assert len(read_rows(results)) == 3
        assert main(["chart", "--results", str(results), "--json", str(tmp_path / "b.json"),
                     "--svg", str(tmp_path / "b.svg")]) == 0
        for suffix in (".json", ".svg"):
            assert ((tmp_path / f"a{suffix}").read_bytes()
                    == (tmp_path / f"b{suffix}").read_bytes())

    def test_config_with_bom_equals_flag(self, tmp_path, cache_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"threshold": 0.995}')
        infile = tmp_path / "names.txt"
        infile.write_text("Mary Smith\n王青\nJohn Brown\n", encoding="utf-8")
        by_config, by_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
        for out, flags in ((by_config, ["--config", str(cfg)]),
                           (by_flag, ["--threshold", "0.995"])):
            assert main(["predict", "--cache", str(cache_path), "--in", str(infile),
                         "--out", str(out), *flags]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        assert [row["gender"] for row in read_rows(by_config)] == ["Unisex"] * 3

    # The whole eval report on the curated gold file: 66 names, 65 correct.
    EVAL_PUBLIC_FIGURES = """\
total: 66
correct: 65
accuracy: 0.9848
confusion (predicted x gold):
             Female     Male
  Female         30        0
  Male            1       35
  Unisex          0        0
  Unknown         0        0
mismatches:
  吴健雄: predicted Male, gold Female
"""

    def test_eval_stdout_on_public_figures(self, cache_path, capsys):
        gold = Path(__file__).parent / "data" / "public_figures.csv"
        assert main(["eval", "--cache", str(cache_path), "--gold", str(gold)]) == 0
        assert capsys.readouterr() == (self.EVAL_PUBLIC_FIGURES, "")

    # Neither the corpus reader nor the cache encoder may change a byte of the file.
    def test_build_cache_golden_digest(self, tmp_path, english_dir, chinese_csv):
        cache = tmp_path / "m.ncm"
        assert main(["build-cache", "--english-dir", str(english_dir),
                     "--chinese-csv", str(chinese_csv), "--out", str(cache)]) == 0
        data = cache.read_bytes()
        assert len(data) == 1_608_982
        assert hashlib.sha256(data).hexdigest() == (
            "3587e408e772566981bb13d9bec64544ba516655a6a39ec39cddbec7d1c1f76e")

    # A seeded mixed batch, then repeats of one name of each Unknown cause,
    # a Mixed name and a quoted field: no change to the batch path may
    # change a byte of the results or the chart.
    GOLDEN_TAIL = ["1234", "Иван Петров", "Zxqv Smith", "赵乙", "王娟 (Juan Wang)",
                   "Gray, Alasdair"]

    def test_predict_golden_digest(self, tmp_path, cache_path):
        infile = tmp_path / "names.txt"
        corpusgen.write_mixed_batch(infile, 2000, seed=7)
        with infile.open("a", encoding="utf-8") as fh:
            fh.write("\n".join(self.GOLDEN_TAIL * 3) + "\n")
        out, chart_json, chart_svg = (tmp_path / name for name in ("r.csv", "c.json", "c.svg"))
        assert main(["predict", "--cache", str(cache_path), "--in", str(infile),
                     "--out", str(out), "--chart-json", str(chart_json),
                     "--chart-svg", str(chart_svg)]) == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out, chart_json, chart_svg)]
        assert digests == [
            "fac2b3024d11284645c0145fb6ac4a34a6cea869abe8c1d9f6ec6e01357a2695",
            "b7e714a9419b23ead121d42ade71eb0e6236f6bae425d07a2b1752069e4717f8",
            "dfd50800d469b1059721df2d2325836cf8b4c4a9e85d386f6316c7a9f596d549",
        ]

    def test_eval_accuracy(self, tmp_path, cache_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("name,gender\nMary Smith,Female\nJohn Brown,Male\n", encoding="utf-8")
        assert main(["eval", "--cache", str(cache_path), "--gold", str(gold)]) == 0
        assert "accuracy: 1.0000\n" in capsys.readouterr().out

    def test_cache_with_flipped_byte_is_rebuilt_and_predicts(self, tmp_path, cache_path,
                                                             english_dir, chinese_csv, capsys):
        good = cache_path.read_bytes()
        cache = tmp_path / "flipped.ncm"
        cache.write_bytes(good[:-1] + bytes([good[-1] ^ 0xFF]))
        assert main(["build-cache", "--english-dir", str(english_dir),
                     "--chinese-csv", str(chinese_csv), "--out", str(cache)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote cache: {cache}\n")
        assert cache.read_bytes() == good
        infile = tmp_path / "names.txt"
        infile.write_text("Mary Smith\n王青\n", encoding="utf-8")
        assert main(["predict", "--cache", str(cache), "--in", str(infile),
                     "--out", str(tmp_path / "results.csv")]) == 0


@pytest.mark.parametrize("command", ["eval", "chart"])
def test_undecodable_gold_or_results_names_file(tmp_path, mini_cache, capsys, command):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"item,name,gender\n1,Hua Zhao,Female\n2,\xff,Male\n")
    if command == "eval":
        argv = ["eval", "--cache", str(mini_cache), "--gold", str(path)]
    else:
        argv = ["chart", "--results", str(path), "--json", str(tmp_path / "c.json"),
                "--svg", str(tmp_path / "c.svg")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}:3: invalid UTF-8 at byte offset 37\n"


# The JSON decoder recurses once per level: a deep file is one line, not a traceback.
@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_deeply_nested_config_exit_1(tmp_path, mini_cache, capsys, command, opener):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(opener * 200_000, encoding="utf-8")
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n", encoding="utf-8")
    gold = tmp_path / "gold.csv"
    gold.write_text("name,gender\nHua Zhao,Female\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    flags = (["--in", str(names), "--out", str(out)] if command == "predict"
             else ["--gold", str(gold)])
    assert main([command, "--cache", str(mini_cache), "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    assert not out.exists()


# Every file read, model cache and corpora included, reports a bad path as one line.
@pytest.mark.parametrize("command, flag, fault", [
    ("build-cache", "--chinese-csv", "file not found"),
    ("build-cache", "--out", "is a directory"),
    ("predict", "--cache", "file not found"),
    ("eval", "--cache", "file not found"),
    ("predict", "--cache", "is a directory"),
    ("predict", "--in", "is a directory"),
    ("chart", "--results", "is a directory"),
], ids=["chinese-csv-missing", "out-directory", "predict-cache-missing",
        "eval-cache-missing", "cache-directory", "in-directory", "results-directory"])
def test_missing_path_or_directory_exit_1(tmp_path, mini_corpus, mini_cache, capsys,
                                          command, flag, fault):
    english, chinese = mini_corpus
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n", encoding="utf-8")
    gold = tmp_path / "gold.csv"
    gold.write_text("name,gender\nHua Zhao,Female\n", encoding="utf-8")
    flags = {
        "build-cache": {"--english-dir": english, "--chinese-csv": chinese,
                        "--out": tmp_path / "new.ncm"},
        "predict": {"--cache": mini_cache, "--in": names, "--out": tmp_path / "o.csv"},
        "eval": {"--cache": mini_cache, "--gold": gold},
        "chart": {"--results": None, "--json": tmp_path / "c.json",
                  "--svg": tmp_path / "c.svg"},
    }[command]
    bad = flags[flag] = tmp_path / "bad"
    if fault == "is a directory":
        bad.mkdir()
    assert main([command, *(str(arg) for item in flags.items() for arg in item)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {fault}\n"


# predict and eval name the cache in every cache fault, as build-cache --out does.
@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: b"Hua Zhao\n", "not a model cache (magic b'Hua ')"),
    (lambda blob: blob[:-1] + bytes([blob[-1] ^ 0xFF]),
     "cache payload digest mismatch (corrupted file)"),
    (lambda blob: blob[:10], "cache file shorter than its header"),
], ids=["name-list", "flipped-last-byte", "cut-in-header"])
def test_cache_fault_names_the_file(tmp_path, mini_cache, capsys, command, corrupt, message):
    bad = tmp_path / "bad.ncm"
    bad.write_bytes(corrupt(mini_cache.read_bytes()))
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n", encoding="utf-8")
    gold = tmp_path / "gold.csv"
    gold.write_text("name,gender\nHua Zhao,Female\n", encoding="utf-8")
    flags = {"predict": ["--in", names, "--out", tmp_path / "o.csv"],
             "eval": ["--gold", gold]}[command]
    assert main([command, "--cache", str(bad), *map(str, flags)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_bad_pair_index_in_an_unread_english_chunk_fails_predict(tmp_path, capsys):
    """The English section is decoded a chunk at a time as lookups reach it,
    but load checks it whole: a bad pair index on the last key of a
    several-chunk section fails a one-name predict before any row is
    written."""
    english = CountModel.from_entries({f"name{i:04}": (i % 7, i % 5) for i in range(2000)})
    chinese = CountModel.from_entries({"娟": (30, 1)})
    bad = tmp_path / "bad.ncm"
    save_cache(english, chinese, bad)
    blob = bytearray(bad.read_bytes())
    count, keys_len, pair_count = struct.unpack_from("<QQQ", blob, CACHE_HEADER_SIZE)
    assert keys_len > 4 * 1024  # several chunks
    last_index = CACHE_HEADER_SIZE + 40 + keys_len + 16 * pair_count + 4 * (count - 1)
    struct.pack_into("<I", blob, last_index, pair_count)
    # The payload CRC-32, between the source digest and the payload length.
    struct.pack_into("<I", blob, CACHE_HEADER_SIZE - 12, zlib.crc32(blob[CACHE_HEADER_SIZE:]))
    bad.write_bytes(bytes(blob))
    names = tmp_path / "names.txt"
    names.write_text("Name0001\n", encoding="utf-8")
    out = tmp_path / "results.csv"
    assert main(["predict", "--cache", str(bad), "--in", str(names), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: model section has a pair index past its {pair_count} pairs\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ncm", "names.txt"]


# A cache written with a valid digest is decoded as it is: a count no
# corpus gives must be refused as one line, or read as no evidence.
@pytest.mark.parametrize("english, chinese", [
    (CountModel.from_entries({"hua": (-1, 1)}), CountModel.from_entries({"娟": (30, 1)})),
    (CountModel.from_entries({"ann": (5, 2), "hua": (3, -1), "zoe": (9, 0)}),
     CountModel.from_entries({"娟": (30, 1)})),
    (CountModel.from_entries({"hua": (80, 20)}), CountModel.from_entries({"李": (-3, 4)})),
    (CountModel.from_entries({"hua": (80, 20)}), CountModel({"李": (3, 4)}, -7, 4)),
], ids=["english-pair", "english-male-count", "chinese-pair", "chinese-total"])
def test_cache_with_a_negative_count_exit_1(tmp_path, capsys, english, chinese):
    bad = tmp_path / "bad.ncm"
    save_cache(english, chinese, bad)
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n李李\n", encoding="utf-8")
    out = tmp_path / "results.csv"
    assert main(["predict", "--cache", str(bad), "--in", str(names), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: model section has a negative count\n"
    assert not out.exists()


def test_cache_with_a_zero_latin_pair_predicts_unknown(tmp_path):
    english = CountModel.from_entries({"hua": (0, 0), "phil": (0, 5)})
    chinese = CountModel.from_entries({"娟": (30, 1)})
    cache = tmp_path / "zero.ncm"
    save_cache(english, chinese, cache)
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\nPhil Barker\n", encoding="utf-8")
    out = tmp_path / "results.csv"
    for flags, priors in ([], "empirical"), (["--priors", "uniform"], "uniform"):
        assert main(["predict", "--cache", str(cache), "--in", str(names), "--out", str(out),
                     *flags]) == 0
        assert out.read_bytes().splitlines()[1:] == [
            b"1,Hua Zhao,Unknown,,Latin,Hua", b"2,Phil Barker,Male,1.0000,Latin,Phil"]
        assert [(row["gender"], row["probability"]) for row in read_rows(out)] == [
            decision_oracle(english.entries, chinese.entries, "Latin", given, priors=priors)
            for given in ("Hua", "Phil")]


def _tree(root):
    """Every path under `root`, with a file's bytes or None for a directory."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


# Every output file goes through one writer: each fault is one line naming the
# user's path, leaves no temp file and leaves every old file as it was.
@pytest.mark.parametrize("fault", ["missing-parent", "directory", "mid-write",
                                   "dangling-link"])
@pytest.mark.parametrize("writer", ["results", "cache", "chart"])
def test_output_fault_keeps_old_files(tmp_path, mini_corpus, mini_cache, writer, fault):
    english, chinese = mini_corpus
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n王娟\n", encoding="utf-8")
    results = tmp_path / "results.csv"
    results.write_text("item,name,gender\n1,Hua Zhao,Female\n", encoding="utf-8")
    chart_json, chart_svg = tmp_path / "chart.json", tmp_path / "chart.svg"
    # The JSON is written before the SVG; a fault on the SVG must keep the old JSON too.
    chart_json.write_bytes(b"old json\n")
    target = {"results": tmp_path / "out.csv", "cache": tmp_path / "out.ncm",
              "chart": chart_svg}[writer]
    limit = 64  # bytes of a mid-write file: every output but the chart JSON is longer
    if fault == "missing-parent":
        target = tmp_path / "nodir" / target.name
        message = "directory not found"
    elif fault == "dangling-link":  # a link into a missing directory
        target.symlink_to(Path("nodir") / target.name)
        message = "directory not found"
    elif fault == "directory":
        target.mkdir()
        message = "is a directory"
    else:
        old = bytearray(b"old output\n" if writer != "cache" else mini_cache.read_bytes())
        if writer == "cache":
            old[8:40] = bytes(32)  # another source digest, so build-cache rebuilds it
        target.write_bytes(old)
        message = os.strerror(errno.EFBIG)
        if writer == "chart":  # the JSON fits and the SVG does not
            assert main(["chart", "--results", str(results), "--json", str(tmp_path / "j"),
                         "--svg", str(tmp_path / "s")]) == 0
            limit = (tmp_path / "j").stat().st_size
            assert (tmp_path / "s").stat().st_size > limit
            (tmp_path / "j").unlink()
            (tmp_path / "s").unlink()
    argv = {
        "results": ["predict", "--cache", mini_cache, "--in", names, "--out", target],
        "cache": ["build-cache", "--english-dir", english, "--chinese-csv", chinese,
                  "--out", target],
        "chart": ["chart", "--results", results, "--json", chart_json, "--svg", target],
    }[writer]

    def cap_file_size():  # in the child only: a write past `limit` fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    before = _tree(tmp_path)
    result = subprocess.run([sys.executable, "-m", "namecensus", *map(str, argv)],
                            capture_output=True, text=True, encoding="utf-8",
                            preexec_fn=cap_file_size if fault == "mid-write" else None)
    assert result.returncode == 1
    assert result.stderr == f"error: {target}: {message}\n"
    assert _tree(tmp_path) == before


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


# A replaced output keeps its permission bits, even bits the umask would take
# away; a new output gets the umask's.
@pytest.mark.parametrize("mode", [0o600, 0o640, 0o666, None],
                         ids=["0600", "0640", "0666", "new"])
def test_replaced_outputs_keep_their_permission_bits(tmp_path, mini_corpus, mini_cache,
                                                     umask_022, mode):
    english, chinese = mini_corpus
    old_cache = bytearray(mini_cache.read_bytes())
    old_cache[8:40] = bytes(32)  # another source digest, so build-cache rebuilds it
    mini_cache.unlink()
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n王娟\n", encoding="utf-8")
    outs = {name: tmp_path / name
            for name in ["m.ncm", "r.csv", "c.json", "c.svg", "c2.json", "c2.svg"]}
    for name, path in outs.items() if mode is not None else ():
        path.write_bytes(old_cache if name == "m.ncm" else b"old\n")
        path.chmod(mode)
    assert main(["build-cache", "--english-dir", str(english), "--chinese-csv", str(chinese),
                 "--out", str(outs["m.ncm"])]) == 0
    assert main(["predict", "--cache", str(outs["m.ncm"]), "--in", str(names),
                 "--out", str(outs["r.csv"]), "--chart-json", str(outs["c.json"]),
                 "--chart-svg", str(outs["c.svg"])]) == 0
    assert main(["chart", "--results", str(outs["r.csv"]), "--json", str(outs["c2.json"]),
                 "--svg", str(outs["c2.svg"])]) == 0
    want = 0o644 if mode is None else mode
    assert {name: oct(stat.S_IMODE(path.stat().st_mode)) for name, path in outs.items()} == {
        name: oct(want) for name in outs}
    assert outs["m.ncm"].read_bytes() != old_cache
    assert outs["c2.json"].read_bytes() == outs["c.json"].read_bytes() != b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*outs, "names.txt", "english", "chars.csv"])


# `--out /dev/stdout` with stdout appended to a file writes the results through
# the descriptor: the file keeps its old line, then holds the CSV and nothing
# else; it is neither renamed over nor reopened. The summary goes to stderr.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_results_to_stdout_appended_to_a_file(tmp_path, mini_cache, capsys):
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n王娟\n", encoding="utf-8")
    expected = tmp_path / "expected.csv"
    assert main(["predict", "--cache", str(mini_cache), "--in", str(names),
                 "--out", str(expected)]) == 0
    summary = capsys.readouterr().out.splitlines(keepends=True)[:-1]  # not the timing line
    log = tmp_path / "x.log"
    log.write_bytes(b"old line\n")
    before = sorted(tmp_path.iterdir())
    with open(log, "ab") as out:
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "predict", "--cache", str(mini_cache),
             "--in", str(names), "--out", "/dev/stdout"],
            stdout=out, stderr=subprocess.PIPE,
        )
    assert result.returncode == 0
    assert log.read_bytes() == b"old line\n" + expected.read_bytes()
    head = "".join(summary).encode()
    assert result.stderr.startswith(head)
    assert result.stderr[len(head):].startswith(b"predicted 2 names in ")
    assert sorted(tmp_path.iterdir()) == before


def _popen_cli(*argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "namecensus", *map(str, argv)], **kwargs)


# Results piped from predict into chart: the pipe carries the CSV alone, so
# chart reads exactly the rows predict wrote to a file. /dev/fd/3 names a
# copy of stdout, made by the shell's `3>&1`.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("out", ["/dev/stdout", "/dev/fd/3"])
def test_results_piped_into_chart(tmp_path, mini_cache, out):
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n王娟\nPhil Barker\n刚\nZed Q\n", encoding="utf-8")
    expected = tmp_path / "expected"
    expected.mkdir()
    assert main(["predict", "--cache", str(mini_cache), "--in", str(names),
                 "--out", str(expected / "r.csv"), "--chart-json", str(expected / "c.json"),
                 "--chart-svg", str(expected / "c.svg")]) == 0
    predict = subprocess.Popen(
        ["sh", "-c", 'exec "$@" 3>&1', "sh", sys.executable, "-m", "namecensus", "predict",
         "--cache", str(mini_cache), "--in", str(names), "--out", out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chart = _popen_cli("chart", "--results", "/dev/stdin", "--json", tmp_path / "c.json",
                       "--svg", tmp_path / "c.svg", stdin=predict.stdout,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    predict.stdout.close()  # chart holds the only read end
    chart_out, chart_err = chart.communicate(timeout=60)
    predict_err = predict.stderr.read()
    predict.stderr.close()
    assert (predict.wait(timeout=60), chart.returncode) == (0, 0)
    assert chart_err == b""
    assert predict_err.startswith(b"total names: 5\n")
    assert chart_out == predict_err.split(b"predicted")[0]
    for name in ("c.json", "c.svg"):
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes()


# A reader that closes the pipe early ends predict quietly, with the status a
# shell gives a program that SIGPIPE ends; no error line, no traceback.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_results_piped_into_head(tmp_path, mini_cache):
    names = tmp_path / "names.txt"
    # Far longer than a pipe's buffer, so predict still writes when head has gone.
    names.write_text("Hua Zhao\n王娟\n" * 20_000, encoding="utf-8")
    predict = _popen_cli("predict", "--cache", mini_cache, "--in", names,
                         "--out", "/dev/stdout", stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    head = subprocess.Popen(["head", "-2"], stdin=predict.stdout, stdout=subprocess.PIPE)
    predict.stdout.close()
    head_out, _ = head.communicate(timeout=60)
    err = predict.stderr.read()
    predict.stderr.close()
    assert predict.wait(timeout=60) == 141
    assert err == b""
    assert head_out == (b"item,name,gender,probability,script,given_name\n"
                        b"1,Hua Zhao,Female,0.8000,Latin,Hua\n")


# With --out FILE the summary goes to stdout: a pipe whose reader has gone
# ends predict as above, and a stdout closed from the start is no fault.
@pytest.mark.parametrize("stdout, code", [("reader-gone", 141), ("closed", 0)])
def test_summary_to_a_gone_stdout(tmp_path, mini_cache, stdout, code):
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n王娟\n", encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "predict", "--cache", str(mini_cache),
             "--in", str(names), "--out", str(tmp_path / "r.csv")],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (code, b"")
    assert len((tmp_path / "r.csv").read_bytes().splitlines()) == 3


# A chart file given as stdout carries the JSON alone, so a pipe takes it
# straight to a parser; the summary lines of either command go to stderr.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("command", ["predict", "chart"])
def test_chart_json_piped_to_a_parser(tmp_path, mini_cache, command):
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n王娟\nPhil Barker\n", encoding="utf-8")
    results, expected = tmp_path / "r.csv", tmp_path / "c.json"
    assert main(["predict", "--cache", str(mini_cache), "--in", str(names), "--out", str(results),
                 "--chart-json", str(expected), "--chart-svg", str(tmp_path / "c.svg")]) == 0
    argv = {"predict": ["predict", "--cache", mini_cache, "--in", names,
                        "--out", tmp_path / "r2.csv", "--chart-json", "/dev/stdout",
                        "--chart-svg", tmp_path / "c2.svg"],
            "chart": ["chart", "--results", results, "--json", "/dev/stdout",
                      "--svg", tmp_path / "c2.svg"]}[command]
    result = subprocess.run([sys.executable, "-m", "namecensus", *map(str, argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == json.loads(expected.read_bytes())
    assert result.stdout == expected.read_bytes()
    assert result.stderr.startswith(b"total names: 3\n")


# build-cache writes a cache to a pipe, or to a file stdout is redirected to,
# byte for byte as it writes it to a path, and never reads its own stdout
# back: a pipe's read end would wait on the process itself.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_cache_written_to_stdout(tmp_path, mini_corpus, stdout):
    english, chinese = mini_corpus
    argv = ["build-cache", "--english-dir", str(english), "--chinese-csv", str(chinese),
            "--out"]
    expected = tmp_path / "m.ncm"
    assert main([*argv, str(expected)]) == 0
    command = [sys.executable, "-m", "namecensus", *argv, "/dev/stdout"]
    if stdout == "pipe":
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                timeout=60)
        written = result.stdout
    else:
        with open(tmp_path / "redirect.ncm", "wb") as out:
            result = subprocess.run(command, stdout=out, stderr=subprocess.PIPE, timeout=60)
        written = (tmp_path / "redirect.ncm").read_bytes()
    assert (result.returncode, written) == (0, expected.read_bytes()), result.stderr
    assert result.stderr.startswith(b"wrote cache: /dev/stdout\n")


# Two output flags naming one file, or an output naming an input file, by
# any path or link to it, are refused before any name is read, and no file
# is touched.
@pytest.mark.parametrize("argv, flags, path", [
    (["predict", "--out", "r.csv", "--chart-json", "c", "--chart-svg", "./c"],
     ("--chart-json", "--chart-svg"), "./c"),
    (["predict", "--out", "c", "--chart-json", "link", "--chart-svg", "s.svg"],
     ("--out", "--chart-json"), "link"),
    (["predict", "--out", "r.csv", "--chart-json", "j.json", "--chart-svg", "r.csv"],
     ("--out", "--chart-svg"), "r.csv"),
    (["chart", "--json", "c", "--svg", "c"], ("--json", "--svg"), "c"),
    (["chart", "--json", "c", "--svg", "./c"], ("--json", "--svg"), "./c"),
    (["predict", "--out", "m.ncm"], ("--cache", "--out"), "m.ncm"),
    (["predict", "--out", "./names.txt"], ("--in", "--out"), "./names.txt"),
    (["predict", "--config", "cfg.json", "--out", "cfg.json"], ("--config", "--out"), "cfg.json"),
    (["predict", "--in", "c", "--out", "r.csv", "--chart-json", "j.json", "--chart-svg", "link"],
     ("--in", "--chart-svg"), "link"),
    (["chart", "--json", "results.csv", "--svg", "s.svg"], ("--results", "--json"), "results.csv"),
], ids=["predict-c-and-./c", "predict-link", "predict-out-and-svg", "chart-c-and-c",
        "chart-c-and-./c", "predict-cache-and-out", "predict-in-and-out",
        "predict-config-and-out", "predict-in-and-link", "chart-results-and-json"])
def test_two_outputs_naming_one_file_exit_1(tmp_path, monkeypatch, mini_cache, capsys,
                                           argv, flags, path):
    monkeypatch.chdir(tmp_path)
    Path("names.txt").write_text("Hua Zhao\n王娟\n", encoding="utf-8")
    Path("results.csv").write_text("item,name,gender\n1,Hua Zhao,Female\n", encoding="utf-8")
    Path("m.ncm").write_bytes(mini_cache.read_bytes())
    Path("cfg.json").write_text("{}", encoding="utf-8")
    Path("c").write_bytes(b"old\n")
    Path("link").symlink_to("c")
    inputs = {"predict": ["--cache", "m.ncm", "--in", "names.txt"],
              "chart": ["--results", "results.csv"]}[argv[0]]
    before = _tree(tmp_path)
    assert main([argv[0], *inputs, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flags[0]} and {flags[1]} name the same file: {path}\n"
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_input_and_output_that_are_no_file_may_coincide(mini_cache, capsys):
    # /dev/null, like a terminal named by /dev/stdin and /dev/stdout, is no
    # file to replace: the run goes on to read it, and finds no names.
    assert main(["predict", "--cache", str(mini_cache), "--in", os.devnull,
                 "--out", os.devnull]) == 1
    assert capsys.readouterr().err == f"error: {os.devnull}: no name records found\n"


class TestChartCommand:
    def test_from_results_csv(self, tmp_path, mini_cache):
        infile = tmp_path / "names.txt"
        infile.write_text("Hua Zhao\n王刚\n", encoding="utf-8")
        results = tmp_path / "results.csv"
        main(["predict", "--cache", str(mini_cache), "--in", str(infile),
              "--out", str(results)])
        code = main(["chart", "--results", str(results),
                     "--json", str(tmp_path / "c.json"),
                     "--svg", str(tmp_path / "c.svg")])
        assert code == 0
        assert (tmp_path / "c.svg").read_text(encoding="utf-8").startswith("<svg")

    def test_results_with_bom(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("\ufeffitem,name,gender\n1,Hua Zhao,Female\n", encoding="utf-8")
        code = main(["chart", "--results", str(results),
                     "--json", str(tmp_path / "c.json"),
                     "--svg", str(tmp_path / "c.svg")])
        assert code == 0
        assert "total names: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("content, named", [
        ("item,name,label\n1,Hua Zhao,Female\n", "gender' in header ['item', 'name', 'label']"),
        ("item,name,gender\n1,Hua Zhao,Female\n2,Wang,female\n",
         "results.csv:3: unknown gender label 'female'"),
        ("item,name,gender\n", "results.csv: no result rows\n"),
        ("", "results.csv: empty input\n"),
        ("\nitem,name,gender\n1,Hua Zhao,Female\n",
         "results.csv:1: no column 'gender' in header []"),
        ("item,name,gender\n1,Hua Zhao,Female\n2,Bob\n",
         "/results.csv:3: row has no column index 2\n"),
    ])
    def test_bad_results_exit_1(self, tmp_path, capsys, content, named):
        results = tmp_path / "results.csv"
        results.write_text(content, encoding="utf-8")
        code = main(["chart", "--results", str(results),
                     "--json", str(tmp_path / "c.json"),
                     "--svg", str(tmp_path / "c.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "c.json").exists() and not (tmp_path / "c.svg").exists()


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "frobnicate"],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert result.returncode == 2

    def test_unknown_flag_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "predict", "--bogus"],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert result.returncode == 2

    def test_removed_workers_flag_exit_2(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "predict", "--cache", str(tmp_path / "m.ncm"),
             "--in", str(tmp_path / "names.txt"), "--out", str(tmp_path / "results.csv"),
             "--workers", "2"],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --workers 2" in result.stderr
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("argv, removed", [
        (["predict", "--in", "names.txt", "--out", "o.csv", "--unisex-floor", "0.55"],
         "--unisex-floor 0.55"),
        (["eval", "--gold", "gold.csv", "--in", "names.txt"], "--in names.txt"),
    ])
    def test_removed_options_exit_2(self, capsys, argv, removed):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {removed}" in capsys.readouterr().err

    # Building the parser must not import the classifier, so the help states
    # the config's defaults and priors values as text: they must agree.
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_help_states_the_config_defaults_and_priors_values(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        default = ClassifierConfig()
        assert f"threshold (default {default.threshold:.2f})" in text
        assert f"Chinese characters (default {default.alpha})" in text
        assert f"priors mode (default {default.priors})" in text
        values = text.split("--priors ", 1)[1].split()[0].strip("[]").split("|")
        assert default.priors in values
        for priors in values:
            assert ClassifierConfig(priors=priors).priors == priors
        with pytest.raises(ValueError) as exc:
            ClassifierConfig(priors="bogus")
        assert str(exc.value) == f"priors must be {' or '.join(values)}: 'bogus'"

    def test_version_and_help_on_subcommands(self):
        for argv in (["--version"], ["predict", "--help"], ["eval", "--help"],
                     ["build-cache", "--help"], ["chart", "--help"]):
            result = subprocess.run(
                [sys.executable, "-m", "namecensus", *argv],
                capture_output=True, text=True, encoding="utf-8",
            )
            assert result.returncode == 0
