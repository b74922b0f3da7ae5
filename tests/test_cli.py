import csv
import dataclasses
import errno
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from namecensus import batchio
from namecensus.batchio import read_input, read_result_labels, run_batch, write_results
from namecensus.cache import FORMAT_VERSION, MAGIC, load_cache
from namecensus.classifier import ClassifierConfig, decide, predict, route
from namecensus.cli import main
from oracles import decision_oracle

CACHE_HEADER_SIZE = len(MAGIC) + 4 + 32 + 32 + 8  # magic, version, both digests, payload length


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

    @pytest.mark.parametrize("old_version", [1, 2])
    def test_rebuilds_old_cache(self, mini_corpus, mini_cache, capsys, old_version):
        english, chinese = mini_corpus
        blob = bytearray(mini_cache.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), old_version)
        mini_cache.write_bytes(bytes(blob))
        assert main(["build-cache", "--english-dir", str(english),
                     "--chinese-csv", str(chinese), "--out", str(mini_cache)]) == 0
        assert "wrote cache" in capsys.readouterr().out
        load_cache(mini_cache)
        assert FORMAT_VERSION == 3

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

    @pytest.mark.parametrize("content, named", [
        ("[1]", "JSON object"),
        ('{"threshold": "0.7"}', "'threshold'"),
        ('{"treshold": 0.7}', "'treshold'"),
        ('{"priors": "bogus"}', "'priors'"),
        ('{"threshold": 1.5}', "'threshold'"),
        ('{"threshold": 0.55, "unisex_floor": 0.58}', "'unisex_floor'"),
        ('{"unisex_floor": 0.4}', "'unisex_floor'"),
        ('{"alpha": 0}', "'alpha'"),
        ('{"alpha": NaN}', "'alpha'"),
        ('{"alpha": Infinity}', "'alpha'"),
        ('{"alpha": ', "cfg.json: Expecting value"),
    ])
    def test_bad_config_exit_1(self, tmp_path, mini_cache, capsys, content, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content, encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_bad_flag_value_names_the_flag(self, tmp_path, mini_cache, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threshold": 0.9}', encoding="utf-8")
        infile = tmp_path / "names.txt"
        infile.write_text("Jordan Smith\n", encoding="utf-8")
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(tmp_path / "o.csv"), "--config", str(cfg),
                     "--threshold", "1.0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --threshold: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_flag_exit_1(self, tmp_path, mini_cache, capsys, value):
        infile = tmp_path / "names.txt"
        infile.write_text("王青\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(["predict", "--cache", str(mini_cache), "--in", str(infile),
                     "--out", str(out), f"--alpha={value}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --alpha: ")
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

    def test_names_with_line_breaks_read_back_in_order(self, tmp_path, mini_cache):
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
        assert read_result_labels(out) == [
            predict(cache.english, cache.chinese, ClassifierConfig(), name).label
            for name in names
        ]

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
        # One decision per Han given name or Latin corpus entry: Hua and HUA
        # share an entry, and 王娟, 李娟 and the Mixed entry share 娟; "Gray,"
        # is in no corpus and 1234 is Empty, so neither is decided.
        assert sorted(decided) == [("Han", "娟"), ("Latin", "Hua")]
        assert [row["name"] for row in read_rows(out)] == names

    # The benchmark's three workloads, at a small size.
    @pytest.mark.parametrize("workload, size", [
        ("mixed-100k", 3000), ("tail-csv-100k", 3000), ("startup-1k", 1000),
    ])
    def test_results_equal_write_results_of_run_batch(self, tmp_path, cache_path,
                                                      english_dir, workload, size):
        spec = dataclasses.replace(workloads.WORKLOADS[workload], names=size)
        infile = tmp_path / f"names{spec.suffix}"
        workloads.write_input(spec, infile, 7, english_dir)
        out, expected = tmp_path / "results.csv", tmp_path / "expected.csv"
        assert main(["predict", "--cache", str(cache_path), "--in", str(infile),
                     "--out", str(out)]) == 0
        cache = load_cache(cache_path)
        write_results(run_batch(cache.english, cache.chinese, ClassifierConfig(),
                                read_input(infile)), expected)
        assert out.read_bytes() == expected.read_bytes()
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


def _tree(root):
    """Every path under `root`, with a file's bytes or None for a directory."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


# Every output file goes through one writer: each fault is one line naming the
# user's path, leaves no temp file and leaves every old file as it was.
@pytest.mark.parametrize("fault", ["missing-parent", "directory", "mid-write"])
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
                            capture_output=True, text=True,
                            preexec_fn=cap_file_size if fault == "mid-write" else None)
    assert result.returncode == 1
    assert result.stderr == f"error: {target}: {message}\n"
    assert _tree(tmp_path) == before


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


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "frobnicate"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_unknown_flag_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "predict", "--bogus"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_removed_workers_flag_exit_2(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "namecensus", "predict", "--cache", str(tmp_path / "m.ncm"),
             "--in", str(tmp_path / "names.txt"), "--out", str(tmp_path / "results.csv"),
             "--workers", "2"],
            capture_output=True, text=True,
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

    def test_version_and_help_on_subcommands(self):
        for argv in (["--version"], ["predict", "--help"], ["eval", "--help"],
                     ["build-cache", "--help"], ["chart", "--help"]):
            result = subprocess.run(
                [sys.executable, "-m", "namecensus", *argv],
                capture_output=True, text=True,
            )
            assert result.returncode == 0
