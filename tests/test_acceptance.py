"""Acceptance suite: one test per criterion, one PASS line each.

Runs against the full-scale synthetic corpora (see corpusgen.py) through
the installed CLI where the criterion is about end-to-end behavior.
"""

import csv
import json
import math
import random
import re
import subprocess
import sys
import time

import pytest

import corpusgen
from conftest import DATA_DIR, TABLE2_NAMES, TABLE4_LABELS
from namecensus.batchio import Prediction, aggregate, predict_to_results
from namecensus.cache import load_cache, save_cache
from namecensus.classifier import (
    ClassifierConfig,
    GenderLabel,
    Posterior,
    classify,
    decide,
    posterior_chinese,
    route,
)
from namecensus.corpus import CountModel
from namecensus.scriptdetect import Script
from oracles import bayes_product_oracle

CFG = ClassifierConfig()
HAN_POOL = "娟刚青金标骅明丽伟芳"


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def _cli(args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "namecensus", *args],
        capture_output=True, text=True, encoding="utf-8", timeout=timeout,
    )


def test_criterion_1_table_round_trip(tmp_path, cache_path):
    infile = tmp_path / "table2.txt"
    infile.write_text("\n".join(TABLE2_NAMES) + "\n", encoding="utf-8")
    out = tmp_path / "results.csv"
    start = time.perf_counter()
    result = _cli(["predict", "--cache", str(cache_path),
                   "--in", str(infile), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    with open(out, encoding="utf-8", newline="") as fh:
        labels = [row["gender"] for row in csv.DictReader(fh)]
    _report(
        "1 table-round-trip",
        labels == TABLE4_LABELS and elapsed < 5.0,
    )


def test_criterion_2_curated_accuracy(tmp_path, cache_path):
    gold_csv = DATA_DIR / "public_figures.csv"
    with open(gold_csv, encoding="utf-8", newline="") as fh:
        names = [row["name"] for row in csv.DictReader(fh)]
    assert len(names) >= 60
    han = sum(1 for n in names if any("一" <= ch <= "鿿" for ch in n))
    assert 0.4 <= han / len(names) <= 0.6  # roughly half Chinese-character
    start = time.perf_counter()
    result = _cli(["eval", "--cache", str(cache_path), "--gold", str(gold_csv)])
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    accuracy = float(re.search(r"accuracy: ([0-9.]+)", result.stdout).group(1))
    _report(
        "2 curated-accuracy",
        accuracy >= 0.90 and elapsed < 5.0,
    )


def test_criterion_3_throughput_and_rerun_equality(tmp_path, cache_path):
    infile = tmp_path / "batch100k.txt"
    corpusgen.write_mixed_batch(infile, 100_000)
    out_first = tmp_path / "first.csv"
    out_second = tmp_path / "second.csv"
    start = time.perf_counter()
    result = _cli(["predict", "--cache", str(cache_path), "--in", str(infile),
                   "--out", str(out_first)], timeout=140)
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    result = _cli(["predict", "--cache", str(cache_path), "--in", str(infile),
                   "--out", str(out_second)], timeout=140)
    assert result.returncode == 0, result.stderr
    _report(
        "3 throughput",
        elapsed < 70.0 and out_first.read_bytes() == out_second.read_bytes(),
    )


def test_criterion_4_oracle_equivalence():
    rng = random.Random(20260826)
    worst = 0.0
    for _ in range(1000):
        chars = rng.sample(HAN_POOL, rng.randint(1, 3))
        entries = {ch: (rng.randint(0, 20), rng.randint(0, 20)) for ch in chars}
        model = CountModel.from_entries(entries)
        pool = chars + [rng.choice(HAN_POOL)]
        names = pool + [a + b for a in pool for b in pool]
        for given in names:
            expected = bayes_product_oracle(entries, given)
            post = posterior_chinese(model, given, CFG)
            if expected is None:
                assert not post.evidence_found
            else:
                assert post.evidence_found
                worst = max(worst, abs(post.p_female - expected[0]),
                            abs(post.p_male - expected[1]))
    _report("4 oracle-equivalence", worst <= 1e-9)


def test_criterion_5_normalization_and_partition():
    rng = random.Random(5150)
    english = CountModel(
        entries={"hua": (80, 20), "jordan": (3, 7)}, total_female=83, total_male=27
    )
    ok = True
    for _ in range(10_000):
        chars = rng.sample(HAN_POOL, rng.randint(1, 4))
        entries = {ch: (rng.randint(0, 30), rng.randint(0, 30)) for ch in chars}
        model = CountModel.from_entries(entries)
        name = "王" + "".join(rng.choice(HAN_POOL) for _ in range(rng.randint(1, 3)))
        post, label = decide(english, model, CFG, *route(name))
        labels = [lb for lb in GenderLabel if lb is label]
        ok &= len(labels) == 1
        if post.evidence_found:
            ok &= math.isclose(post.p_female + post.p_male, 1.0, abs_tol=1e-9)
        else:
            ok &= label is GenderLabel.UNKNOWN
    # exact threshold boundaries
    ok &= classify(Posterior(True, 50, 50), CFG) is GenderLabel.UNISEX
    ok &= classify(Posterior(True, 60, 40), CFG) is GenderLabel.UNISEX
    ok &= classify(Posterior(True, 40, 60), CFG) is GenderLabel.UNISEX
    above = (600_000_001, 399_999_999)  # 0.60 + 1e-9
    ok &= classify(Posterior(True, *above), CFG) is GenderLabel.FEMALE
    ok &= classify(Posterior(True, *reversed(above)), CFG) is GenderLabel.MALE
    _report("5 normalization-partition", ok)


def test_criterion_6_aggregation(tmp_path, full_models):
    rng = random.Random(66)
    ok = True
    for _ in range(1000):
        labels = [rng.choice(list(GenderLabel)) for _ in range(rng.randint(1, 60))]
        preds = [
            Prediction("x", Script.LATIN, "x", Posterior(False), lb) for lb in labels
        ]
        stats = aggregate(preds)
        ok &= abs(sum(stats.percentages.values()) - 100.0) <= 0.01
        ok &= all(
            stats.percentages[lb] == 100.0 * stats.counts[lb] / stats.total
            for lb in GenderLabel
        )
    english, chinese = full_models
    stats = predict_to_results(english, chinese, CFG, TABLE2_NAMES, tmp_path / "results.csv")
    ok &= stats.percentages[GenderLabel.MALE] == pytest.approx(60.0)
    ok &= stats.percentages[GenderLabel.FEMALE] == pytest.approx(30.0)
    ok &= stats.percentages[GenderLabel.UNISEX] == pytest.approx(10.0)
    ok &= stats.percentages[GenderLabel.UNKNOWN] == 0.0
    _report("6 aggregation", ok)


def test_criterion_7_corpus_integrity(tmp_path, full_models):
    from namecensus.corpus import load_english_year_files

    rng = random.Random(77)
    ok = True
    # randomized cache round trips
    for i in range(25):
        eng_entries = {
            f"n{chr(97 + j)}": (rng.randint(0, 40), rng.randint(0, 40))
            for j in range(rng.randint(1, 10))
        }
        chi_entries = {
            ch: (rng.randint(0, 40), rng.randint(0, 40))
            for ch in rng.sample(HAN_POOL, rng.randint(1, 5))
        }
        english = CountModel.from_entries(eng_entries)
        chinese = CountModel.from_entries(chi_entries)
        path = tmp_path / f"c{i}.ncm"
        save_cache(english, chinese, path)
        cache = load_cache(path)
        ok &= cache.english == english and cache.chinese == chinese
    # permuting files and rows leaves the model identical
    rows = [f"N{chr(97 + i)},{s},{rng.randint(1, 99)}"
            for i in range(30) for s in ("F", "M")]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    (a_dir / "yob2014.txt").write_text("\n".join(rows[:40]) + "\n", encoding="utf-8")
    (a_dir / "yob2015.txt").write_text("\n".join(rows[40:]) + "\n", encoding="utf-8")
    shuffled = rows[:]
    rng.shuffle(shuffled)
    (b_dir / "yob2014.txt").write_text("\n".join(shuffled[:13]) + "\n", encoding="utf-8")
    (b_dir / "yob2015.txt").write_text("\n".join(shuffled[13:]) + "\n", encoding="utf-8")
    ok &= load_english_year_files(a_dir) == load_english_year_files(b_dir)
    # full-corpus cardinality, order-of-magnitude only
    english, _ = full_models
    ok &= 80_000 <= len(english.entries) <= 120_000
    _report("7 corpus-integrity", ok)


def test_criterion_8_chart_emission(tmp_path, full_models):
    from namecensus.report import SVG_BAR_SCALE, emit_chart

    english, chinese = full_models
    stats = predict_to_results(english, chinese, CFG, TABLE2_NAMES, tmp_path / "results.csv")
    json_path, svg_path = tmp_path / "c.json", tmp_path / "c.svg"
    emit_chart(stats, json_path, svg_path)
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    ok = (
        isinstance(doc["total"], int)
        and [e["name"] for e in doc["labels"]]
        == ["Female", "Male", "Unisex", "Unknown"]
        and all(
            isinstance(e["count"], int) and isinstance(e["percent"], float)
            for e in doc["labels"]
        )
    )
    for entry in doc["labels"]:
        label = GenderLabel(entry["name"])
        ok &= entry["count"] == stats.counts[label]
        ok &= entry["percent"] == stats.percentages[label]
    heights = [
        float(m.group(1))
        for m in re.finditer(
            r'class="bar"[^/]*height="([0-9.]+)"',
            svg_path.read_text(encoding="utf-8"),
        )
    ]
    ok &= len(heights) == 4
    for entry, height in zip(doc["labels"], heights):
        expected = entry["percent"] / 100.0 * SVG_BAR_SCALE
        ok &= abs(height - expected) <= 1.0
    _report("8 chart-emission", ok)
