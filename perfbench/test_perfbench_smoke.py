"""Smoke test of the benchmark at tiny size.

Each workload runs once with a few hundred names and one repetition of
every timed step; a corrupted results row must count as a failed
operation, and a checkout without the program must be refused.
"""

import csv
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.require_sources()
import checks  # noqa: E402 - require_sources puts tests/ on sys.path
import corpusgen  # noqa: E402
import workloads  # noqa: E402

NAMES = 300
SEED = 7


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return corpusgen.write_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(autouse=True)
def tiny(monkeypatch, corpus):
    """A few hundred names per workload, one repetition of each step, and
    one corpus for the whole module."""
    monkeypatch.setattr(corpusgen, "write_corpus", lambda root: corpus)
    for name, workload in workloads.WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workload, names=NAMES))
    for name in ("SETUP_REPS", "MIN_CALLS", "CHECKS_PER_CALL", "MIN_TRACED", "CLI_START_REPS"):
        monkeypatch.setattr(run, name, 1)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_run_is_clean(workload):
    record = run.run_workload(workload, SEED, seconds=0, trace=False)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["error_rate"] == 0
    assert record["attempted"] >= 4
    assert set(record["metrics"]) == set(run.declared_units(trace=False))
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["mix"]["names"] == NAMES
    assert len(record["results_sha256"]) == 64


def test_traced_run_parts_sum_to_run_batch():
    record = run.run_workload("tail-csv-100k", SEED, seconds=0, trace=True)
    assert record["correct"], record["problems"]
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert set(metrics) == set(run.declared_units(trace=True))
    parts = [name for name in metrics
             if name.startswith(("scriptdetect.", "namesplit.", "classifier."))
             and name.endswith("_s")]
    assert len(parts) == 8  # seven layers plus classifier.unattributed_s
    assert math.isclose(sum(metrics[p] for p in parts), metrics["batchio.run_batch_s"],
                        rel_tol=1e-9)
    assert record["samples"]["oracle_max_error"] <= checks.ORACLE_TOLERANCE


def test_peak_rss_is_the_childs_own():
    """Linux starts a child's ru_maxrss at its parent's peak; children come
    from spawn.py, so a large benchmark process does not leak into it."""
    ballast = bytearray(160 * 2**20)
    for i in range(0, len(ballast), 4096):  # touch each page so it is resident
        ballast[i] = 1
    record = run.run_workload("startup-1k", SEED, seconds=0, trace=False)
    del ballast
    assert record["metrics"]["peak_rss_mb"]["value"] < 120


@pytest.mark.parametrize("corrupt_call", [1, 2])
def test_corrupted_row_raises_error_rate(monkeypatch, corrupt_call):
    """Call 1 is the warm-up, checked row by row; later calls are checked
    by digest."""
    real_predict = run.Bench.predict
    calls = []

    def corrupting_predict(self):
        child = real_predict(self)
        calls.append(child)
        if len(calls) == corrupt_call:
            with open(self.results, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            rows[1][5] += "x"  # given_name of the first result row
            with open(self.results, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        return child

    monkeypatch.setattr(run.Bench, "predict", corrupting_predict)
    record = run.run_workload("startup-1k", SEED, seconds=0, trace=False)
    assert not record["correct"]
    assert record["failed"] >= 1 and record["error_rate"] > 0
    assert any("item 1: given_name" in p or "digest changed" in p for p in record["problems"])


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "startup-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "checkout lacks" in result.stderr
    for line in result.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
