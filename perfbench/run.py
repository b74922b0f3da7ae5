"""namecensus benchmark: seeded workloads driven through the CLI, outputs checked.

    python3 perfbench/run.py --workload mixed-100k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all       # every workload, every metric

Run from anywhere inside a checkout; the program is taken from its
``src/`` and the corpus generator and Han oracle from its ``tests/``.

``--trace 0`` times CLI subprocesses, one at a time, and reports the
end-to-end metrics: ``setup_s`` (cold ``build-cache``),
``cache_check_s`` (up-to-date ``build-cache``), ``wall_s`` (one
``predict`` from spawn to exit), ``names_per_s`` and ``peak_rss_mb``
(that child's own peak RSS, from ``wait4`` in ``spawn.py``). Each is
the median over the run's calls; timing starts after a warm-up.

The speed of a shared host drifts by up to a factor of two, within a
call and from one hour to the next. So every timed call is normalised:
a thread in ``spawn.py`` times a small fixed job, the speed probe, every
20 ms during the call, on the call's CPU (the benchmark and its
children are pinned to one CPU). The call's time, less the probes'
own, is scaled by the probe's reference time over its mean time during
the call. The measured times are kept in the record.

``--trace 1`` runs ``traced.py`` in a fresh interpreter per repetition
and reports per-layer busy seconds, hit ratios and the tracing overhead.

Every output row is checked against independent references
(``checks.py``), and the results CSV must be byte-identical across the
calls of a run. A non-zero exit, a wrong row or a changed digest counts
as a failed operation. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
the workload mix, the digest and the environment, is appended to
``--out`` as one JSON line (compare two such files with compare.py).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from checks import Reference
    from workloads import Row, Workload

from spawn import PROBE_REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK_ROOT = BENCH_DIR / "_work"
DEFAULT_OUT = BENCH_DIR / "_results" / "runs.jsonl"

SETUP_REPS = 5  # cold build-cache calls per run; setup_s is their median
MIN_CALLS = 3  # timed predict calls per run, even when --seconds runs out first
CHECKS_PER_CALL = 3  # up-to-date build-cache calls before each predict
MIN_TRACED = 2  # traced repetitions per run, after the warm-up
CLI_START_REPS = 9  # `namecensus --version` calls behind cli.start_s
RUN_LIMIT_S = 170.0  # children still running then are killed: a run ends within 180 s

# Spans recorded by traced.py, reported as "<span>_s".
STAGE_SPANS = [
    "corpus.load_english", "corpus.load_chinese", "cache.digest", "cache.save",
    "cache.load", "batchio.read_input", "batchio.run_batch",
    "batchio.write_results", "batchio.aggregate", "report.emit_chart",
]


def declared() -> dict:
    """BENCHMARK.json: the metrics each mode reports, their units, run_seconds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(trace: bool) -> dict[str, str]:
    metrics = declared()["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


class MissingSourceError(Exception):
    """The checkout lacks the program or the test helpers the benchmark needs."""


def require_sources() -> None:
    """Check the checkout and put ``tests/`` (corpusgen, oracles) on sys.path."""
    needed = [SRC / "namecensus" / "__main__.py", TESTS / "corpusgen.py", TESTS / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise MissingSourceError(f"checkout lacks {', '.join(missing)}")
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class ChildRun:
    seconds: float  # spawn to reap, as measured
    probe_s: float  # mean speed-probe time during the call
    probe_sum_s: float  # CPU time the probes took from the call
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def normalised_s(self) -> float:
        """The call's time at the probe's reference speed, without the probes."""
        return (self.seconds - self.probe_sum_s) * PROBE_REFERENCE_S / self.probe_s


class Spawner:
    """Runs children one at a time through ``spawn.py``, a process that
    stays small, so each child's peak RSS is its own (see spawn.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], pythonpath: list[Path], log_dir: Path,
            deadline: float) -> ChildRun:
        out_path, err_path = log_dir / "child.out", log_dir / "child.err"
        self.proc.stdin.write(json.dumps({
            "argv": argv,
            "pythonpath": [str(p) for p in pythonpath],
            "cwd": str(ROOT),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": max(0.0, deadline - time.monotonic()),
        }) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return ChildRun(
            seconds=reply["seconds"],
            probe_s=reply["probe_mean_s"],
            probe_sum_s=reply["probe_sum_s"],
            rss_mb=reply["maxrss_kb"] / 1024.0,
            returncode=reply["returncode"],
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


@dataclass
class Bench:
    """One run: a workload's generated inputs, its references and the tally."""

    workload: Workload
    seed: int
    work: Path
    deadline: float
    spawner: Spawner
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Set by prepare():
    english_dir: Path = field(init=False)
    chinese_csv: Path = field(init=False)
    cache_path: Path = field(init=False)
    infile: Path = field(init=False)
    results: Path = field(init=False)
    expected: list[Row] = field(init=False)
    ref: Reference = field(init=False)

    def prepare(self) -> None:
        import checks
        import corpusgen
        import workloads

        compileall.compile_dir(str(SRC), quiet=1)
        self.english_dir, self.chinese_csv = corpusgen.write_corpus(self.work / "corpus")
        self.cache_path = self.work / "models.ncm"
        self.infile = self.work / f"input{self.workload.suffix}"
        self.results = self.work / "results.csv"
        self.expected = workloads.write_input(
            self.workload, self.infile, self.seed, self.english_dir
        )
        self.ref = checks.Reference(self.english_dir, self.chinese_csv)

    def record(self, problem: str | None) -> None:
        """Count one operation; a problem string marks it failed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def child(self, argv: list[str], pythonpath: list[Path]) -> ChildRun:
        return self.spawner.run(argv, pythonpath, self.work, self.deadline)

    def cli(self, *args: str) -> ChildRun:
        return self.child([sys.executable, "-m", "namecensus", *args], [SRC])

    def build_cache(self) -> ChildRun:
        return self.cli("build-cache", "--english-dir", str(self.english_dir),
                        "--chinese-csv", str(self.chinese_csv), "--out", str(self.cache_path))

    def predict(self) -> ChildRun:
        args = ["predict", "--cache", str(self.cache_path), "--in", str(self.infile),
                "--out", str(self.results)]
        if self.workload.chart:
            args += ["--chart-json", str(self.work / "chart.json"),
                     "--chart-svg", str(self.work / "chart.svg")]
        self.results.unlink(missing_ok=True)
        return self.cli(*args)

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def exit_problem(what: str, child: ChildRun, expect_stdout: str | None = None) -> str | None:
    if child.returncode != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"{what}: exit {child.returncode}: {tail[0]}"
    if expect_stdout is not None and expect_stdout not in child.stdout:
        return f"{what}: stdout lacks {expect_stdout!r}"
    return None


class OutputCheck:
    """Full check of the first results CSV (and chart); later calls must
    reproduce its SHA-256 exactly."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.report = None  # checks.CheckReport of the first results
        self.first_problem: str | None = None
        self.results_sha256: str | None = None
        self.chart_sha256: str | None = None

    def problem(self, results: Path, chart_json: Path | None) -> str | None:
        import checks

        digest = checks.sha256_file(results)
        if self.report is None:
            self.results_sha256 = digest
            self.report = checks.check_results(results, self.bench.expected, self.bench.ref)
            found = self.report.problems
            if found:
                self.first_problem = f"results: {len(found)} wrong rows, first: {found[0]}"
        elif digest != self.results_sha256:
            found = checks.check_results(results, self.bench.expected, self.bench.ref).problems
            return f"results digest changed; {len(found)} wrong rows {found[:1]}"
        if self.first_problem:
            return self.first_problem
        if chart_json is not None:
            chart_digest = checks.sha256_file(chart_json)
            if self.chart_sha256 is None:
                self.chart_sha256 = chart_digest
                doc = json.loads(chart_json.read_text(encoding="utf-8"))
                got = {entry["name"]: entry["count"] for entry in doc["labels"]}
                want = {name: self.report.labels.get(name, 0) for name in got}
                if doc["total"] != len(self.bench.expected) or got != want:
                    return f"chart counts {got}, results have {want}"
            elif chart_digest != self.chart_sha256:
                return "chart digest changed"
        return None


def repeat_for(bench: Bench, seconds: float, minimum: int, step) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call of
    average length still ends within ``seconds``."""
    start = time.perf_counter()
    done = 0
    while not bench.out_of_time():
        elapsed = time.perf_counter() - start
        if done >= max(minimum, 1) and elapsed + elapsed / done > seconds:
            break
        step()
        done += 1


def measure_end_to_end(bench: Bench, check: OutputCheck, seconds: float) -> tuple[dict, dict]:
    # Times are normalised (ChildRun.normalised_s); the measured ones and
    # the probe times are kept in the record as "measured".
    samples = {"setup_s": [], "cache_check_s": [], "wall_s": [], "peak_rss_mb": []}
    measured = {"setup_s": [], "cache_check_s": [], "wall_s": [], "probe_s": []}

    def keep(name: str, child: ChildRun) -> None:
        samples[name].append(child.normalised_s)
        measured[name].append(child.seconds)
        measured["probe_s"].append(child.probe_s)

    for _ in range(SETUP_REPS):
        bench.cache_path.unlink(missing_ok=True)
        child = bench.build_cache()
        bench.record(exit_problem("cold build-cache", child, "wrote cache"))
        keep("setup_s", child)

    chart = bench.work / "chart.json" if bench.workload.chart else None

    def iteration(timed: bool) -> None:
        for _ in range(CHECKS_PER_CALL):
            up_to_date = bench.build_cache()
            bench.record(exit_problem("build-cache", up_to_date, "cache up to date"))
            if timed:
                keep("cache_check_s", up_to_date)
        child = bench.predict()
        problem = exit_problem("predict", child)
        bench.record(problem or check.problem(bench.results, chart))
        if timed:
            keep("wall_s", child)
            samples["peak_rss_mb"].append(child.rss_mb)

    iteration(timed=False)  # warm-up: page cache, bytecode, the full output check
    repeat_for(bench, seconds, MIN_CALLS, lambda: iteration(timed=True))

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["names_per_s"] = len(bench.expected) / metrics["wall_s"]
    samples["measured"] = measured
    return metrics, samples


def traced_repetition(bench: Bench, check: OutputCheck) -> dict | None:
    import checks

    spec = bench.work / "traced_spec.json"
    spec.write_text(json.dumps({
        "work": str(bench.work),
        "english_dir": str(bench.english_dir),
        "chinese_csv": str(bench.chinese_csv),
        "infile": str(bench.infile),
        "results": str(bench.results),
    }), encoding="utf-8")
    bench.results.unlink(missing_ok=True)
    child = bench.child([sys.executable, str(BENCH_DIR / "traced.py"), str(spec)],
                        [SRC, TESTS])
    problem = exit_problem("traced run", child)
    if problem:
        bench.record(problem)
        return None
    doc = json.loads(child.stdout.strip().splitlines()[-1])
    if doc["disagreements"]:
        problem = f"traced run: {doc['disagreements']} disagreements with run_batch or references"
    elif doc["oracle_max_error"] > checks.ORACLE_TOLERANCE:
        problem = (f"traced run: oracle error {doc['oracle_max_error']:.3g} "
                   f"> {checks.ORACLE_TOLERANCE}")
    else:
        problem = check.problem(bench.results, None)
    bench.record(problem)
    doc["peak_rss_mb"] = child.rss_mb
    return doc


def layer_metrics(doc: dict) -> dict:
    metrics = {f"{name}_s": doc["durations"][name] for name in STAGE_SPANS}
    metrics.update({f"{layer}_s": busy for layer, busy in doc["busy"].items()})
    run_batch = doc["durations"]["batchio.run_batch"]
    metrics["classifier.unattributed_s"] = run_batch - sum(doc["busy"].values())
    metrics["trace.overhead_s"] = (doc["durations"]["trace.traced_batch"]
                                   - doc["durations"]["trace.untraced_batch"])
    metrics["trace.peak_rss_mb"] = doc["peak_rss_mb"]
    metrics["cache.bytes"] = doc["cache_bytes"]
    metrics["classifier.english_hit_ratio"] = doc["english_hit_ratio"]
    metrics["classifier.chinese_hit_ratio"] = doc["chinese_hit_ratio"]
    return metrics


def measure_traced(bench: Bench, check: OutputCheck, seconds: float) -> tuple[dict, dict]:
    starts = []
    for _ in range(CLI_START_REPS):
        child = bench.cli("--version")
        bench.record(exit_problem("namecensus --version", child, "namecensus"))
        starts.append(child.normalised_s)

    traced_repetition(bench, check)  # warm-up
    docs = []

    def repetition() -> None:
        doc = traced_repetition(bench, check)
        if doc is not None:
            docs.append(doc)

    repeat_for(bench, seconds, MIN_TRACED, repetition)

    per_doc = [layer_metrics(doc) for doc in docs]
    samples = {name: [m[name] for m in per_doc] for name in declared_units(trace=True)
               if name != "cli.start_s"}
    samples["cli.start_s"] = starts
    # With no successful repetition the run is already marked incorrect;
    # 0.0 keeps the result line valid JSON.
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in samples.items()}
    last = docs[-1] if docs else {}
    samples["calls"] = last.get("calls")
    samples["spans"] = last.get("spans")
    samples["oracle_max_error"] = max((d["oracle_max_error"] for d in docs), default=None)
    return metrics, samples


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result record."""
    import checks
    import workloads

    env = environment(seed)
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workloads.WORKLOADS[name], seed, work,
                  deadline=time.monotonic() + RUN_LIMIT_S, spawner=Spawner())
    try:
        bench.prepare()
        check = OutputCheck(bench)
        measure = measure_traced if trace else measure_end_to_end
        metrics, samples = measure(bench, check, seconds)
        mix = checks.workload_mix(bench.expected, bench.ref, check.report)
    finally:
        bench.spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    if bench.out_of_time():
        bench.record(f"run stopped at the {RUN_LIMIT_S:.0f} s limit")
    units = declared_units(trace)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "error_rate": bench.failed / bench.attempted,
        "problems": bench.problems,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "results_sha256": check.results_sha256,
        "chart_sha256": check.chart_sha256,
        "samples": samples,
        "mix": mix,
        "env": env,
    }


def print_record(record: dict, prefix: str = "") -> None:
    for name, metric in record["metrics"].items():
        print(f"{prefix}{name} {metric['value']:.6g} {metric['unit']}")
    print(f"{prefix}error_rate {record['error_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    print(f"{prefix}results_sha256 {record['results_sha256']}")
    for problem in record["problems"]:
        print(f"{prefix}problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run, after set-up and warm-up "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="JSON-lines file each run's full record is appended to")
    args = parser.parse_args(argv)
    try:
        require_sources()
    except MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    pin_to_one_cpu()

    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    for record in records:
        print_record(record, prefix=f"{record['workload']} " if len(records) > 1 else "")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
