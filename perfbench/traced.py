"""One traced repetition of the predict pipeline, in a fresh interpreter.

    python3 perfbench/traced.py SPEC.json

``run.py`` starts this once per repetition, so repetitions never share
a heap. It calls the public functions of each namecensus module in
turn, the way ``build-cache`` and ``predict`` do, and records a span
around each call. The per-record layers (script detection, name split,
posteriors, labelling) are timed call by call in a loop that routes
each name as ``classifier.predict`` does, and summed per layer.
``batchio.run_batch`` itself is timed untraced, and so is the same loop
without its clock reads; the difference between the traced and the
untraced loop is the tracing overhead.

Needs ``src`` and ``tests`` on PYTHONPATH. Prints one JSON object:
spans, per-layer busy seconds and call counts, corpus hit ratios and
the outcome of the in-process correctness checks.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from namecensus import batchio, cache, corpus, report
from namecensus.classifier import (
    ClassifierConfig,
    Posterior,
    classify,
    posterior_chinese,
    posterior_english,
)
from namecensus.namesplit import (
    default_compound_surnames,
    split_chinese,
    split_english,
)
from namecensus.scriptdetect import Script, detect_script, han_substring

from checks import Reference

PER_RECORD_LAYERS = [
    "scriptdetect.detect_script",
    "scriptdetect.han_substring",
    "namesplit.split_english",
    "namesplit.split_chinese",
    "classifier.posterior_english",
    "classifier.posterior_chinese",
    "classifier.classify",
]


def span(spans: list[dict], name: str, fn, *args, **kwargs):
    """Call ``fn`` and record a span named ``name`` around the call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    end = time.perf_counter()
    spans.append({"name": name, "start": start, "end": end, "parent": "repetition"})
    return result


def untraced_batch(english, chinese, config, records):
    """The routing of ``traced_batch`` without its clock reads; the
    difference between the two is the tracing overhead."""
    compound = default_compound_surnames()
    outcomes = []
    for record in records:
        name = record.raw_name.strip()
        script = detect_script(name)
        if script in (Script.EMPTY, Script.OTHER):
            outcomes.append((script, "", Posterior(False), "Unknown"))
            continue
        if script in (Script.HAN, Script.MIXED):
            split = split_chinese(han_substring(name), compound)
            post = posterior_chinese(chinese, split.given, config)
        else:
            split = split_english(name)
            post = posterior_english(english, split.given)
        outcomes.append((script, split.given, post, classify(post, config).value))
    return outcomes


def traced_batch(english, chinese, config, records):
    """Per-record spans around each layer call; returns (outcomes, busy, calls)."""
    busy = dict.fromkeys(PER_RECORD_LAYERS, 0.0)
    calls = dict.fromkeys(PER_RECORD_LAYERS, 0)
    compound = default_compound_surnames()
    pc = time.perf_counter
    outcomes = []
    for record in records:
        name = record.raw_name.strip()
        t0 = pc()
        script = detect_script(name)
        t1 = pc()
        busy["scriptdetect.detect_script"] += t1 - t0
        calls["scriptdetect.detect_script"] += 1
        if script in (Script.EMPTY, Script.OTHER):
            outcomes.append((script, "", Posterior(False), "Unknown"))
            continue
        if script in (Script.HAN, Script.MIXED):
            han = han_substring(name)
            t2 = pc()
            split = split_chinese(han, compound)
            t3 = pc()
            post = posterior_chinese(chinese, split.given, config)
            t4 = pc()
            layers = ("scriptdetect.han_substring", "namesplit.split_chinese",
                      "classifier.posterior_chinese")
            stamps = (t1, t2, t3, t4)
        else:
            split = split_english(name)
            t2 = pc()
            post = posterior_english(english, split.given)
            t3 = pc()
            t4 = t3
            layers = ("namesplit.split_english", "classifier.posterior_english")
            stamps = (t1, t2, t3)
        label = classify(post, config)
        t5 = pc()
        for layer, a, b in zip(layers, stamps, stamps[1:]):
            busy[layer] += b - a
            calls[layer] += 1
        busy["classifier.classify"] += t5 - t4
        calls["classifier.classify"] += 1
        outcomes.append((script, split.given, post, label.value))
    return outcomes, busy, calls


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    work = Path(spec["work"])
    english_dir, chinese_csv = Path(spec["english_dir"]), Path(spec["chinese_csv"])
    config = ClassifierConfig()
    spans: list[dict] = []

    english = span(spans, "corpus.load_english", corpus.load_english_year_files,
                   english_dir)
    chinese = span(spans, "corpus.load_chinese", corpus.load_chinese_charfreq, chinese_csv)
    year_files = corpus.find_year_files(english_dir)
    digest = span(spans, "cache.digest", cache.digest_corpus_files,
                  year_files + [chinese_csv])
    cache_path = work / "traced.ncm"
    span(spans, "cache.save", cache.save_cache, english, chinese, cache_path,
         source_digest=digest)
    loaded = span(spans, "cache.load", cache.load_cache, cache_path)
    records = span(spans, "batchio.read_input", batchio.read_input, spec["infile"],
                   name_column="name")
    # run_batch goes first, as in the CLI, and pays for filling scriptdetect's
    # letter cache; the two loops after it find the cache equally warm.
    predictions = span(spans, "batchio.run_batch", batchio.run_batch,
                       loaded.english, loaded.chinese, config, records)
    untraced = span(spans, "trace.untraced_batch", untraced_batch,
                    loaded.english, loaded.chinese, config, records)
    outcomes, busy, calls = span(spans, "trace.traced_batch", traced_batch,
                                 loaded.english, loaded.chinese, config, records)
    span(spans, "batchio.write_results", batchio.write_results, predictions,
         spec["results"])
    stats = span(spans, "batchio.aggregate", batchio.aggregate, predictions)
    span(spans, "report.emit_chart", report.emit_chart, stats, work / "traced_chart.json",
         work / "traced_chart.svg")

    # In-process checks: both loops must reproduce run_batch, and every
    # posterior must match the independent references (Han oracle to 1e-9).
    ref = Reference(english_dir, chinese_csv)
    disagreements = abs(len(predictions) - len(outcomes)) + (untraced != outcomes)
    worst = 0.0
    for pred, (script, given, post, label) in zip(predictions, outcomes):
        if (pred.script, pred.given, pred.posterior, pred.label.value) != (
            script, given, post, label
        ):
            disagreements += 1
        expected = ref.posterior(script.value, given)
        if (expected is None) == post.evidence_found:
            disagreements += 1
        elif expected is not None:
            worst = max(worst, abs(post.p_female - expected[0]),
                        abs(post.p_male - expected[1]))

    english_hits = sum(1 for s, _, p, _ in outcomes if s is Script.LATIN and p.evidence_found)
    chinese_hits = sum(1 for s, _, p, _ in outcomes
                       if s in (Script.HAN, Script.MIXED) and p.evidence_found)
    tries_en = calls["classifier.posterior_english"]
    tries_zh = calls["classifier.posterior_chinese"]
    print(json.dumps({
        "spans": spans,
        "durations": {s["name"]: s["end"] - s["start"] for s in spans},
        "busy": busy,
        "calls": calls,
        "cache_bytes": cache_path.stat().st_size,
        "english_hit_ratio": english_hits / tries_en if tries_en else 0.0,
        "chinese_hit_ratio": chinese_hits / tries_zh if tries_zh else 0.0,
        "disagreements": disagreements,
        "oracle_max_error": worst,
    }))


if __name__ == "__main__":
    main()
