"""Command-line entry point: build-cache, predict, eval, chart.

Each command imports the modules it runs when it starts, so an up-to-date
build-cache, the call made before every batch, loads no classifier, batch
or chart code."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from namecensus import __version__
from namecensus.errors import CacheError, NamecensusError

# The status a shell reports for a program that SIGPIPE ends: the reader of
# stdout closed it early, as `| head` does.
EXIT_BROKEN_PIPE = 128 + 13


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default=os.environ.get("NAMECENSUS_CACHE"),
        metavar="FILE.ncm",
        help="model cache path (default: $NAMECENSUS_CACHE)",
    )
    parser.add_argument("--threshold", type=float, default=None,
                        help="decisive posterior threshold (default 0.60)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="add-alpha smoothing for Chinese characters (default 1.0)")
    parser.add_argument("--priors", metavar="empirical|uniform", default=None,
                        help="gender priors mode (default empirical)")
    parser.add_argument("--config", metavar="FILE.json", default=None,
                        help="JSON config file; flags override its values")


def _read_config(path: str) -> dict:
    import json

    from namecensus.classifier import ClassifierConfig
    from namecensus.textio import read_text

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise NamecensusError(f"{path}: duplicate config key {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(read_text(path), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # JSON syntax, or nesting too deep
        raise NamecensusError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise NamecensusError(f"{path}: config must be a JSON object")
    for key in doc:
        if key not in ClassifierConfig._fields:
            raise NamecensusError(f"{path}: unknown config key {key!r}")
    return doc


def _resolve_config(args: argparse.Namespace) -> ClassifierConfig:
    """Flags override the --config file, which overrides the defaults. Each
    value is checked alone, every file key and then every flag, so a bad
    file value is an error even where a flag overrides it."""
    from namecensus.classifier import ClassifierConfig

    base = _read_config(args.config) if args.config else {}
    given = [(f"{args.config}: config key {key!r}", key, value) for key, value in base.items()]
    given += [("--" + key, key, getattr(args, key)) for key in ClassifierConfig._fields
              if getattr(args, key) is not None]
    values = {}
    for source, key, value in given:
        try:
            ClassifierConfig(**{key: value})
        except ValueError as exc:
            raise NamecensusError(f"{source}: {exc}") from None
        values[key] = value
    return ClassifierConfig(**values)


def cmd_build_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from namecensus.cache import digest_corpus_files, read_source_digest, save_cache
    from namecensus.corpus import find_year_files, load_chinese_charfreq, load_english_year_files
    from namecensus.textio import regular_file

    out = Path(args.out)
    year_files = find_year_files(args.english_dir)
    chinese_path = Path(args.chinese_csv)
    digest = digest_corpus_files(year_files + [chinese_path])
    # A pipe, a device or a file reached through a descriptor (/dev/stdout) is
    # never read back: the read could take the process's own output.
    if regular_file(out):
        try:
            if read_source_digest(out) == digest:
                print(f"cache up to date: {out}")
                return 0
        except CacheError:
            pass  # a cache this build cannot read: rebuild
    english = load_english_year_files(args.english_dir)
    chinese = load_chinese_charfreq(chinese_path)
    save_cache(english, chinese, out, source_digest=digest)
    print(f"wrote cache: {out}")
    print(f"english distinct names: {len(english.entries)}")
    print(f"chinese distinct characters: {len(chinese.entries)}")
    return 0


def _print_stats(stats) -> None:
    from namecensus.classifier import GenderLabel

    print(f"total names: {stats.total}")
    for label in GenderLabel:
        print(f"  {label.value:<8} {stats.counts[label]:>8} ({stats.percentages[label]:.1f}%)")


def _load_model(args: argparse.Namespace):
    """The config and the model cache of predict/eval."""
    from namecensus.cache import load_cache

    config = _resolve_config(args)
    if not args.cache:
        raise NamecensusError("missing required flag --cache")
    return config, load_cache(args.cache)


def _flag_values(args: argparse.Namespace, flags: tuple[str, ...]) -> list[tuple[str, str | None]]:
    """Each flag with its value. --in is stored as `infile`: `in` is a keyword."""
    return [(flag, getattr(args, "infile" if flag == "--in" else flag[2:].replace("-", "_")))
            for flag in flags]


def _distinct_files(inputs: list[tuple[str, str | None]],
                    outputs: list[tuple[str, str | None]]) -> None:
    """An output naming an input file or another output, through any path
    or link, would replace bytes the run still reads or writes. A pipe or
    a terminal is no file: `--in /dev/stdin --out /dev/stdout` is fine."""
    from namecensus.textio import regular_file

    seen = {}
    for flag, path in inputs:
        if path and regular_file(path):
            seen.setdefault(os.path.realpath(path), flag)
    for flag, path in outputs:
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise NamecensusError(f"{seen[real]} and {flag} name the same file: {path}")
            seen[real] = flag


def cmd_predict(args: argparse.Namespace) -> int:
    from namecensus.batchio import input_format, iter_names, predict_to_results

    if bool(args.chart_json) != bool(args.chart_svg):
        raise NamecensusError("--chart-json and --chart-svg go together")
    if input_format(args.infile, args.format) == "txt":
        for flag, given in (("--name-column", args.name_column is not None),
                            ("--no-header", args.no_header)):
            if given:
                raise NamecensusError(f"{flag} applies to CSV input only; "
                                      f"{args.infile} is read as txt")
    config, cache = _load_model(args)
    start = time.perf_counter()
    name_column = "name" if args.name_column is None else args.name_column
    names = iter_names(args.infile, format=args.format, name_column=name_column,
                       has_header=not args.no_header)
    stats = predict_to_results(cache.english, cache.chinese, config, names, args.out)
    elapsed = time.perf_counter() - start
    _print_stats(stats)
    rate = stats.total / elapsed if elapsed > 0 else float("inf")
    print(f"predicted {stats.total} names in {elapsed:.3f}s ({rate:.0f} names/s)")
    if args.chart_json:
        from namecensus.report import emit_chart

        emit_chart(stats, args.chart_json, args.chart_svg)
        print(f"wrote chart: {args.chart_json}, {args.chart_svg}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from namecensus.classifier import GenderLabel, decide, route
    from namecensus.report import evaluate, load_gold_labels

    config, cache = _load_model(args)
    gold = load_gold_labels(args.gold)  # its names are stripped
    result = evaluate({name: decide(cache.english, cache.chinese, config, *route(name))[1]
                       for name in gold}, gold)
    print(f"total: {result.total}")
    print(f"correct: {result.correct}")
    print(f"accuracy: {result.accuracy:.4f}")
    print("confusion (predicted x gold):")
    print(f"  {'':<8} {'Female':>8} {'Male':>8}")
    for predicted in GenderLabel:
        row = [
            result.confusion[(predicted, gold_label)]
            for gold_label in (GenderLabel.FEMALE, GenderLabel.MALE)
        ]
        print(f"  {predicted.value:<8} {row[0]:>8} {row[1]:>8}")
    if result.mismatches:
        print("mismatches:")
        for name, predicted, gold_label in result.mismatches:
            print(f"  {name}: predicted {predicted.value}, gold {gold_label.value}")
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    from namecensus.batchio import aggregate_labels, iter_result_labels
    from namecensus.report import emit_chart

    stats = aggregate_labels(iter_result_labels(args.results))
    emit_chart(stats, args.json, args.svg)
    _print_stats(stats)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namecensus",
        description="Batch gender inference for mixed Chinese/English name lists.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-cache", help="train models from corpora and cache them")
    p.add_argument("--english-dir", required=True, metavar="DIR",
                   help="directory of yob<YYYY>.txt files")
    p.add_argument("--chinese-csv", required=True, metavar="FILE.csv",
                   help="char,female,male frequency table")
    p.add_argument("--out", required=True, metavar="FILE.ncm")
    p.set_defaults(func=cmd_build_cache, inputs=(), outputs=("--out",))

    p = sub.add_parser("predict", help="predict a batch of names")
    _add_model_flags(p)
    p.add_argument("--in", dest="infile", required=True, metavar="NAMES")
    p.add_argument("--format", choices=["txt", "csv", "auto"], default="auto")
    p.add_argument("--name-column", default=None,
                   help="CSV column holding names (name or 0-based index; default name)")
    p.add_argument("--no-header", action="store_true",
                   help="CSV input has no header row")
    p.add_argument("--out", required=True, metavar="RESULTS.csv")
    p.add_argument("--chart-json", default=None, metavar="CHART.json")
    p.add_argument("--chart-svg", default=None, metavar="CHART.svg")
    p.set_defaults(func=cmd_predict, inputs=("--in", "--cache", "--config"),
                   outputs=("--out", "--chart-json", "--chart-svg"))

    p = sub.add_parser("eval", help="score the names of a gold file against their labels")
    _add_model_flags(p)
    p.add_argument("--gold", required=True, metavar="GOLD.csv",
                   help="gold labels CSV: name,gender")
    p.set_defaults(func=cmd_eval, inputs=(), outputs=())

    p = sub.add_parser("chart", help="re-emit the chart from a results CSV")
    p.add_argument("--results", required=True, metavar="RESULTS.csv")
    p.add_argument("--json", required=True, metavar="CHART.json")
    p.add_argument("--svg", required=True, metavar="CHART.svg")
    p.set_defaults(func=cmd_chart, inputs=("--results",), outputs=("--json", "--svg"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        from namecensus.textio import names_stdout

        outputs = _flag_values(args, args.outputs)
        _distinct_files(_flag_values(args, args.inputs), outputs)
        # Output written to stdout is kept free of the summary lines, so it can be piped.
        to_stderr = any(path and names_stdout(path) for _, path in outputs)
        with contextlib.redirect_stdout(sys.stderr) if to_stderr else contextlib.nullcontext():
            code = args.func(args)
        if sys.stdout is not None:  # None when the process starts with stdout closed
            sys.stdout.flush()  # a closed pipe on stdout is raised here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null, so the interpreter's flush at exit cannot
        # raise again (the "Note on SIGPIPE" of the signal module's docs).
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (NamecensusError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
