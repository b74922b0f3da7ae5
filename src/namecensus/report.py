"""Aggregate chart emission (JSON + static SVG) and accuracy evaluation."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from namecensus.batchio import AggregateStats
from namecensus.classifier import GenderLabel
from namecensus.errors import NamecensusError
from namecensus.textio import column, csv_rows, replace_file

SVG_BAR_SCALE = 400  # px for a 100% bar
_BAR_WIDTH = 80
_BAR_GAP = 30
_MARGIN = 40


def chart_payload(stats: AggregateStats) -> dict:
    return {
        "total": stats.total,
        "labels": [
            {
                "name": label.value,
                "count": stats.counts[label],
                "percent": stats.percentages[label],
            }
            for label in GenderLabel
        ],
    }


def render_svg(stats: AggregateStats) -> str:
    width = 2 * _MARGIN + 4 * _BAR_WIDTH + 3 * _BAR_GAP
    height = 2 * _MARGIN + SVG_BAR_SCALE + 30
    baseline = _MARGIN + SVG_BAR_SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{_MARGIN}" y1="{baseline}" x2="{width - _MARGIN}" '
        f'y2="{baseline}" stroke="black"/>',
    ]
    for i, label in enumerate(GenderLabel):
        pct = stats.percentages[label]
        bar_h = pct / 100.0 * SVG_BAR_SCALE
        x = _MARGIN + i * (_BAR_WIDTH + _BAR_GAP)
        y = baseline - bar_h
        parts.append(
            f'<rect class="bar" x="{x}" y="{y:.3f}" width="{_BAR_WIDTH}" '
            f'height="{bar_h:.3f}" fill="#4c72b0"/>'
        )
        parts.append(
            f'<text x="{x + _BAR_WIDTH / 2}" y="{baseline + 20}" '
            f'text-anchor="middle" font-size="14">{label.value}</text>'
        )
        parts.append(
            f'<text x="{x + _BAR_WIDTH / 2}" y="{y - 6:.3f}" '
            f'text-anchor="middle" font-size="13">'
            f"{pct:.1f}% ({stats.counts[label]})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_chart(stats: AggregateStats, json_path: str | Path, svg_path: str | Path) -> None:
    """Write the aggregate as machine-readable JSON and a static bar chart;
    a fault on either file leaves both as they were."""
    with replace_file(json_path) as json_fh, replace_file(svg_path) as svg_fh:
        json_fh.write(f"{json.dumps(chart_payload(stats), indent=2)}\n".encode())
        json_fh.flush()  # a fault on the JSON is raised before the SVG replaces its file
        svg_fh.write(f"{render_svg(stats)}\n".encode())


class EvalResult(NamedTuple):
    total: int
    correct: int
    accuracy: float
    confusion: dict[tuple[GenderLabel, GenderLabel], int]  # (predicted, gold)
    mismatches: list[tuple[str, GenderLabel, GenderLabel]]


def load_gold_labels(path: str | Path) -> dict[str, GenderLabel]:
    """Gold CSV `name,gender` with header; gender is Female or Male."""
    gold: dict[str, GenderLabel] = {}
    with csv_rows(path) as (header, reader):
        name_col = column(path, header, "name")
        gender_col = column(path, header, "gender")
        for row in filter(None, reader):  # blank lines are skipped
            where = f"{path}:{reader.line_num}"
            try:
                name, gender = row[name_col].strip(), row[gender_col].strip()
            except IndexError:
                raise NamecensusError(f"{where}: row has too few cells for name,gender") from None
            if not name:
                raise NamecensusError(f"{where}: blank gold name")
            if gender not in ("Female", "Male"):
                raise NamecensusError(f"{where}: gold gender must be Female or Male: {gender!r}")
            label = GenderLabel(gender)
            if name in gold and gold[name] is not label:
                raise NamecensusError(f"{where}: conflicting gold labels for {name!r}")
            gold[name] = label
    if not gold:
        raise NamecensusError(f"{path}: empty gold set")
    return gold


def evaluate(
    predicted: dict[str, GenderLabel], gold: dict[str, GenderLabel]
) -> EvalResult:
    """Strict scoring: only an exact label match counts as correct, so
    Unisex and Unknown are always wrong against binary gold. Every gold
    name must have a predicted label."""
    if not gold:
        raise NamecensusError("empty gold set")
    confusion = {(p, g): 0 for p in GenderLabel for g in (GenderLabel.FEMALE, GenderLabel.MALE)}
    mismatches = []
    correct = 0
    for name in sorted(gold):
        label = predicted[name]
        confusion[(label, gold[name])] += 1
        if label is gold[name]:
            correct += 1
        else:
            mismatches.append((name, label, gold[name]))
    total = len(gold)
    return EvalResult(
        total=total,
        correct=correct,
        accuracy=correct / total,
        confusion=confusion,
        mismatches=mismatches,
    )
