import json
import random
import re
from pathlib import Path

import pytest

from namecensus import textio
from namecensus.batchio import AggregateStats
from namecensus.classifier import GenderLabel, Posterior, Prediction
from namecensus.errors import NamecensusError
from namecensus.report import (
    SVG_BAR_SCALE,
    chart_payload,
    emit_chart,
    evaluate,
    load_gold_labels,
    render_svg,
)
from namecensus.scriptdetect import Script


def stats_from_counts(female, male, unisex, unknown):
    counts = {
        GenderLabel.FEMALE: female,
        GenderLabel.MALE: male,
        GenderLabel.UNISEX: unisex,
        GenderLabel.UNKNOWN: unknown,
    }
    total = sum(counts.values())
    return AggregateStats(
        counts=counts,
        percentages={lb: 100.0 * n / total for lb, n in counts.items()},
        total=total,
    )


def svg_bar_heights(svg: str) -> list[float]:
    return [
        float(m.group(1))
        for m in re.finditer(r'class="bar"[^/]*height="([0-9.]+)"', svg)
    ]


class TestChart:
    def test_json_schema_and_round_trip(self, tmp_path):
        stats = stats_from_counts(3, 6, 1, 0)
        json_path, svg_path = tmp_path / "c.json", tmp_path / "c.svg"
        emit_chart(stats, json_path, svg_path)
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["total"] == 10
        assert [e["name"] for e in doc["labels"]] == [
            "Female", "Male", "Unisex", "Unknown",
        ]
        for entry in doc["labels"]:
            label = GenderLabel(entry["name"])
            assert entry["count"] == stats.counts[label]
            assert entry["percent"] == stats.percentages[label]  # no re-rounding

    @pytest.mark.parametrize("failing", ["c.json", "c.svg"])
    def test_write_fault_on_either_file_keeps_both(self, tmp_path, monkeypatch, failing):
        json_path, svg_path = tmp_path / "c.json", tmp_path / "c.svg"
        json_path.write_bytes(b"old json\n")
        svg_path.write_bytes(b"old svg\n")
        real_write = textio._Output.write

        def write(self, data):
            if Path(self.path).name == failing:
                raise OSError("disk full")
            return real_write(self, data)

        monkeypatch.setattr(textio._Output, "write", write)
        with pytest.raises(OSError, match="^disk full$"):
            emit_chart(stats_from_counts(3, 6, 1, 0), json_path, svg_path)
        assert json_path.read_bytes() == b"old json\n"
        assert svg_path.read_bytes() == b"old svg\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "c.svg"]

    def test_bar_heights_proportional(self):
        stats = stats_from_counts(3, 6, 1, 0)
        heights = svg_bar_heights(render_svg(stats))
        assert len(heights) == 4
        assert heights[1] == pytest.approx(2 * heights[0], abs=1.0)
        for label, height in zip(
            [GenderLabel.FEMALE, GenderLabel.MALE, GenderLabel.UNISEX,
             GenderLabel.UNKNOWN],
            heights,
        ):
            expected = stats.percentages[label] / 100.0 * SVG_BAR_SCALE
            assert height == pytest.approx(expected, abs=1.0)

    def test_single_label_stats(self):
        heights = svg_bar_heights(render_svg(stats_from_counts(0, 0, 0, 4)))
        assert heights == [0.0, 0.0, 0.0, SVG_BAR_SCALE]

    def test_payload_percent_exact(self):
        stats = stats_from_counts(1, 2, 0, 0)
        payload = chart_payload(stats)
        assert payload["labels"][0]["percent"] == stats.percentages[GenderLabel.FEMALE]


def _pred(name, label):
    found = label is not GenderLabel.UNKNOWN
    return Prediction(name, Script.LATIN, name.lower(),
                      Posterior(found, 9, 1) if found else Posterior(False),
                      label)


class TestEvaluate:
    def test_strict_scoring_counts_unisex_as_wrong(self):
        preds = [_pred(f"n{i}", GenderLabel.FEMALE) for i in range(9)]
        preds.append(_pred("n9", GenderLabel.UNISEX))
        gold = {f"n{i}": GenderLabel.FEMALE for i in range(10)}
        result = evaluate(preds, gold)
        assert result.accuracy == pytest.approx(0.9)
        assert result.mismatches == [("n9", GenderLabel.UNISEX, GenderLabel.FEMALE)]

    def test_all_unknown_is_zero_accuracy(self):
        preds = [_pred(f"n{i}", GenderLabel.UNKNOWN) for i in range(4)]
        gold = {f"n{i}": GenderLabel.MALE for i in range(4)}
        assert evaluate(preds, gold).accuracy == 0.0

    def test_permutation_invariant(self):
        preds = [_pred(f"n{i}", random.Random(i).choice(list(GenderLabel)))
                 for i in range(20)]
        gold = {f"n{i}": GenderLabel.FEMALE for i in range(20)}
        shuffled = preds[::-1]
        assert evaluate(preds, gold) == evaluate(shuffled, gold)

    def test_confusion_reconciles_with_total(self):
        preds = [
            _pred("a", GenderLabel.FEMALE),
            _pred("b", GenderLabel.MALE),
            _pred("c", GenderLabel.UNISEX),
            _pred("d", GenderLabel.UNKNOWN),
        ]
        gold = {
            "a": GenderLabel.FEMALE,
            "b": GenderLabel.FEMALE,
            "c": GenderLabel.MALE,
            "d": GenderLabel.MALE,
        }
        result = evaluate(preds, gold)
        assert sum(result.confusion.values()) == result.total == 4
        assert result.correct == 1
        assert len(result.mismatches) == result.total - result.correct

    def test_empty_gold_error(self):
        with pytest.raises(NamecensusError, match="empty"):
            evaluate([_pred("a", GenderLabel.MALE)], {})


class TestGoldFile:
    def test_load(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("name,gender\nAda Lovelace,Female\n王青,Male\n", encoding="utf-8")
        gold = load_gold_labels(path)
        assert gold == {
            "Ada Lovelace": GenderLabel.FEMALE,
            "王青": GenderLabel.MALE,
        }

    def test_load_with_bom(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("\ufeffname,gender\nAda Lovelace,Female\n", encoding="utf-8")
        assert load_gold_labels(path) == {"Ada Lovelace": GenderLabel.FEMALE}

    def test_conflicting_duplicates(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("name,gender\nA,Female\nA,Male\n", encoding="utf-8")
        with pytest.raises(NamecensusError, match="conflicting"):
            load_gold_labels(path)

    def test_bad_gender_value(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("name,gender\nA,Unisex\n", encoding="utf-8")
        with pytest.raises(NamecensusError, match="Female or Male"):
            load_gold_labels(path)

    @pytest.mark.parametrize("row, message", [
        ("Ada Lovelace", "row has too few cells for name,gender"),
        (" ,Female", "blank gold name"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "gold.csv"
        path.write_text(f"name,gender\nAlan Turing,Male\n{row}\n", encoding="utf-8")
        with pytest.raises(NamecensusError) as exc:
            load_gold_labels(path)
        assert str(exc.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("data, message", [
        (b"name,gender\nAda Lovelace,Female\n\xff,Male\n", "3: invalid UTF-8 at byte offset 32"),
        (b"name,gender\n" + b"x" * 200_000 + b",Male\n",
         "2: field larger than field limit (131072)"),
    ], ids=["bad-byte", "field-limit"])
    def test_bad_file_names_file_and_line(self, tmp_path, data, message):
        path = tmp_path / "gold.csv"
        path.write_bytes(data)
        with pytest.raises(NamecensusError) as exc:
            load_gold_labels(path)
        assert str(exc.value) == f"{path}:{message}"

    def test_empty_gold_file(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("name,gender\n", encoding="utf-8")
        with pytest.raises(NamecensusError, match="empty"):
            load_gold_labels(path)
