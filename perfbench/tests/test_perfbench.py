"""Tests of the benchmark's own code: span arithmetic, tracer patching,
the seeded input generator and the metric names.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spans(rows):
    """rows: (name, parent index, start, end)."""
    names = sorted({r[0] for r in rows})
    return spans.Spans(names, [names.index(r[0]) for r in rows],
                       [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])


class TestSelfTime:
    def test_nested_spans(self):
        s = _spans([
            ("a", -1, 0, 100),
            ("b", 0, 10, 30),
            ("c", 0, 40, 70),
            ("d", 2, 45, 55),
            ("a", -1, 200, 210),
        ])
        assert s.self_ns().tolist() == [50, 20, 20, 10, 10]

    def test_layer_metrics_from_spans(self):
        step, score = "pipeline.refinement_step", "models.FeedForwardClassifier.score"
        rows = []
        for k in range(2):
            t = 1000 * k
            i = len(rows)
            rows.append((step, -1, t, t + 500))
            rows.append(("pipeline.pseudo_learning_cycle", i, t + 10, t + 300))
            rows.append((score, i + 1, t + 20, t + 120))
            rows.append((score, i, t + 320, t + 420))
        rows.append((score, -1, 5000, 5100))  # outside any step
        rows.append(("data.load_csv", -1, 6000, 6000 + 10**9))
        m = spans.layer_metrics(_spans(rows), rows_per_load=500, overhead=1.25)
        assert m["pipeline.refinement_step.calls"] == 2
        assert m["pipeline.refinement_step.self_s"] == pytest.approx(2 * 110 / 1e9)
        assert m["pipeline.refinement_step.mean_us"] == pytest.approx(0.5)
        assert m["pipeline.pseudo_learning_cycle.self_s"] == pytest.approx(2 * 190 / 1e9)
        assert m["models.FeedForwardClassifier.score.calls"] == 5
        assert m["models.ffn_forwards_per_refine_step"] == 2.0
        assert m["data.load_csv.rows_per_s"] == pytest.approx(500.0)
        assert m["trace.overhead"] == 1.25
        assert m["models.blend.calls"] == 0 and m["models.blend.mean_us"] == 0.0
        assert set(m) == set(spans.metric_units())


def _layer_attributes():
    """Every (owner, attribute) the tracer may patch, with its current value."""
    import importlib

    for layer in spans.LAYERS:
        importlib.import_module(f"reckoner.{layer}")
    mods = [m for n, m in sys.modules.items() if n == "reckoner" or n.startswith("reckoner.")]
    out = {}
    for mod in mods:
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    for layer, attrs in spans.LAYERS.items():
        home = sys.modules[f"reckoner.{layer}"]
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                out[(f"{home.__name__}.{cls_name}", meth)] = cls.__dict__[meth]
    return out


class TestTracer:
    def test_spans_recorded_and_wrappers_restored(self, tmp_path):
        import reckoner.cli
        import reckoner.data

        before = _layer_attributes()
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("c,x,y,s\na,1.0,1,g\nb,2.0,0,h\na,3.0,1,g\n")
        schema = reckoner.data.Schema.from_dict({"columns": [
            {"name": "c", "kind": "categorical"}, {"name": "x", "kind": "numeric"},
            {"name": "y", "kind": "label"}, {"name": "s", "kind": "sensitive"}],
            "hash_buckets": 4})

        tracer = spans.Tracer("test")
        tracer.install()
        try:
            assert reckoner.cli.load_csv is not before[("reckoner.cli", "load_csv")]
            assert reckoner.cli.load_csv is reckoner.data.load_csv
            reckoner.cli.load_csv(csv_path, schema)
        finally:
            tracer.restore()
        assert _layer_attributes() == before

        path = tmp_path / "spans.npz"
        tracer.save(path)
        s = spans.Spans.load(path)
        assert s.mask("data.load_csv").sum() == 1
        hashed = s.mask("data.hash_features")
        assert hashed.sum() == 3
        assert (s.parents[hashed] == np.flatnonzero(s.mask("data.load_csv"))[0]).all()
        assert (s.dur >= 0).all()


class TestGenerator:
    def test_mixed_csv_deterministic_per_seed(self, tmp_path):
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        gen.write_mixed_csv(a, 500, seed=3, stream=1)
        gen.write_mixed_csv(b, 500, seed=3, stream=1)
        gen.write_mixed_csv(c, 500, seed=4, stream=1)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        header = a.read_text().splitlines()[0].split(",")
        assert header == [c["name"] for c in gen.mixed_schema()["columns"]]

    def test_scoring_table_differs_from_training_table(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        gen.write_mixed_csv(a, 200, seed=3, stream=1)
        gen.write_mixed_csv(b, 200, seed=3, stream=2)
        assert a.read_bytes() != b.read_bytes()

    def test_numeric_csv_deterministic_per_seed(self, tmp_path):
        from reckoner.cli import main

        outs = []
        for k, seed in enumerate((5, 5, 6)):
            cfg = tmp_path / f"synth{k}.json"
            gen.write_json(cfg, dict(gen.synth_config(seed), n=300))
            out = tmp_path / f"d{k}.csv"
            assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] != outs[2]

    def test_mixed_encoding_width(self):
        from reckoner.data import Schema

        assert Schema.from_dict(gen.mixed_schema()).m == 130


class TestMetricNames:
    def test_names_are_well_formed(self):
        names = list(run.END_TO_END) + list(spans.metric_units()) + list(run.WORKLOADS)
        for name in names:
            assert NAME.fullmatch(name), name
        assert len(set(names)) == len(names)

    def test_benchmark_json_matches_code(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.metric_units()
        for m in doc["end_to_end"] + doc["per_layer"]:
            assert NAME.fullmatch(m["name"]), m["name"]
