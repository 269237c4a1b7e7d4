"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
from hkr import catalog  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY_FORMS = ["sl_r:n=2", "su:p=1,q=2"]
TINY_CONSTRUCT = {"kind": "construct", "forms": TINY_FORMS}
TINY_VERIFY = {"kind": "verify", "forms": TINY_FORMS, "samples": 1,
               "fiber_samples": 1, "conjugators": 1, "global": False}


def test_tiny_configuration_emits_every_end_to_end_metric():
    for spec in (TINY_CONSTRUCT, TINY_VERIFY):
        result, _passes = run.measure(spec, 0, 0, trace=False)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(TINY_FORMS)
        metrics = result["metrics"]
        assert list(metrics) == [name for name, _unit in run.END_TO_END]
        for name, unit in run.END_TO_END:
            assert metrics[name]["unit"] == unit
            assert metrics[name]["value"] > 0


def test_op_cost_is_median_latency_over_reference():
    passes = [{"setup_s": 0.1, "rss_kb": 2048,
               "ops": [{"op": "a", "s": 1.0, "ref_s": 0.5},
                       {"op": "b", "s": 4.0, "ref_s": 0.5}]},
              {"setup_s": 0.3, "rss_kb": 2048,
               "ops": [{"op": "a", "s": 3.0, "ref_s": 1.0},
                       {"op": "b", "s": 2.0, "ref_s": 1.0}]},
              {"setup_s": 0.2, "rss_kb": 2048,
               "ops": [{"op": "a", "s": 0.5, "ref_s": 0.25},
                       {"op": "b", "s": 2.0, "ref_s": 0.25}]}]
    metrics = run.end_to_end(passes, [0.2])
    assert metrics["pass_ref"] == 2.0 + 8.0
    assert metrics["op_gmean_ref"] == 4.0 and metrics["op_max_ref"] == 8.0
    assert metrics["setup_s"] == 0.2 and metrics["peak_rss_mb"] == 2.0


def test_wrong_reference_row_counts_as_failure():
    ops = worker.make_inputs(TINY_CONSTRUCT)
    sl2 = ops[0][1]

    def reference(fid):
        row = catalog.lookup_table1(fid)
        if fid == sl2:
            return catalog.TableOneEntry(row.form, "sl(3,R)", "A2", False)
        return row

    result = worker.run_pass(TINY_CONSTRUCT, 0, ops, reference=reference)
    attempted, failed = run.count_failures([result])
    assert (attempted, failed) == (2, 1)
    bad = result["ops"][0]
    assert not bad["ok"] and len(bad["problems"]) == 4


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result, _passes = run.measure(TINY_VERIFY, 5, 0, trace=True)
        assert result["correct"] and result["attempted"] == 2 * len(TINY_FORMS)
        assert result["metrics"]["trace.overhead"]["value"] > 0
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if name.endswith((".calls", ".max_order", "_over_n"))})
    assert counts[0] == counts[1]
    assert counts[0]["verify.verify_form.calls"] == len(TINY_FORMS)
    assert counts[0]["scalars.mul.calls"] > 0


def test_tracer_restores_every_original():
    from hkr import linalg, scalars
    before = (linalg.rref, scalars.Scalar.__mul__, scalars.Scalar.__radd__)
    tracer = Tracer().install()
    assert linalg.rref is not before[0]
    tracer.uninstall()
    assert (linalg.rref, scalars.Scalar.__mul__,
            scalars.Scalar.__radd__) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [(2, 1, "linalg.rref", 1.0, 2.0, True),
                    (3, 1, "linalg.rref", 2.5, 3.0, True),
                    (1, 0, "linalg.kernel_right", 0.0, 4.0, True)]
    out = tracer.layer_metrics()
    assert out["linalg.kernel_right.s"] == 4.0
    assert out["linalg.kernel_right.self_s"] == 2.5
    assert out["linalg.rref.calls"] == 2 and out["linalg.rref.self_s"] == 1.5


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "construct", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
