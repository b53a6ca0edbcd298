"""Tests of the benchmark itself: span arithmetic, the gate, the metric tables.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import threading

import pytest

import run
import spans
import workloads

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(sid, name, t0, t1, parent=0, error=None, attrs=None):
    return (sid, name, t0, t1, parent, error, attrs)


def test_self_time_subtracts_union_of_children_only():
    s = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 3.0, parent=1),
        span(3, "b", 2.0, 5.0, parent=1),  # overlaps a (worker thread)
        span(4, "a.inner", 1.5, 2.0, parent=2),  # grandchild: not root's child
        span(5, "late", 9.0, 12.0, parent=1),  # clipped to the parent's end
    ]
    own = spans.self_times(s)
    assert own[1] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 9.0))
    assert own[2] == pytest.approx(2.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_recorder_links_nested_and_worker_spans():
    rec = spans.Recorder()
    inner = rec.wrap(lambda: None, "inner")

    def work():
        inner()
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.wrap(work, "outer")()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[1], []).append(s)
    (outer,) = by_name["outer"]
    assert outer[4] == 0
    assert [s[4] for s in by_name["inner"]] == [outer[0], outer[0]]
    assert all(s[2] >= outer[2] and s[3] <= outer[3] for s in by_name["inner"])


def test_recorder_counts_failures():
    rec = spans.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap(boom, "certify.boundary_sample")()
    metrics = spans.layer_metrics([(None, rec.spans, 1.0)])
    assert metrics["certify.boundary_sample.calls"] == 1
    assert metrics["certify.boundary_sample.failed"] == 1


def test_layer_metrics_ratios_and_tags():
    s = [
        span(1, "fibers.flag_pool", 0.0, 4.0, attrs={"pairs": 1}),
        span(2, "certify.limit_set_sample", 0.0, 1.0, parent=1, attrs={"kept": 3, "attempted": 4}),
        span(3, "certify.boundary_sample", 0.1, 0.2, parent=2),
        span(4, "certify.boundary_sample", 1.0, 2.0, parent=1),
        span(5, "certify.boundary_sample", 2.0, 3.0, parent=1),
        span(6, "certify.boundary_sample", 3.0, 3.5, parent=1),
        span(7, "certify.gap_sweep", 5.0, 7.0),
    ]
    m = spans.layer_metrics([("sym4", s, 2.0)])
    assert m["fibers.adversarial.useful_ratio"] == pytest.approx(2 / 3)
    assert m["certify.limit_set_sample.yield"] == pytest.approx(0.75)
    assert m["certify.gap_sweep.sym4.busy_s"] == pytest.approx(2 * 2.0)  # scaled
    assert m["certify.gap_sweep.schottky.busy_s"] == 0.0
    assert set(m) == set(spans.PER_LAYER)


def test_unstable_counts_are_reported():
    a = dict.fromkeys(spans.PER_LAYER, 0)
    b = dict(a, **{"prodsvd.absorb.calls": 7})
    out, unstable = spans.combine_runs([a, b], traced_wall=2.0, plain_wall=1.5)
    assert out["trace.unstable_counts"] == 1
    assert "prodsvd.absorb.calls" in unstable[0]
    assert out["trace.overhead_s"] == pytest.approx(0.5)


def _reference_values(cmd):
    ref = dict(workloads.REFERENCE[cmd.argv])
    if cmd.kind == "certify":
        return {"verdict": "certified", "min_gaps": list(ref["min_gaps"])}
    if cmd.kind == "hyperconvex":
        return {"verdict": "passes", **ref}
    if cmd.kind == "dimension":
        return {"verdict": "below_2", "slope": ref["slope"], "ci": 0.05}
    return {"estimate": ref["estimate"], "sigma": 5e-4, "mc": 1000000}


ALL_DEFAULTS = [c for w in workloads.WORKLOADS.values() for c in w.defaults]


@pytest.mark.parametrize("cmd", ALL_DEFAULTS, ids=lambda c: " ".join(c.argv[:2]))
def test_gate_accepts_reference_values(cmd):
    got = _reference_values(cmd)
    if cmd.kind == "visualmass":
        got["mc"] = int(cmd.argv[cmd.argv.index("--mc") + 1])
    assert workloads.check_values(cmd, got) == []


def test_gate_rejects_wrong_exit_code(tmp_path):
    cmd = workloads.WORKLOADS["certify-sweep"].defaults[0]
    assert workloads.check(cmd, 2, str(tmp_path))
    assert workloads.check(cmd, None, str(tmp_path))


def test_gate_rejects_wrong_verdict():
    cmd = workloads.WORKLOADS["hyperconvex-sym4"].defaults[0]
    got = dict(_reference_values(cmd), verdict="inconclusive")
    assert any("verdict" in p for p in workloads.check_values(cmd, got))


@pytest.mark.parametrize(
    "workload,index,key,delta",
    [
        ("certify-sweep", 0, "min_gaps", 1e-5),
        ("fiber-session", 0, "slope", 1e-4),
        ("hyperconvex-sym4", 0, "min_transversality", 1e-3),
        ("sphere-synthetic", 1, "estimate", 1e-4),
    ],
)
def test_gate_rejects_out_of_tolerance_numbers(workload, index, key, delta):
    cmd = workloads.WORKLOADS[workload].defaults[index]
    got = _reference_values(cmd)
    if key == "min_gaps":
        got[key] = [g + delta for g in got[key]]
    else:
        got[key] += delta
    assert workloads.check_values(cmd, got)


def test_gate_reads_real_csv(tmp_path):
    (tmp_path / "dimension.csv").write_text(
        "# flaglab dimension v1\nscale,count,chart_id\n0.5,3,cantor\n"
        "summary,0.63631538188606007,0.044228232720222208;below_2\n"
    )
    cmd = workloads.WORKLOADS["sphere-synthetic"].defaults[0]
    assert workloads.check(cmd, 0, str(tmp_path)) == []


def test_other_seeds_skip_the_reference_comparison():
    wl = workloads.WORKLOADS["hyperconvex-sym4"]
    (cmd,) = wl.commands(7)
    assert cmd.argv[cmd.argv.index("--seed") + 1] == "11"
    got = {"verdict": "passes", "min_transversality": 0.3, "triples_tested": 3700}
    assert workloads.check_values(cmd, got) == []


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER


def test_sphere_synthetic_makes_no_product_svd_calls():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sphere-synthetic",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["prodsvd.absorb.calls"]["value"] == 0
    assert metrics["boxdim.occupied_cells.calls"]["value"] > 0
    assert metrics["sphere.visual_mass.mc_points"]["value"] == 1000000
