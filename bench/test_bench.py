"""Self-tests of the benchmark itself (not of factexp).

    python3 -m pytest -q bench/test_bench.py

The end-to-end cases start the real command for about a minute in total.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import plan
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((BENCH / "references.json").read_text())["refs"]


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert plan.rounds(workload, 7, 8) == plan.rounds(workload, 7, 8)
    assert plan.plan_digest(workload, 7, 8) == plan.plan_digest(workload, 7, 8)
    assert plan.plan_digest(workload, 7, 8) != plan.plan_digest(workload, 8, 8)


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_rounds_have_one_shape_on_every_seed(workload):
    def shape(seed):
        return [sorted((op["kind"], op.get("n", 0)) for op in ops)
                for ops in plan.rounds(workload, seed, 4)]

    assert shape(plan.DEFAULT_SEED) == shape(plan.HELD_OUT_SEED) == shape(12345)


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_every_op_a_seed_can_generate_has_a_reference(workload):
    pool = {plan.op_key(op["argv"]) for op in plan.pool(workload) if op["kind"] == "cli"}
    assert pool <= REFS.keys()
    for seed in (plan.DEFAULT_SEED, plan.HELD_OUT_SEED, 31337):
        for ops in plan.rounds(workload, seed, 32):
            for op in ops:
                assert op["kind"] == "ladder" or plan.op_key(op["argv"]) in pool


def test_benchmark_json_mirrors_the_plan():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == list(plan.WORKLOADS.items())
    assert [tuple(m.values()) for m in SPEC["end_to_end"]] == list(plan.END_TO_END)
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == [m[:3] for m in plan.PER_LAYER]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_metrics_cover_every_per_layer_name():
    names = set(tracer.layer_metrics([], 1)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(name, start, end, op=0, parent=None):
        s = tracer.Span(name, start, op, parent)
        s.end = end
        return s

    root = span("cli.main", 0.0, 10.0)
    hist = span("experiments.joint_histogram", 1.0, 9.0)
    # two pool threads, overlapping for 3 of their 6 seconds of cover
    kids = [span("exponents.exponent_range", 2.0, 6.0, parent=hist),
            span("exponents.exponent_range", 3.0, 8.0, parent=hist)]
    st = tracer.aggregate([root, hist, *kids])
    assert st["experiments.joint_histogram"]["self"] == pytest.approx(8.0 - 6.0)
    assert st["experiments.joint_histogram"]["child_busy"] / \
        st["experiments.joint_histogram"]["child_union"] == pytest.approx(9.0 / 6.0)
    assert st["cli.main"]["self"] == pytest.approx(10.0 - 8.0)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_timed_run_prints_every_end_to_end_metric_and_no_shims():
    done = _run(ROOT, "--workload", "construct", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    *_, info, last = done.stdout.splitlines()
    result, info = json.loads(last), json.loads(info)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["problems"] == []
    assert info["plan_digest"] == plan.plan_digest("construct", 3, info["rounds"])


def test_traced_run_prints_every_per_layer_metric():
    done = _run(ROOT, "--workload", "search", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["experiments.pattern_coverage.calls"]["value"] > 80


def test_worker_reports_shims_only_when_traced(tmp_path):
    def shims(trace):
        job = {"root": str(ROOT), "workload": "scan-narrow", "seed": 0, "threads": 1,
               "outdir": str(tmp_path), "result": str(tmp_path / "r.json"),
               "mode": "setup", "trace": trace}
        subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                       text=True, check=True, timeout=60)
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["warmup_ok"]
        return result["shims_seen"]

    assert shims(False) is False
    assert shims(True) is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", "scan-narrow", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
