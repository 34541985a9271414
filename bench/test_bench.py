"""Self-tests of the benchmark: span arithmetic, the percentile rule, the
agreement of BENCHMARK.json with the code, and a smoke-size run of every
workload in both modes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER
from spans import Recorder, covered, min_samples, percentile, self_times
from workloads import END_TO_END, LATENCY_TAIL, REPORTED, WORKLOADS, plan_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- span arithmetic ---------------------------------------------------------


def test_self_time_of_nested_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [6, 7], b2 [6.5, 8]
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["a1", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["b1", 6.0, 7.0, 3, None],
        ["b2", 6.5, 8.0, 3, None],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 5) == 0
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4)
    assert covered([(-1, 2), (4, 12)], 0, 10) == pytest.approx(8)


def test_recorder_links_parents_and_dialogs():
    rec = Recorder()

    def inner(x):
        return x + 1

    inner_t = rec.wrap("inner", inner)

    def outer(dialog):
        return inner_t(inner_t(dialog))

    def set_dialog(args, kwargs):
        rec.dialog = args[0]

    outer_t = rec.wrap("outer", outer, before=set_dialog)
    with rec.span("phase"):
        assert outer_t(7) == 9
    names = [s[0] for s in rec.spans]
    assert names == ["phase", "outer", "inner", "inner"]
    assert [s[3] for s in rec.spans] == [None, 0, 1, 1]
    assert [s[4] for s in rec.spans] == [None, 7, 7, 7]
    assert all(s[1] <= s[2] for s in rec.spans)


# --- percentile rule ---------------------------------------------------------


def test_min_samples_leaves_ten_beyond():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    assert min_samples(99.9) == 10000


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1, 1000)), 99) is None
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile(list(range(1, 20)), 50) is None
    assert percentile([], 50) is None


@pytest.mark.parametrize("seconds", [0.1, 1, 30])
def test_every_plan_measures_the_latency_tail(seconds):
    for wl in WORKLOADS.values():
        assert plan_for(wl, seconds).latency_calls >= min_samples(LATENCY_TAIL)


# --- BENCHMARK.json ----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


def test_benchmark_json_within_limits():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


# --- smoke runs --------------------------------------------------------------


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = lines[:-1]
    shown = spec + ([] if trace else [{"name": m.name, "unit": m.unit} for m in REPORTED])
    for m in shown:
        assert result["metrics"].get(m["name"], {"unit": m["unit"]})["unit"] == m["unit"]
        assert any(re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\s", ln)
                   for ln in printed), m["name"]
    assert any(ln.split()[:1] == ["failed_share"] for ln in printed)
    assert "MISSING" not in proc.stdout


def test_fails_without_the_program():
    bare = ROOT / ".bench_run" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = run_bench(bare, "learn", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
