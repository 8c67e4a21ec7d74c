"""The benchmark's own tests: every workload at smoke size, both modes.

    python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("served_read", "served_write", "engine_query", "heap_commit")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    result = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] is True
    assert outcome["failed"] == 0 and outcome["attempted"] >= 1
    names = layers.PER_LAYER if trace == "1" else run.END_TO_END
    assert {n: u for n, u in names} == {
        n: m["unit"] for n, m in outcome["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in outcome["metrics"].values())


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, __ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, __ in layers.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = _run(str(tmp_path), "--workload", "served_read", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_times_are_rescaled_by_the_bracketing_slices():
    clock = hostclock.HostClock(max(os.sched_getaffinity(0)), sensitivity=1.0)
    try:
        assert clock.sample() > 0
        slow = 2 * hostclock.NOMINAL_SLICE_S
        assert clock.scale(slow, slow) == pytest.approx(0.5)
    finally:
        clock.close()
    # Two ops per segment; the second segment ran with the host at half speed.
    segments = [
        common.Segment([0.010, 0.010], wall=0.020, cpu=0.018, scale=1.0),
        common.Segment([0.020, 0.020], wall=0.040, cpu=0.036, scale=0.5),
    ]
    metrics = common.end_to_end(segments, [0.3, 0.1, 0.2], peak_rss_mb=50.0)
    assert metrics["ops_per_s"] == pytest.approx(4 / 0.040)
    assert metrics["p50_ms"] == pytest.approx(10.0)
    assert metrics["p90_ms"] == pytest.approx(10.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(9.0)
    assert metrics["setup_s"] == 0.2
