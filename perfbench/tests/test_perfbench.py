"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

Smoke runs use ``--scale tiny`` so every workload finishes in seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_manifest_matches_spec_and_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest(), "rerun python3 perfbench/spec.py"
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= manifest["run_seconds"] <= 60


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_smoke_run(workload):
    done = run_bench("--workload", workload, "--seed", "901", "--seconds", "1",
                     "--trace", "0", "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec.END_TO_END)
    for name, (unit, _bound) in spec.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", ["fbm-ladder", "cli-cold"])
def test_tiny_traced_run(workload):
    done = run_bench("--workload", workload, "--seed", "902", "--seconds", "1",
                     "--trace", "1", "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec.per_layer()}
    assert "self_s" in done.stderr  # the self-time table
    assert metrics["import.numpy_s"]["value"] > 0
    assert 0.5 < metrics["trace.top_level_share"]["value"] <= 1.0
    if workload == "cli-cold":
        assert metrics["cli.main.self_s"]["value"] > 0
        assert metrics["cli.output_bytes"]["value"] > 0
    else:
        assert metrics["partitions.value_grid_partition.self_s"]["value"] > 0
        assert metrics["paths.value_at.items_per_s"]["value"] > 0
    spans = list((ROOT / ".perfbench_out" / f"{workload}-seed902-trace1").glob("spans-*.jsonl"))
    assert spans and tracing.load(spans[0])[0]


def _child(workload, patch, tmp_path):
    """Run child.py in-process after applying ``patch`` to fracpath."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        f"{patch}\n"
        "import child; sys.exit(child.main(sys.argv[2:]))\n"
    )
    cmd = [sys.executable, "-c", code, str(BENCH), "--workload", workload, "--seed", "903",
           "--seconds", "0", "--trace", "0", "--scale", "tiny", "--work", str(tmp_path),
           "--root", str(ROOT), "--spawn-ns", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_wrong_result_is_counted(tmp_path):
    clean = _child("cantor-deep", "", tmp_path)
    assert clean["failed"] == 0
    wrong = _child(
        "cantor-deep",
        "import fracpath.experiments as e; f = e.cantor_compensated_formula\n"
        "e.cantor_compensated_formula = lambda p, n, k: f(p, n, k) * (1 + 1e-6)",
        tmp_path,
    )
    assert wrong["attempted"] == clean["attempted"]
    assert wrong["failed"] == len(workloads.CANTOR["tiny"]["ns"])
    assert all("compensated sum" in f for f in wrong["failures"])


def test_crash_counts_as_all_checks_failed(tmp_path):
    report = _child(
        "cantor-deep",
        "import fracpath.experiments as e\n"
        "def boom(*a, **k): raise RuntimeError('boom')\n"
        "e.cantor_function_gap = boom",
        tmp_path,
    )
    assert report["crashed"]
    assert report["failed"] == report["attempted"] > 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "cantor-deep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_time_subtracts_direct_children():
    spans = [
        (1, 0, "outer", 0, 100, 1, "r"),
        (2, 1, "inner", 10, 50, 4, "r"),
        (3, 2, "inner", 20, 30, 2, "r"),
        (4, 1, "leaf", 60, 70, 1, "r"),
    ]
    table = tracing.self_times(spans)
    assert table["outer"]["self_ns"] == 100 - 40 - 10
    assert table["inner"] == {"calls": 2, "self_ns": 30 + 10, "incl_ns": 40, "items": 6}
    assert table["leaf"]["self_ns"] == 10


def test_install_wraps_every_reference_and_uninstall_restores():
    import fracpath.experiments as experiments
    import fracpath.follmer as follmer
    import fracpath.paths as paths

    original = follmer.ito_check
    method = paths.SampledPath.__dict__["value_at"]
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert follmer.ito_check is not original
        assert experiments.ito_check is follmer.ito_check
        path = paths.SampledPath([0.0, 1.0], [0.0, 2.0])
        assert path.value_at([0.5]).tolist() == [1.0]
        assert [s[2] for s in tracer.spans] == ["paths.value_at"]
    finally:
        tracer.uninstall()
    assert follmer.ito_check is original and experiments.ito_check is original
    assert paths.SampledPath.__dict__["value_at"] is method


def test_calibration_scales_by_probe_and_ticks_inside_long_steps():
    import time

    import hostspeed

    cal = hostspeed.Calibrated()
    with cal.ticking():
        deadline = time.perf_counter() + 3 * hostspeed.TICK_S
        while time.perf_counter() < deadline:
            pass
        with hostspeed.no_ticks():
            time.sleep(2 * hostspeed.TICK_S)
            held = len(cal.probes)
        cal.mark()
    assert held >= 3  # ticks probed inside the busy step
    assert len(cal.probes) <= held + 2  # blocked ticks collapse into one
    assert 3 * hostspeed.TICK_S < cal.wall < 6 * hostspeed.TICK_S
    mean_probe = sum(cal.probes) / len(cal.probes)
    assert 0.5 < cal.wall_scaled / (cal.wall * hostspeed.PROBE_REF_S / mean_probe) < 2.0
