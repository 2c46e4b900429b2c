"""fracpath benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cantor-deep --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs in a fresh interpreter
(perfbench/child.py) with the repository's ``src`` on an absolute
PYTHONPATH, BLAS/OpenMP threads set to 1 and every process pinned to one
CPU. With ``--trace 0`` the last line carries the end-to-end metrics (see
spec.py): median pass wall and CPU time, peak RSS, and the median cold-import
time of five more fresh interpreters, all times scaled by the host-speed
probe of hostspeed.py. With ``--trace 1`` untraced and traced passes alternate and
the last line carries the per-layer metrics; the self-time table goes to
stderr and the spans to ``.perfbench_out/``. Correctness checks fill
``attempted``/``failed`` (their ratio is the error rate).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402
from hostspeed import PROBE_REF_S, probe  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
IMPORT_SNIPPET = "import time, fracpath.cli; print(time.monotonic_ns())"
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(cmd: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group
    (the cli-cold child has children of its own) and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, process_group=0,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_seconds(work: Path) -> list[tuple[float, float]]:
    """(raw, probe-scaled) spawn-to-end-of-import of fresh interpreters."""
    samples = []
    before = probe()
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic_ns()
        done = run_child([sys.executable, "-c", IMPORT_SNIPPET], work, 60)
        if done.returncode != 0:
            raise RuntimeError(f"import failed:\n{done.stderr}")
        raw = (int(done.stdout.split()[-1]) - spawned) / 1e9
        after = probe()
        samples.append((raw, raw * PROBE_REF_S / (0.5 * (before + after))))
        before = after
    return samples


def import_breakdown(work: Path) -> dict[str, float]:
    """Median self import time of numpy, scipy and fracpath modules, from
    ``python -X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        done = run_child([sys.executable, "-X", "importtime", "-c", "import fracpath.cli"], work, 60)
        totals = {"numpy": 0, "scipy": 0, "fracpath": 0}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _cumulative, name = line[len("import time:"):].split("|")
            root = name.strip().split(".")[0]
            if root in totals and self_us.strip().isdigit():
                totals[root] += int(self_us)
        runs.append(totals)
    return {f"import.{k}_s": statistics.median(r[k] for r in runs) / 1e6 for k in runs[0]}


def fingerprint() -> dict:
    """Versions, CPU count and copy bandwidth; measured once per checkout."""
    cached = OUT / "fingerprint.json"
    if cached.exists():
        return json.loads(cached.read_text())
    done = run_child([sys.executable, str(HERE / "fingerprint.py")], OUT, 120)
    info = json.loads(done.stdout.splitlines()[-1])
    cached.write_text(json.dumps(info, indent=2) + "\n")
    return info


def layer_metrics(report: dict, setup_split: dict) -> dict:
    n = report["traced_passes"]
    layers, counters = report["layers"], report["trace_counters"]

    def row(name):
        return layers.get(name, {"calls": 0, "self_ns": 0, "incl_ns": 0, "items": 0})

    values = {}
    for fn in spec.LAYER_FUNCTIONS:
        r = row(fn)
        values[f"{fn}.calls"] = r["calls"] / n
        values[f"{fn}.self_s"] = r["self_ns"] / 1e9 / n
        values[f"{fn}.items_per_s"] = r["items"] / (r["incl_ns"] / 1e9) if r["incl_ns"] else 0.0
    increments = counters.get("follmer.ito_check.increments", 0)
    zeros = counters.get("follmer.ito_check.zero_increments", 0)
    values["follmer.ito_check.zero_increment_share"] = zeros / increments if increments else 0.0
    values.update(setup_split)
    values["cli.main.self_s"] = row("cli.main")["self_ns"] / 1e9 / n
    values["cli.output_bytes"] = report["counters"].get("cli.output_bytes", 0.0)
    values["registry.make_path.self_s"] = row("registry.make_path")["self_ns"] / 1e9 / n
    plain = [p["wall_scaled_s"] for p in report["passes"] if not p["traced"]]
    traced = [p["wall_scaled_s"] for p in report["passes"] if p["traced"]]
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["trace.top_level_share"] = report["top_level_share"]
    return values


def self_time_table(report: dict) -> str:
    n = report["traced_passes"]
    lines = [f"{'span':<44}{'calls':>10}{'self_s':>12}{'incl_s':>12}{'items':>14}  (per traced pass)"]
    rows = sorted(report["layers"].items(), key=lambda kv: -kv[1]["self_ns"])
    for name, r in rows:
        lines.append(
            f"{name:<44}{r['calls'] / n:>10.0f}{r['self_ns'] / 1e9 / n:>12.4f}"
            f"{r['incl_ns'] / 1e9 / n:>12.4f}{r['items'] / n:>14.0f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "fracpath" / "__init__.py").is_file():
        print(f"error: fracpath sources not found under {SRC}", file=sys.stderr)
        return 2

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--work", str(work), "--root", str(ROOT),
        "--spawn-ns", str(time.monotonic_ns()),
    ]
    done = run_child(cmd, work, CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    try:
        report = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    if done.returncode != 0 or report is None or report["crashed"]:
        attempted = report["attempted"] if report else 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1

    info = fingerprint()
    if args.trace:
        metrics = layer_metrics(report, import_breakdown(work))
        print(self_time_table(report), file=sys.stderr)
        units = {m["name"]: m["unit"] for m in spec.per_layer()}
    else:
        plain = report["passes"]
        setup = setup_seconds(work)
        metrics = {
            "wall_s": statistics.median(p["wall_scaled_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_scaled_s"] for p in plain),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(scaled for _raw, scaled in setup),
        }
        report["setup_samples"] = setup
        units = {name: unit for name, (unit, _bound) in spec.END_TO_END.items()}

    failed, attempted = report["failed"], report["attempted"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (work / "result.json").write_text(
        json.dumps({"result": result, "fingerprint": info, "child": report}, indent=2) + "\n"
    )
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"fingerprint": info}))
    raw = statistics.median(p["wall_s"] for p in report["passes"])
    print(f"passes={len(report['passes'])} raw_wall_s={raw:.4f} error_rate={failed / attempted:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
