"""What the benchmark measures: workloads, end-to-end metrics with their
regression bounds, and the per-layer metrics with the end-to-end metric
each one is expected to move.

Run ``python3 perfbench/spec.py`` from the repository root to rewrite
``BENCHMARK.json`` from these tables; ``tests/test_perfbench.py`` checks
that the committed file matches them.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 25

WORKLOADS = {
    "cantor-deep": (
        "Cantor sweep n=1..20 plus the stage-18 profile gap: 15.7M increments, "
        "memory bound (argsort, on-knot value_at, ito_check on |x|^p)"
    ),
    "fbm-ladder": (
        "seeded fBm 2^20 on b-adic levels 10..20, value-grid partitions, 100-seed "
        "moment experiment, isometry: FFT sampler, per-segment loop, off-knot lookups"
    ),
    "kernel-quadrature": (
        "scalar, Python-bound quadrature: remainder kernel on a half-offset angle grid, "
        "seeded Caputo/RL/local derivatives, bump atoms, gauge inverse"
    ),
    "cli-cold": (
        "every committed fixture as its own fresh CLI process plus reproduce-all --jobs 1: "
        "import bound, the only path through cli/registry and CSV/manifest I/O"
    ),
}

# name -> (unit, bound as a share of the parent's median); all lower-is-better
END_TO_END = {
    "wall_s": ("s", 0.25),
    "cpu_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.20),
    "setup_s": ("s", 0.25),
}

# layer function -> (item counted by items_per_s, workload, metric it should move)
LAYER_FUNCTIONS = {
    "partitions.cantor_value_grid": ("knots", "cantor-deep", "wall_s, peak_rss_mb"),
    "paths.value_at": ("lookups", "cantor-deep, fbm-ladder", "wall_s, peak_rss_mb"),
    "follmer.ito_check": ("increments", "cantor-deep, fbm-ladder", "wall_s, peak_rss_mb"),
    "variation.pth_variation_partial": ("increments", "cantor-deep", "wall_s, peak_rss_mb"),
    "variation.variation_table": ("increments", "cantor-deep", "wall_s, peak_rss_mb"),
    "experiments.cantor_stage": ("increments", "cantor-deep", "wall_s, peak_rss_mb"),
    "paths.fbm_path": ("knots", "fbm-ladder", "wall_s"),
    "partitions.value_grid_partition": ("path knots", "fbm-ladder", "wall_s"),
    "partitions.badic": ("knots", "fbm-ladder", "wall_s"),
    "partitions.osc": ("intervals", "fbm-ladder", "wall_s"),
    "isometry.isometry_check": ("intervals", "fbm-ladder", "wall_s"),
    "experiments.fbm_variation_experiment": ("increments", "fbm-ladder", "wall_s"),
    "follmer.remainder_kernel": ("integrals", "kernel-quadrature", "wall_s"),
    "follmer.kernel_profile": ("angles", "kernel-quadrature", "wall_s"),
    "fracops.caputo": ("integrals", "kernel-quadrature", "wall_s"),
    "fracops.rl_integral": ("integrals", "kernel-quadrature", "wall_s"),
    "fracops.local_frac_derivative": ("limits", "kernel-quadrature", "wall_s"),
    "isometry.phi_inverse": ("inversions", "kernel-quadrature", "wall_s"),
    "experiments.bump_decomposition": ("increments", "kernel-quadrature", "wall_s"),
}
LAYER_STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
}

# further per-layer metrics: name -> (unit, better, workload, metric it should move)
LAYER_EXTRA = {
    "follmer.ito_check.zero_increment_share": (
        "ratio", "lower", "cantor-deep, fbm-ladder", "wall_s"),
    "import.numpy_s": ("s", "lower", "all", "setup_s"),
    "import.scipy_s": ("s", "lower", "all", "setup_s"),
    "import.fracpath_s": ("s", "lower", "all", "setup_s"),
    "cli.main.self_s": ("s", "lower", "cli-cold", "setup_s, wall_s"),
    "cli.output_bytes": ("B", "lower", "cli-cold", "wall_s"),
    "registry.make_path.self_s": ("s", "lower", "cli-cold", "setup_s, wall_s"),
    "trace.overhead_share": ("ratio", "lower", "all", "(traced / untraced pass wall) - 1"),
    "trace.top_level_share": ("ratio", "higher", "all", "top-level span time / pass wall"),
}


def per_layer() -> list[dict]:
    out = []
    for fn in LAYER_FUNCTIONS:
        for stat, (unit, better) in LAYER_STATS.items():
            out.append({"name": f"{fn}.{stat}", "unit": unit, "better": better})
    for name, (unit, better, _workload, _moves) in LAYER_EXTRA.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": "lower", "bound": bound}
            for n, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    (root / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
