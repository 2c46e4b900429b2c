"""End-to-end runs of the command-line entry point, in subprocesses and
in-process through ``cli.main``."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import per_level_reference

from fracpath import cli
from fracpath.experiments import cantor_stage
from fracpath.follmer import ito_check
from fracpath.fracops import rl_integral
from fracpath.isometry import admissibility_threshold, holder_exponent
from fracpath.partitions import badic, value_grid_partition
from fracpath.paths import AnalyticPath, sample
from fracpath.registry import abs_power, make_path, make_phi, sin_affine
from fracpath.variation import pth_variation_partial

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


def run_python(*args, cwd):
    # The child runs in ``cwd``, so a relative PYTHONPATH entry such as
    # ``src`` would no longer resolve there; put the absolute source tree first.
    pythonpath = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=600,
    )


def run_cli(*args, cwd):
    return run_python("-m", "fracpath.cli", *args, cwd=cwd)


def loaded_modules(tmp_path, config=None) -> set:
    """sys.modules of a fresh interpreter after ``import fracpath.cli`` and,
    given a config path, ``cli.main`` on it."""
    run = ""
    if config is not None:
        command = json.loads(config.read_text())["command"]
        argv = [command, "--config", str(config), "--out-dir", "out"]
        run = f"assert cli.main({argv!r}) == 0\n"
    script = (
        "import json, sys\n"
        "import fracpath.cli as cli\n"
        f"{run}"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = run_python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; a CLI start must not pay for
    # scipy, nor for the modules that only some subcommands run
    loaded = loaded_modules(tmp_path)
    assert "scipy" not in loaded
    unwanted = {f"fracpath.{m}" for m in ("follmer", "fracops", "isometry", "experiments", "variation")}
    unwanted |= {"numpy.polynomial", "concurrent.futures"}
    assert not loaded & unwanted


@pytest.mark.parametrize(
    "fixture, unloaded",
    [
        (
            "generate-cantor-path.json",
            ("follmer", "isometry", "experiments", "variation", "fracops", "_quad"),
        ),
        ("frac-deriv-caputo.json", ("follmer", "isometry", "experiments")),
        ("variation-cantor.json", ("follmer", "isometry", "experiments", "fracops", "_quad")),
        ("ito-fbm-sin.json", ("isometry", "experiments", "variation", "fracops", "_quad")),
        ("isometry-fbm.json", ("follmer", "experiments", "variation", "fracops", "_quad")),
    ],
)
def test_subcommand_loads_only_what_it_runs(tmp_path, fixture, unloaded):
    loaded = loaded_modules(tmp_path, FIXTURES / fixture)
    assert not loaded & {f"fracpath.{m}" for m in unloaded}


def test_taylor_remainder_run_integrates_nothing(tmp_path):
    cfg = {"command": "remainder", "fn": SIN, "p": 2.5, "thetas": {"count": 8}}
    loaded = loaded_modules(tmp_path, write_config(tmp_path, "taylor.json", cfg))
    assert "fracpath.follmer" in loaded
    assert "fracpath._quad" not in loaded


def test_smooth_functions_load_no_operator_code(tmp_path):
    proc = run_python(
        "-c", "import json, sys\nimport fracpath.smooth\nprint(json.dumps(sorted(sys.modules)))",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {m for m in json.loads(proc.stdout) if m.split(".")[0] == "fracpath"}
    assert loaded == {"fracpath", "fracpath.errors", "fracpath.smooth"}


def test_version_flag(tmp_path):
    proc = run_cli("--version", cwd=tmp_path)
    assert proc.returncode == 0
    assert "fracpath" in proc.stdout


def test_generate_path_run_and_manifest(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "generate-path",
        "--config",
        str(FIXTURES / "generate-cantor-path.json"),
        "--out-dir",
        str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    csv_path = out / "generate-cantor-path.csv"
    manifest_path = out / "generate-cantor-path.manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    for key in ("command", "config_sha256", "version", "verdict", "expect", "wall_time_s"):
        assert key in manifest
    assert manifest["command"] == "generate-path"
    assert csv_path.name in manifest["outputs"]


def test_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        proc = run_cli(
            "ito-check",
            "--config",
            str(FIXTURES / "ito-cantor.json"),
            "--out-dir",
            str(out),
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
    a = (first / "ito-cantor.csv").read_bytes()
    b = (second / "ito-cantor.csv").read_bytes()
    assert a == b
    ma = json.loads((first / "ito-cantor.manifest.json").read_text())
    mb = json.loads((second / "ito-cantor.manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]
    assert ma["config_sha256"] == mb["config_sha256"]


def test_unknown_key_is_line_numbered(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        "{\n"
        '  "command": "cantor-sweep",\n'
        '  "bogus_key": 1,\n'
        '  "p": 2.5,\n'
        '  "ns": [2, 3]\n'
        "}\n"
    )
    proc = run_cli("cantor-sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), cwd=tmp_path)
    assert proc.returncode == 1
    assert "bad.json:3" in proc.stderr
    assert "unknown key 'bogus_key'" in proc.stderr


def test_malformed_json_fails_cleanly(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"command": "variation",,}\n')
    proc = run_cli("variation", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), cwd=tmp_path)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_command_mismatch_rejected(tmp_path):
    proc = run_cli(
        "variation",
        "--config",
        str(FIXTURES / "ito-cantor.json"),
        "--out-dir",
        str(tmp_path / "o"),
        cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "declares command" in proc.stderr


def test_unmet_expectation_exits_two(tmp_path):
    cfg = tmp_path / "hopeless.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "ito-check",
                "label": "hopeless",
                "partition": {"kind": "cantor-crossing", "ns": [3, 4, 5], "rounding": "floor"},
                "p": 2.5,
                "expect": "converged",
                "tol": 1e-9,
            }
        )
        + "\n"
    )
    out = tmp_path / "o"
    proc = run_cli("ito-check", "--config", str(cfg), "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    manifest = json.loads((out / "hopeless.manifest.json").read_text())
    assert manifest["verdict"] == "not-converged"
    assert manifest["expect"] == "converged"


def test_frac_deriv_local_fixture(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "frac-deriv",
        "--config",
        str(FIXTURES / "frac-deriv-local.json"),
        "--out-dir",
        str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "frac-deriv-local.csv").read_text().strip().splitlines()
    assert len(lines) >= 2  # header plus one row per evaluation point


@pytest.mark.slow
def test_reproduce_all_fixtures(tmp_path):
    out = tmp_path / "runs"
    proc = run_cli(
        "reproduce-all",
        "--fixtures",
        str(FIXTURES),
        "--out-dir",
        str(out),
        "--jobs",
        "4",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    fixtures = sorted(FIXTURES.glob("*.json"))
    # one manifest per fixture plus the aggregate
    manifests = sorted(out.rglob("*.manifest.json"))
    assert len(manifests) == len(fixtures) + 1
    summary = json.loads((out / "reproduce-all.manifest.json").read_text())
    assert set(summary["runs"]) == {f.name for f in fixtures}
    assert all(run["exit"] == 0 for run in summary["runs"].values())
    # the numbers themselves: every CSV byte for byte as recorded
    golden = json.loads((FIXTURES / "expected" / "sha256.json").read_text())
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.glob("*.csv")}
    assert set(written) == set(golden["sha256"])
    moved = sorted(name for name, digest in written.items() if digest != golden["sha256"][name])
    assert not moved, (
        f"sha256 of {', '.join(moved)} not as in fixtures/expected/sha256.json, recorded with numpy"
        f" {golden['numpy']} and SIMD {golden['simd_extensions']}; this host runs numpy"
        f" {np.__version__} with SIMD {_simd_extensions()}"
    )


def _simd_extensions() -> dict:
    """The simd_extensions entry of ``numpy.show_runtime()`` on this host."""
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    return {
        "baseline": list(__cpu_baseline__),
        "found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
        "not_found": [f for f in __cpu_dispatch__ if not __cpu_features__[f]],
    }


# --------------------------------------------------------------------------- #
# in-process runs of cli.main
# --------------------------------------------------------------------------- #

SIN = {"name": "sin"}

# (config, text the error line must contain)
BAD_CONFIGS = {
    # None: a directory stands where the config file belongs
    "config-unreadable": (None, "cannot read the config: [Errno"),
    "config-not-utf8": (b'{"p": "\xff"}', "cannot read the config: 'utf-8' codec can't decode"),
    "config-not-an-object": ('["cantor-sweep"]', "top level must be an object"),
    "ns-not-a-list": (
        {"command": "cantor-sweep", "p": 2.5, "ns": 3},
        "'ns' must be a list of numbers, got 3",
    ),
    "converged-without-tol": (
        {"command": "cantor-sweep", "p": 2.5, "ns": [2], "expect": "converged"},
        "expect 'converged' requires a tol",
    ),
    "partition-not-an-object": (
        {"command": "variation", "p": 2.5, "partition": "badic"},
        "'partition' must be an object, got 'badic'",
    ),
    "badic-without-path": (
        {"command": "variation", "p": 2.5, "partition": {"kind": "badic", "levels": [2]}},
        "this partition kind needs a 'path'",
    ),
    "analytic-path-without-grid": (
        {"command": "generate-path", "path": {"kind": "cantor-distance", "p": 2.5}},
        "analytic paths need a 'grid'",
    ),
    "pairs-not-pairs": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [[0.1, 0.2], [0.3]]},
        "'pairs' must be a list of [a, b] pairs, got [[0.1, 0.2], [0.3]]",
    ),
    "remainder-without-points": (
        {"command": "remainder", "fn": SIN, "p": 2.5},
        "needs 'pairs', 'thetas' or 'atoms'",
    ),
    "remainder-no-p": (
        {"command": "remainder", "fn": SIN, "thetas": {"count": 4}},
        "remainder needs 'p'",
    ),
    "cantor-sweep-no-p": ({"command": "cantor-sweep", "ns": [2]}, "cantor-sweep needs 'p'"),
    "bump-no-p": ({"command": "bump-decomposition", "ns": [2]}, "bump-decomposition needs 'p'"),
    "rl-no-alpha": (
        {"command": "frac-deriv", "op": "rl", "fn": SIN, "xs": [0.5]},
        "missing 'alpha'",
    ),
    "thetas-not-object": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "thetas": 16},
        "'thetas' must be an object",
    ),
    "thetas-unknown-key": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "thetas": {"cnt": 3}},
        "unknown thetas keys ['cnt']",
    ),
    "grid-empty": (
        {"command": "generate-path", "path": {"kind": "cantor-distance", "p": 2.5}, "grid": {}},
        "grid needs 'n'",
    ),
    "p-not-a-number": (
        {"command": "cantor-sweep", "p": "abc", "ns": [2]},
        "'p' must be a number, got 'abc'",
    ),
    "ns-empty": (
        {"command": "ito-check", "partition": {"kind": "cantor-crossing", "ns": []}, "p": 2.5},
        "partition needs 'ns'",
    ),
    "xs-empty": (
        {"command": "frac-deriv", "op": "caputo", "fn": SIN, "p": 0.5, "xs": []},
        "frac-deriv needs 'xs'",
    ),
    # each cantor-crossing stage has its own path; isometry needs one path
    "isometry-over-cantor-crossing": (
        {
            "command": "isometry",
            "partition": {"kind": "cantor-crossing", "ns": [3, 5]},
            "fn": SIN,
            "phi": {"kind": "power", "p_phi": 2.5},
            "p": 2.5,
            "holder_alpha": 0.4,
        },
        "'cantor-crossing' builds a new path per stage",
    ),
    # huge finite numbers are refused before anything is built
    "grid-n-huge": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-distance", "p": 2.5},
            "grid": {"n": 1e308},
        },
        "intervals exceed the limit of 33554432 knots",
    ),
    "atoms-n-huge": (
        {
            "command": "remainder",
            "fn": {"name": "abs-power", "q": 2.25},
            "p": 2.25,
            "atoms": {"n": 1e308},
        },
        "atom weights exceed the limit of 33554432",
    ),
    "cantor-bump-knots-depth-huge": (
        {"command": "generate-path", "path": {"kind": "cantor-bump-knots", "p": 2.5, "depth": 16}},
        "depth 16 at p=2.5: 863405543735 knots exceed the limit of 33554432",
    ),
    "cantor-bump-knots-depth-zero": (
        {"command": "generate-path", "path": {"kind": "cantor-bump-knots", "p": 2.5, "depth": 0}},
        "depth must be >= 1",
    ),
    "isometry-custom-fn-without-custom-kind": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 64, "seed": 9},
            "partition": {"kind": "badic", "levels": [2, 3]},
            "fn": SIN,
            "phi": {"kind": "power", "p_phi": 2, "custom_fn": 3},
            "p": 2,
        },
        "custom_fn needs kind 'custom', got kind 'power'",
    ),
    "thetas-count-huge": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "thetas": {"count": 1e308}},
        "thetas 'count' must lie in [1, 33554432]",
    ),
    "reference-q-huge": (
        {
            "command": "frac-deriv",
            "op": "caputo",
            "fn": {"name": "plus-power", "q": 3.2},
            "p": 0.7,
            "xs": [0.5],
            "reference": {"kind": "power-rule", "q": 1e308},
        },
        "power rule overflows float64 at q = 1e+308",
    ),
    # integer keys take integral numbers only, never a truncated float or a boolean
    "ns-not-integral": (
        {"command": "cantor-sweep", "p": 2.5, "ns": [2.7, 3]},
        "'ns' must be an integer, got 2.7",
    ),
    "ns-boolean": (
        {"command": "cantor-sweep", "p": 2.5, "ns": [True, 3]},
        "'ns' must be an integer, got True",
    ),
    "grid-n-not-integral": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-distance", "p": 2.5},
            "grid": {"n": 3.9},
        },
        "'n' must be an integer, got 3.9",
    ),
    "tol-boolean": (
        {"command": "cantor-sweep", "p": 2.5, "ns": [2], "expect": "converged", "tol": True},
        "'tol' must be a number, got True",
    ),
    "remainder-p-at-most-one": (
        {"command": "remainder", "fn": SIN, "p": 0.5, "thetas": {"count": 4}},
        "p must exceed 1, got 0.5",
    ),
    # the fBm spec refuses a fractional or oversized n before sampling
    "fbm-n-not-integral": (
        {"command": "generate-path", "path": {"kind": "fbm", "hurst": 0.4, "n": 100.5}},
        "n must be an integer, got 100.5",
    ),
    "fbm-n-huge": (
        {"command": "generate-path", "path": {"kind": "fbm", "hurst": 0.4, "n": 1099511627776}},
        "n=1099511627776 increments exceed the limit of 33554432 knots",
    ),
    # so do the analytic paths' construction depths
    "cantor-distance-depth-not-integral": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-distance", "p": 2.5, "depth": 2.5},
            "grid": {"n": 3},
        },
        "depth must be an integer, got 2.5",
    ),
    "takagi-depth-not-integral": (
        {
            "command": "generate-path",
            "path": {"kind": "takagi", "b": 2, "alpha": 0.5, "depth": 3.5},
            "grid": {"n": 3},
        },
        "depth must be an integer, got 3.5",
    ),
    "cantor-bump-depth-boolean": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-bump", "p": 2.5, "depth": True},
            "grid": {"n": 3},
        },
        "depth must be an integer, got True",
    ),
    "cantor-bump-knots-depth-not-integral": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-bump-knots", "p": 2.5, "depth": 2.5},
            "grid": {"n": 3},
        },
        "depth must be an integer, got 2.5",
    ),
    # and depths past float64: 3.0 ** -679 is 0, 2 ** 1024 overflows
    "cantor-distance-depth-underflows": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-distance", "p": 2.5, "depth": 10**6},
            "grid": {"n": 4},
        },
        "depth 1000000 at p=2.5 is too deep: the level-1000000 interval length",
    ),
    "cantor-bump-depth-underflows": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-bump", "p": 2.5, "depth": 679},
            "grid": {"n": 4},
        },
        "depth 679 at p=2.5 is too deep: the level-679 interval length 3**-679 underflows",
    ),
    "cantor-bump-count-overflows": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-bump", "p": 2.9, "depth": 600},
            "grid": {"n": 4},
        },
        "level 540 at p=2.9: the bump count overflows float64",
    ),
    "takagi-depth-overflows": (
        {
            "command": "generate-path",
            "path": {"kind": "takagi", "b": 2, "alpha": 0.5, "depth": 1025},
            "grid": {"n": 4},
        },
        "depth 1025 at b=2 is too deep: b**1024 overflows float64",
    ),
    # one row fits, but the stage's 140 level rows would hold about 4e9 values
    "cantor-sweep-stage-too-large": (
        {"command": "cantor-sweep", "p": 1.3, "ns": [140]},
        "stage 140 at p=1.3: 3989496980 values in 140 level rows exceed the limit of 33554432",
    ),
    "cantor-crossing-too-deep": (
        {"command": "ito-check", "partition": {"kind": "cantor-crossing", "ns": [663]}, "p": 2.5},
        "stage 663 at p=2.5 is too deep",
    ),
    # non-finite JSON constants are refused when the config is parsed, also
    # inside the nested constructor objects (json.dumps writes NaN, Infinity)
    "phi-p-phi-nan": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 1024, "seed": 9},
            "partition": {"kind": "badic", "levels": [4, 6]},
            "fn": SIN,
            "phi": {"kind": "power", "p_phi": math.nan},
            "holder_alpha": 0.79,
        },
        "non-finite number NaN",
    ),
    "fn-q-nan": (
        {
            "command": "frac-deriv",
            "op": "caputo",
            "fn": {"name": "plus-power", "q": math.nan},
            "p": 0.7,
            "xs": [0.5],
        },
        "non-finite number NaN",
    ),
    "takagi-nu-infinity": (
        {
            "command": "generate-path",
            "path": {"kind": "takagi", "b": 2, "alpha": 0.5, "wave": "sinusoid", "nu": math.inf},
            "grid": {"n": 3},
        },
        "non-finite number Infinity",
    ),
    # the atom identity holds for f(x) = |x|^p only, with the bump path's own p
    "atoms-fn-not-abs-power": (
        {"command": "remainder", "fn": SIN, "p": 2.25, "atoms": {"n": 10}},
        "atoms need fn abs-power with q = p and k = 0, got fn {'name': 'sin'} at p = 2.25",
    ),
    "atoms-fn-q-not-p": (
        {
            "command": "remainder",
            "fn": {"name": "abs-power", "q": 2.5},
            "p": 2.25,
            "atoms": {"n": 10},
        },
        "atoms need fn abs-power with q = p and k = 0",
    ),
    # a config holds no callable, so a custom gauge is refused by name
    "isometry-custom-phi-not-callable": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 1024, "seed": 9},
            "partition": {"kind": "badic", "levels": [4, 6]},
            "fn": SIN,
            "phi": {"kind": "custom", "custom_fn": 3},
            "holder_alpha": 0.79,
        },
        "custom gauges need a callable, got 3",
    ),
    "variation-custom-phi-not-callable": (
        {
            "command": "variation",
            "partition": {"kind": "cantor-crossing", "ns": [3]},
            "p": 2.5,
            "phi": {"kind": "custom", "custom_fn": "x"},
        },
        "custom gauges need a callable, got 'x'",
    ),
    # f overflowing on the path: the stage's first non-finite term is named
    "ito-check-poly-overflows": (
        {
            "command": "ito-check",
            "path": {"kind": "fbm", "hurst": 0.4, "n": 256, "seed": 3},
            "partition": {"kind": "badic", "levels": [8]},
            "p": 2.5,
            "fn": {"name": "poly", "coeffs": [0] * 100 + [1e300]},
        },
        "the value change on a partition of 256 increments must be finite, got inf",
    ),
    # |dS|^p past float64 on an fBm of horizon 1e300: the power is named, not a gauge
    "variation-power-overflows": (
        {
            "command": "variation",
            "path": {"kind": "fbm", "hurst": 0.9, "n": 64, "seed": 1, "horizon": 1e300},
            "partition": {"kind": "badic", "levels": [6]},
            "p": 2.5,
        },
        "|dS|^2.5 overflows: the largest |dS| is 4.9225472325608536e+268",
    ),
    # a kernel that is no finite number is refused by its pair, in either form
    "remainder-pair-overflows-taylor": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [[0.1, 1e200]], "method": "taylor"},
        "kernel at (a, b) = (0.1, 1e+200) is not a finite number: |b - a|^2.5 overflows",
    ),
    "remainder-pair-overflows-integral": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [[0.1, 1e200]], "method": "integral"},
        "kernel at (a, b) = (0.1, 1e+200) is not a finite number: |b - a|^2.5 overflows",
    ),
    "remainder-taylor-not-finite": (
        {
            "command": "remainder",
            "fn": {"name": "abs-power", "q": 3.5},
            "p": 2.5,
            "pairs": [[0.0, 1e100]],
            "method": "taylor",
        },
        "kernel at (a, b) = (0.0, 1e+100) is not a finite number: the Taylor remainder is not finite",
    ),
    "remainder-diagonal-on-kink": (
        {
            "command": "remainder",
            "fn": {"name": "abs-power", "q": 2.5},
            "p": 2.5,
            "pairs": [[0.2, 0.7], [0.0, 0.0]],
            "method": "taylor",
        },
        "kernel diverges on the diagonal at 0.0 (kink exponent 2.5)",
    ),
    # freq**3 past float64: a bare OverflowError before the constructor checked it
    "sin-freq-overflows": (
        {
            "command": "frac-deriv",
            "op": "caputo",
            "fn": {"name": "sin", "freq": 1e308},
            "p": 0.5,
            "xs": [0.5],
        },
        "amp * freq**j (j <= 3) must be finite, got inf",
    ),
    # a literal that overflows float64, written as raw config text
    "p-overflows": ('{"command": "cantor-sweep", "p": 1e400, "ns": [2]}', "non-finite number 1e400"),
    # a JSON string is no number, at a top-level key, in a list, in pairs or at tol
    "p-string": ({"command": "cantor-sweep", "p": "2.5", "ns": [3, 4]}, "'p' must be a number, got '2.5'"),
    "ns-string": (
        {"command": "cantor-sweep", "p": 2.5, "ns": ["3", 4]},
        "'ns' must be an integer, got '3'",
    ),
    "pairs-string": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [["0.1", "0.3"]]},
        "'pairs' must be a number, got '0.1'",
    ),
    "tol-string": (
        {"command": "cantor-sweep", "p": 2.5, "ns": [2], "expect": "converged", "tol": "1e-3"},
        "'tol' must be a number, got '1e-3'",
    ),
    # the label names a file in --out-dir, never a path or an over-long name
    "label-escapes-out-dir": (
        {"command": "cantor-sweep", "label": "../escaped", "p": 2.5, "ns": [2]},
        "'label' must be 1 to 100 letters, digits, '.', '_' or '-', not starting with '.', got"
        " '../escaped'",
    ),
    "label-subdirectory": (
        {"command": "cantor-sweep", "label": "sub/dir", "p": 2.5, "ns": [2]},
        "'label' must be 1 to 100 letters, digits, '.', '_' or '-'",
    ),
    "label-too-long": (
        {"command": "cantor-sweep", "label": "9" * 400, "p": 2.5, "ns": [2]},
        "'label' must be 1 to 100 letters, digits, '.', '_' or '-'",
    ),
    "label-not-a-string": (
        {"command": "cantor-sweep", "label": ["a"], "p": 2.5, "ns": [2]},
        "not starting with '.', got ['a']",
    ),
    # a derivative coefficient past float64 (2 * 1e308) is refused before numpy forms it
    "poly-derivative-overflows": (
        {
            "command": "ito-check",
            "partition": {"kind": "cantor-crossing", "ns": [3]},
            "p": 2.5,
            "fn": {"name": "poly", "coeffs": [0, 1e308, 1e308]},
        },
        "coeffs (derivative 1) must be finite, got inf",
    ),
    # x**300 underflows below 0.08: both phi-sums read 0 and their ratio is undefined
    "isometry-phi-sums-underflow": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 1024, "seed": 9},
            "partition": {"kind": "badic", "levels": [8, 10]},
            "fn": SIN,
            "phi": {"kind": "power", "p_phi": 300},
            "holder_alpha": 0.79,
        },
        "both phi-sums are 0 at p_phi = 300 on the stage of 256 increments",
    ),
}


def write_config(directory: Path, name: str, cfg: dict | str | bytes | None) -> Path:
    """Write ``cfg`` as JSON, or as it is when it is already config text or bytes;
    None makes a directory of that name, which no config read gets through."""
    path = directory / name
    if cfg is None:
        path.mkdir()
    elif isinstance(cfg, bytes):
        path.write_bytes(cfg)
    else:
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg, indent=2) + "\n")
    return path


@pytest.mark.filterwarnings("error")  # a refused config prints its error line and nothing else
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_one_naming_the_key(tmp_path, capsys, case):
    cfg, message = BAD_CONFIGS[case]
    path = write_config(tmp_path, "bad.json", cfg)
    # raw text, bytes or no file at all: run as cantor-sweep, which the raw texts name
    command = cfg["command"] if isinstance(cfg, dict) else "cantor-sweep"
    out = tmp_path / "o"
    code = cli.main([command, "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {path}: "), err
    assert message in err
    assert not out.exists()  # nothing is written for a rejected config


def run_config(tmp_path, capsys, cfg: dict) -> tuple[int, list[dict]]:
    """Exit code and CSV rows (as dicts of cell text) of an in-process run on ``cfg``."""
    path = write_config(tmp_path, "run.json", {**cfg, "label": "run"})
    code = cli.main([cfg["command"], "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code in (0, 2), capsys.readouterr().err
    header, *rows = [line.split(",") for line in (tmp_path / "o" / "run.csv").read_text().splitlines()]
    return code, [dict(zip(header, row)) for row in rows]


def run_remainder(tmp_path, capsys, **cfg) -> tuple[int, list[dict]]:
    return run_config(tmp_path, capsys, {"command": "remainder", **cfg})


ABS_POWER = {"name": "abs-power", "q": 2.25}


def test_remainder_diagonal_pair_reads_zero(tmp_path, capsys):
    _, rows = run_remainder(
        tmp_path, capsys, fn=ABS_POWER, p=2.25, pairs=[[0.3, 0.3], [0.2, 0.7]], method="taylor"
    )
    assert rows[0]["g_taylor"] == "0"


def test_remainder_thetas_hit_the_axis_exactly(tmp_path, capsys):
    # count 6 puts an angle on pi/2: (a, b) = (0, 1) and G = 1 for a pure power
    _, rows = run_remainder(tmp_path, capsys, fn=ABS_POWER, p=2.25, thetas={"count": 6})
    assert (rows[1]["a"], rows[1]["b"], float(rows[1]["g_taylor"])) == ("0", "1", 1.0)


def test_remainder_thetas_on_the_diagonal_agree(tmp_path, capsys):
    # count 4 puts angles on pi/4 and 5 pi/4, where cos and sin round 1 ulp
    # apart: both forms read the diagonal's 0 there
    code, rows = run_remainder(
        tmp_path,
        capsys,
        fn={"name": "abs-power", "q": 2.5},
        p=2.5,
        thetas={"count": 4},
        method="both",
        expect="converged",
        tol=1e-7,
    )
    assert code == 0
    assert [(row["g_taylor"], row["g_integral"]) for row in rows[::2]] == [("0", "0")] * 2


def test_ito_check_over_cantor_crossing_reaches_stage_83(tmp_path, capsys):
    # level blocks, not the 2**n grid: stage 83 is the first with |L^n| < 0.02
    cfg = {
        "command": "ito-check",
        "label": "deep",
        "partition": {"kind": "cantor-crossing", "ns": [20, 83]},
        "p": 2.5,
    }
    path = write_config(tmp_path, "deep.json", cfg)
    out = tmp_path / "o"
    code = cli.main(["ito-check", "--config", str(path), "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    header, *rows = [line.split(",") for line in (out / "deep.csv").read_text().splitlines()]
    row = dict(zip(header, rows[-1]))
    stage = cantor_stage(2.5, 83)
    assert row["stage"] == "83"
    assert int(row["n_increments"]) == stage.n_increments == 1 + (2**83 - 1) * 39
    assert float(row["compensated"]) == stage.compensated


def test_variation_with_a_gauge_over_cantor_crossing_is_the_per_level_sum(tmp_path, capsys):
    # the stacked rows give each stage's phi-sum bit for bit as the weighted
    # sum of phi_variation_partial over the level blocks
    phi = {"kind": "log-modulated", "p_phi": 2.5, "log_power": 0.5}
    cfg = {
        "command": "variation",
        "label": "gauge",
        "partition": {"kind": "cantor-crossing", "ns": [1, 4, 9, 20]},
        "p": 2.5,
        "phi": phi,
    }
    path = write_config(tmp_path, "gauge.json", cfg)
    out = tmp_path / "o"
    code = cli.main(["variation", "--config", str(path), "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    header, *rows = [line.split(",") for line in (out / "gauge.csv").read_text().splitlines()]
    assert header == ["stage", "n_increments", "sum"]
    for stage, n_increments, total in rows:
        report, want = per_level_reference(2.5, int(stage), phi=make_phi(phi))
        assert int(n_increments) == report.n_increments
        assert float(total).hex() == want.hex()


def test_reproduce_all_reports_a_bad_fixture_and_writes_the_manifest(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    good = ["frac-deriv-local.json", "generate-cantor-path.json"]
    for name in good:
        shutil.copyfile(FIXTURES / name, fixtures / name)
    write_config(fixtures, "bad.json", BAD_CONFIGS["cantor-sweep-no-p"][0])
    out = tmp_path / "runs"
    code = cli.main(["reproduce-all", "--fixtures", str(fixtures), "--out-dir", str(out)])
    assert code == 1
    assert "bad.json: CONFIG ERROR" in capsys.readouterr().out
    runs = json.loads((out / "reproduce-all.manifest.json").read_text())["runs"]
    assert set(runs) == {"bad.json", *good}
    assert "cantor-sweep needs 'p'" in runs["bad.json"]
    assert all(runs[name]["exit"] == 0 for name in good)


# path config, the value-grid keys beyond its deltas, and the deltas
VALUE_GRID_RUNS = {
    "fbm": ({"kind": "fbm", "hurst": 0.4, "n": 1024, "seed": 3}, {}, [0.2, 0.1]),
    "takagi": (
        {"kind": "takagi", "b": 2, "alpha": 0.5, "depth": 12},
        {"samples_level": 10},
        [0.1, 0.05],
    ),
}


@pytest.mark.parametrize("mode", ["grid", "increment"])
@pytest.mark.parametrize("run", sorted(VALUE_GRID_RUNS))
def test_value_grid_stages_are_the_library_calls_bit_for_bit(tmp_path, capsys, run, mode):
    path_cfg, keys, deltas = VALUE_GRID_RUNS[run]
    partition = {"kind": "value-grid", "mode": mode, "deltas": deltas, **keys}
    cfg = {"path": path_cfg, "partition": partition, "p": 2.5}
    _, ito = run_config(tmp_path, capsys, {"command": "ito-check", **cfg})
    _, var = run_config(tmp_path, capsys, {"command": "variation", **cfg})
    path = make_path(path_cfg)
    if isinstance(path, AnalyticPath):
        path = sample(path, badic(path.horizon, keys["samples_level"]).times)
    assert [float(row["stage"]) for row in ito] == [float(row["stage"]) for row in var] == deltas
    for delta, ito_row, var_row in zip(deltas, ito, var):
        part = value_grid_partition(path, delta, mode)
        rep = ito_check(abs_power(2.5), path, part, 2.5)
        assert int(ito_row["n_increments"]) == int(var_row["n_increments"]) == rep.n_increments
        assert rep.n_increments == part.n_intervals > 2
        for name in list(ito_row)[2:]:
            assert float(ito_row[name]).hex() == float(getattr(rep, name)).hex(), name
        assert float(var_row["sum"]).hex() == pth_variation_partial(path, part, 2.5).hex()


def test_frac_deriv_rl_is_rl_integral(tmp_path, capsys):
    xs = [0.25, 0.5, 1.0]
    cfg = {"command": "frac-deriv", "op": "rl", "fn": SIN, "alpha": 0.5, "xs": xs}
    _, rows = run_config(tmp_path, capsys, cfg)
    want = [rl_integral(sin_affine(), 0.5, 0.0, x) for x in xs]
    assert [float(row["value"]) for row in rows] == want


def test_isometry_without_holder_alpha_estimates_it_and_writes_the_same_csv(tmp_path, capsys):
    cfg = json.loads((FIXTURES / "isometry-fbm.json").read_text())
    del cfg["holder_alpha"]
    path = make_path(cfg["path"])
    # the estimate, not the fixture's 0.79, clears the gate; the numbers do not depend on it
    assert admissibility_threshold(1.25) < 0.53 < holder_exponent(path) < 0.67
    code, _ = run_config(tmp_path, capsys, cfg)
    assert code == 0
    golden = json.loads((FIXTURES / "expected" / "sha256.json").read_text())["sha256"]
    csv = (tmp_path / "o" / "run.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == golden["isometry-fbm.csv"]


def test_reproduce_all_over_no_fixtures_exits_one(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["reproduce-all", "--fixtures", str(tmp_path), "--out-dir", str(out)]) == 1
    assert f"no fixture configs in {tmp_path}" in capsys.readouterr().err
    assert not out.exists()


def _without_wall_time(manifest):
    if isinstance(manifest, dict):
        return {k: _without_wall_time(v) for k, v in manifest.items() if k != "wall_time_s"}
    return manifest


@pytest.mark.slow
def test_reproduce_all_rerun_is_stable(tmp_path, capsys):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert cli.main(["reproduce-all", "--fixtures", str(FIXTURES), "--out-dir", str(out)]) == 0
    names = sorted(f.name for f in runs[0].iterdir())
    assert names == sorted(f.name for f in runs[1].iterdir())
    assert sum(n.endswith(".csv") for n in names) == len(list(FIXTURES.glob("*.json")))
    for name in names:
        a, b = ((out / name).read_bytes() for out in runs)
        if name.endswith(".csv"):
            assert a == b, name
        else:
            assert _without_wall_time(json.loads(a)) == _without_wall_time(json.loads(b)), name
