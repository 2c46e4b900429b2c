"""End-to-end runs of the command-line entry point, in subprocesses and
in-process through ``cli.main``, and a property over mutated fixtures."""

import copy
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import EDGE_VALUES, per_level_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpath import cli
from fracpath.errors import FracpathError
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


def package_modules(loaded: set) -> set:
    """The fracpath modules among ``loaded``, without the package prefix."""
    return {m.partition(".")[2] or m for m in loaded if m.split(".")[0] == "fracpath"}


# every process loads fracpath, errors and cli; a fixture run loads exactly these
# modules of the package besides
FIXTURE_MODULES = {
    "generate-cantor-path.json": {"registry", "smooth", "paths", "partitions"},
    "frac-deriv-caputo.json": {"registry", "smooth", "fracops", "_quad"},
    "frac-deriv-local.json": {"registry", "smooth", "fracops", "_quad"},
    "variation-cantor.json": {"registry", "smooth", "paths", "partitions", "variation"},
    "ito-fbm-sin.json": {"registry", "smooth", "paths", "partitions", "follmer"},
    "isometry-fbm.json": {"registry", "smooth", "paths", "partitions", "isometry"},
    "bump-atoms.json": {
        "registry", "smooth", "paths", "partitions", "follmer", "variation", "experiments"
    },
    # the kernel needs no path, but follmer's identity engine loads paths and partitions
    "remainder-profile.json": {"registry", "smooth", "paths", "partitions", "follmer", "_quad"},
}


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; a CLI start must not pay for
    # scipy, nor for any module that only some subcommands run
    loaded = loaded_modules(tmp_path)
    assert package_modules(loaded) == {"fracpath", "errors", "cli"}
    assert not loaded & {"scipy", "numpy.ma", "numpy.polynomial", "concurrent.futures"}


@pytest.mark.parametrize("fixture", sorted(FIXTURE_MODULES))
def test_subcommand_loads_only_what_it_runs(tmp_path, fixture):
    loaded = loaded_modules(tmp_path, FIXTURES / fixture)
    assert package_modules(loaded) == {"fracpath", "errors", "cli", *FIXTURE_MODULES[fixture]}
    assert "numpy.ma" not in loaded  # np.median's import, for the middle of three numbers


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


def test_unknown_key_is_line_numbered(tmp_path, capsys):
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
    assert proc.stderr.startswith(f"error: {cfg}:3: unknown cantor-sweep key 'bogus_key'; allowed:")
    assert "allowed: command, expect, label, ns, p, rounding, tol\n" in proc.stderr
    # the key is found at its own depth, not at the path's own "n" a line above
    topn = tmp_path / "topn.json"
    topn.write_text(
        "{\n"
        '  "command": "generate-path",\n'
        '  "path": {"kind": "fbm", "hurst": 0.4, "n": 64, "seed": 1},\n'
        '  "n": 3\n'
        "}\n"
    )
    assert cli.main(["generate-path", "--config", str(topn), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {topn}:4: unknown generate-path key 'n';")


def test_readme_lists_every_command():
    readme = (REPO / "README.md").read_text()
    listed = re.search(r"Available commands: (.*?)\. Exit codes", readme, re.S)
    assert re.findall(r"`([\w-]+)`", listed[1]) == [*cli._RUNNERS, "reproduce-all"]


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
    # refused by the line of the command the config declares
    assert "ito-cantor.json:2: config declares command 'ito-check'" in proc.stderr, proc.stderr


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
        "expect 'converged' needs 'tol'",
    ),
    "partition-not-an-object": (
        {"command": "variation", "p": 2.5, "partition": "badic"},
        "'partition' must be an object, got 'badic'",
    ),
    "badic-without-path": (
        {"command": "variation", "p": 2.5, "partition": {"kind": "badic", "levels": [2]}},
        "partition kind 'badic' needs 'path'",
    ),
    "analytic-path-without-grid": (
        {"command": "generate-path", "path": {"kind": "cantor-distance", "p": 2.5}},
        "path kind 'cantor-distance' needs 'grid'",
    ),
    "pairs-not-pairs": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [[0.1, 0.2], [0.3]]},
        "'pairs' must be a list of [a, b] pairs, got [[0.1, 0.2], [0.3]]",
    ),
    "remainder-without-points": (
        {"command": "remainder", "fn": SIN, "p": 2.5},
        "remainder needs 'pairs' or 'thetas'",
    ),
    "remainder-no-p": (
        {"command": "remainder", "fn": SIN, "thetas": {"count": 4}},
        "remainder needs 'p'",
    ),
    "cantor-sweep-no-p": ({"command": "cantor-sweep", "ns": [2]}, "cantor-sweep needs 'p'"),
    "bump-no-p": ({"command": "bump-decomposition", "ns": [2]}, "bump-decomposition needs 'p'"),
    "rl-no-alpha": (
        {"command": "frac-deriv", "op": "rl", "fn": SIN, "xs": [0.5]},
        "op 'rl' needs 'alpha'",
    ),
    "caputo-no-p": (
        {"command": "frac-deriv", "op": "caputo", "fn": SIN, "alpha": 0.5, "xs": [0.5]},
        "op 'caputo' needs 'p'",
    ),
    # the power rule is the Caputo derivative's: Gamma(3)/Gamma(3.5) is the exact RL value
    "rl-with-power-rule-reference": (
        {
            "command": "frac-deriv",
            "op": "rl",
            "fn": {"name": "plus-power", "q": 2.0},
            "alpha": 0.5,
            "xs": [1.0],
            "reference": {"kind": "power-rule", "q": 2.0},
        },
        "bad.json:12: op 'rl' reads no 'reference'",
    ),
    # a key the run does not read is refused by its line, where the run decides what it reads
    "caputo-with-alpha": (
        {"command": "frac-deriv", "op": "caputo", "fn": SIN, "p": 0.5, "alpha": 123.0, "xs": [1.0]},
        "bad.json:8: op 'caputo' reads no 'alpha'",
    ),
    "caputo-with-side": (
        {"command": "frac-deriv", "op": "caputo", "fn": SIN, "p": 0.5, "side": -1, "xs": [1.0]},
        "bad.json:8: op 'caputo' reads no 'side'",
    ),
    "local-with-a": (
        {"command": "frac-deriv", "op": "local", "fn": SIN, "alpha": 0.5, "a": 99.0, "xs": [0.0]},
        "bad.json:8: op 'local' reads no 'a'",
    ),
    "fbm-path-with-grid": (
        {
            "command": "generate-path",
            "path": {"kind": "fbm", "hurst": 0.4, "n": 64},
            "grid": {"n": 3},
        },
        "bad.json:8: path kind 'fbm' reads no 'grid'",
    ),
    "cantor-crossing-with-path": (
        {
            "command": "ito-check",
            "partition": {"kind": "cantor-crossing", "ns": [3]},
            "path": {"kind": "fbm", "hurst": 0.4, "n": 64},
            "p": 2.5,
        },
        "bad.json:9: partition kind 'cantor-crossing' reads no 'path'",
    ),
    "value-grid-on-fbm-with-samples-level": (
        {
            "command": "variation",
            "path": {"kind": "fbm", "hurst": 0.4, "n": 64},
            "partition": {"kind": "value-grid", "deltas": [0.2], "samples_level": 10},
            "p": 2.5,
        },
        "bad.json:13: path kind 'fbm' reads no 'samples_level'",
    ),
    "phi-beside-p-on-badic": (
        {
            "command": "variation",
            "path": {"kind": "fbm", "hurst": 0.4, "n": 64},
            "partition": {"kind": "badic", "levels": [4, 6]},
            "p": 1.0,
            "phi": {"kind": "power", "p_phi": 2.5},
        },
        "bad.json:15: partition kind 'badic' reads no 'p'",
    ),
    "phi-on-cantor-crossing-without-p": (
        {
            "command": "variation",
            "partition": {"kind": "cantor-crossing", "ns": [3]},
            "phi": {"kind": "power", "p_phi": 2.5},
        },
        "partition kind 'cantor-crossing' needs 'p'",
    ),
    "isometry-with-p": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 64, "seed": 9},
            "partition": {"kind": "badic", "levels": [2, 3]},
            "fn": SIN,
            "p": 1.25,
        },
        "bad.json:19: unknown isometry key 'p'",
    ),
    "pairs-beside-thetas": (
        {
            "command": "remainder",
            "fn": SIN,
            "p": 2.5,
            "pairs": [[0.1, 0.2]],
            "thetas": {"count": 4},
        },
        "bad.json:13: remainder with 'pairs' reads no 'thetas'",
    ),
    "cantor-sweep-no-ns": ({"command": "cantor-sweep", "p": 2.5}, "cantor-sweep needs 'ns'"),
    "bump-decomposition-no-ns": (
        {"command": "bump-decomposition", "p": 2.25},
        "bump-decomposition needs 'ns'",
    ),
    # null is never a value: a key left out takes its default
    "a-null": (
        {"command": "frac-deriv", "op": "caputo", "fn": SIN, "p": 0.5, "a": None, "xs": [1.0]},
        "bad.json:8: frac-deriv key 'a' must not be null",
    ),
    "side-null": (
        {
            "command": "frac-deriv",
            "op": "local",
            "fn": SIN,
            "alpha": 0.5,
            "side": None,
            "xs": [0.0],
        },
        "bad.json:8: frac-deriv key 'side' must not be null",
    ),
    "tol-null": (
        {"command": "cantor-sweep", "p": 2.5, "ns": [2], "tol": None},
        "bad.json:7: cantor-sweep key 'tol' must not be null",
    ),
    "holder-alpha-null": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 64, "seed": 9},
            "partition": {"kind": "badic", "levels": [2, 3]},
            "fn": SIN,
            "holder_alpha": None,
        },
        "bad.json:19: isometry key 'holder_alpha' must not be null",
    ),
    "label-null": (
        {"command": "cantor-sweep", "label": None, "p": 2.5, "ns": [2]},
        "bad.json:3: cantor-sweep key 'label' must not be null",
    ),
    "partition-kind-null": (
        {"command": "ito-check", "partition": {"kind": None, "ns": [3]}, "p": 2.5},
        "bad.json:4: partition needs 'kind'",
    ),
    # a null in a registry object is refused as one in any other object, before its
    # constructor runs; a null command by the command choice of reproduce-all (the harness
    # runs a config with no command as it does)
    "path-seed-null": (
        {"command": "generate-path", "path": {"kind": "fbm", "hurst": 0.4, "n": 64, "seed": None}},
        "bad.json:7: path key 'seed' must not be null",
    ),
    "phi-custom-fn-null": (
        {
            "command": "variation",
            "path": {"kind": "takagi", "depth": 12},
            "partition": {"kind": "badic", "levels": [4, 6]},
            "phi": {"kind": "power", "p_phi": 1.0, "custom_fn": None},
        },
        "bad.json:17: phi key 'custom_fn' must not be null",
    ),
    "command-null": (
        {"command": None, "p": 2.5, "ns": [2]},
        "bad.json:2: 'command' must be one of 'generate-path', 'variation', ",
    ),
    "grid-base-null": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-distance", "p": 2.5},
            "grid": {"n": 3, "base": None},
        },
        "bad.json:9: grid key 'base' must not be null",
    ),
    "thetas-not-object": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "thetas": 16},
        "'thetas' must be an object",
    ),
    "thetas-unknown-key": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "thetas": {"cnt": 3}},
        "bad.json:8: unknown thetas key 'cnt'; allowed: count",
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
            "holder_alpha": 0.4,
        },
        "partition 'kind' must be one of 'badic', 'value-grid', got 'cantor-crossing'",
    ),
    # huge finite numbers are refused before anything is built
    "grid-n-huge": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-distance", "p": 2.5},
            "grid": {"n": 1e308},
        },
        "intervals must lie in [2, 33554432], got inf",
    ),
    "atoms-n-huge": (
        {"command": "bump-atoms", "p": 2.25, "n": 1e308},
        "n must lie in [1, 26], got 1000000000000000010979",
    ),
    "cantor-bump-knots-depth-huge": (
        {"command": "generate-path", "path": {"kind": "cantor-bump-knots", "p": 2.5, "depth": 16}},
        "depth 16 at p=2.5: the knots must lie in [0, 33554432], got 863405543735",
    ),
    "cantor-bump-knots-depth-zero": (
        {"command": "generate-path", "path": {"kind": "cantor-bump-knots", "p": 2.5, "depth": 0}},
        "depth must lie in [1, 25], got 0",
    ),
    "isometry-custom-fn-without-custom-kind": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 64, "seed": 9},
            "partition": {"kind": "badic", "levels": [2, 3]},
            "fn": SIN,
            "phi": {"kind": "power", "p_phi": 2, "custom_fn": 3},
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
        "n must lie in [2, 33554431], got 1099511627776",
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
        "depth must lie in [1, 678], got 1000000",
    ),
    "cantor-bump-depth-underflows": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-bump", "p": 2.5, "depth": 679},
            "grid": {"n": 4},
        },
        "depth must lie in [1, 678], got 679",
    ),
    "cantor-bump-count-overflows": (
        {
            "command": "generate-path",
            "path": {"kind": "cantor-bump", "p": 2.9, "depth": 600},
            "grid": {"n": 4},
        },
        "level 540 at p=2.9: the bump count must lie in [0, 1.7976931348623157e+308],"
        " got inf",
    ),
    "takagi-depth-overflows": (
        {
            "command": "generate-path",
            "path": {"kind": "takagi", "b": 2, "alpha": 0.5, "depth": 1025},
            "grid": {"n": 4},
        },
        "depth 1025 at b=2: the last scale b**1024 must lie in [1, 1.7976931348623157e+308],"
        " got inf",
    ),
    # one row fits, but the stage's 140 level rows would hold about 4e9 values
    "cantor-sweep-stage-too-large": (
        {"command": "cantor-sweep", "p": 1.3, "ns": [140]},
        "stage 140 at p=1.3: the values in 140 level rows must lie in [0, 33554432], got 3989496980",
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
    # the atom table is that of f(x) = |x|^p with the bump path's own p, so it takes no fn,
    # and the remainder kernel no longer holds it
    "bump-atoms-takes-no-fn": (
        {"command": "bump-atoms", "fn": {"name": "abs-power", "q": 2.25}, "p": 2.25, "n": 10},
        "bad.json:3: unknown bump-atoms key 'fn'; allowed: command, expect, label, n, p, tol",
    ),
    "remainder-takes-no-atoms": (
        {
            "command": "remainder",
            "fn": {"name": "abs-power", "q": 2.25},
            "p": 2.25,
            "atoms": {"n": 10},
        },
        "bad.json:8: unknown remainder key 'atoms'",
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
        "|dS| at index (0, 0) must keep |dS|^2.5 finite, got 1.6245001869371713e+267",
    ),
    # a kernel that is no finite number is refused by its pair, in either form
    "remainder-pair-overflows-taylor": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [[0.1, 1e200]], "method": "taylor"},
        "(a, b) at index 0 must keep |b - a|^2.5 finite, got (0.1, 1e+200)",
    ),
    "remainder-pair-overflows-integral": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [[0.1, 1e200]], "method": "integral"},
        "(a, b) at index 0 must keep |b - a|^2.5 finite, got (0.1, 1e+200)",
    ),
    "remainder-taylor-not-finite": (
        {
            "command": "remainder",
            "fn": {"name": "abs-power", "q": 3.5},
            "p": 2.5,
            "pairs": [[0.0, 1e100]],
            "method": "taylor",
        },
        "(a, b) at index 0 must give a finite Taylor remainder kernel, got (0.0, 1e+100)",
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
    # a run that reports no gap has nothing to hold to a tol: refused after the run, before
    # any file is written
    "variation-one-stage-converged": (
        {
            "command": "variation",
            "partition": {"kind": "cantor-crossing", "ns": [6]},
            "p": 2.5,
            "expect": "converged",
            "tol": 0.05,
        },
        "bad.json:11: variation reads no 'tol'",
    ),
    "generate-path-converged": (
        {
            "command": "generate-path",
            "path": {"kind": "fbm", "hurst": 0.4, "n": 64},
            "expect": "converged",
            "tol": 1e-12,
        },
        "generate-path reads no 'tol'",
    ),
    "frac-deriv-tol-without-reference": (
        {"command": "frac-deriv", "op": "rl", "fn": SIN, "alpha": 0.5, "xs": [0.5], "tol": 1e-3},
        "frac-deriv reads no 'tol'",
    ),
    "remainder-taylor-converged": (
        {
            "command": "remainder",
            "fn": SIN,
            "p": 2.5,
            "thetas": {"count": 4},
            "expect": "converged",
            "tol": 1e-3,
        },
        "remainder reads no 'tol'",
    ),
    "ito-check-one-stage-converged": (
        {
            "command": "ito-check",
            "path": {"kind": "fbm", "hurst": 0.4, "n": 65536, "seed": 2},
            "partition": {"kind": "badic", "levels": [8]},
            "fn": SIN,
            "p": 2.5,
            "expect": "converged",
            "tol": 0.05,
        },
        "bad.json:20: ito-check reads no 'tol'",
    ),
    "isometry-one-level-converged": (
        {
            "command": "isometry",
            "path": {"kind": "fbm", "hurst": 0.8, "n": 16384, "seed": 9},
            "partition": {"kind": "badic", "levels": [8]},
            "fn": SIN,
            "phi": {"kind": "power", "p_phi": 1.25},
            "holder_alpha": 0.79,
            "expect": "converged",
            "tol": 0.1,
        },
        "bad.json:24: isometry reads no 'tol'",
    ),
    "remainder-integral-converged-without-tol": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [[0.1, 0.2]], "method": "integral",
         "expect": "converged"},
        "remainder reads no 'expect'",
    ),
    # an empty list of pairs reads as missing, as an empty required key does
    "remainder-pairs-empty": (
        {"command": "remainder", "fn": SIN, "p": 2.5, "pairs": [], "method": "both", "tol": 0.1},
        "bad.json:7: remainder needs 'pairs'",
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
    if command is None:  # as reproduce-all runs a config: by the command it declares
        with pytest.raises(FracpathError) as refused:
            cli._execute(None, path, out)
        code, err = 1, f"error: {refused.value}\n"
    else:
        code = cli.main([command, "--config", str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err
    assert code == 1, err
    assert re.match(rf"error: {re.escape(str(path))}(:\d+)?: ", err), err
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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_reproduce_all_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "o"
    argv = ["reproduce-all", "--fixtures", str(FIXTURES), "--out-dir", str(out), "--jobs", jobs]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("fixture", sorted(f.name for f in FIXTURES.glob("*.json")))
def test_a_fixture_held_to_a_tol_on_its_first_stage_is_checked_or_refused_by_its_line(
    tmp_path, fixture
):
    # expect "converged" with a tol is a claim the run must check: cut to one stage, a run
    # ends converged or not-converged, or is refused by its line, and never ends unchecked
    cfg = {**json.loads((FIXTURES / fixture).read_text()), "expect": "converged", "tol": 0.05}
    if "partition" in cfg:
        stages = cli._PARTITIONS[cfg["partition"]["kind"]][1]
        cfg["partition"] = {**cfg["partition"], stages: cfg["partition"][stages][:1]}
    if "ns" in cfg:
        cfg["ns"] = cfg["ns"][:1]
    path, out = write_config(tmp_path, fixture, cfg), tmp_path / "o"
    try:
        code, manifest = cli._execute(cfg["command"], path, out)
    except FracpathError as refused:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(refused)), refused
        assert not out.exists()
    else:
        assert manifest["verdict"] == {0: "converged", 2: "not-converged"}[code]


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


# --------------------------------------------------------------------------- #
# the config gate over mutated fixtures
# --------------------------------------------------------------------------- #

# what a config place takes: the API fuzz's scalars, then a null, a string and
# the containers of the wrong shape
MUTANTS = (*EDGE_VALUES, None, "x", [], {}, [1])


def config_places(obj, at=()):
    """The key path of every value in a config, objects and lists included, at any depth."""
    if not isinstance(obj, (dict, list)):
        return
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield at + (key,)
        yield from config_places(value, at + (key,))


@st.composite
def mutated_fixtures(draw):
    """A fixture's name and config with one or two places replaced by a ``MUTANTS`` entry."""
    fixture = draw(st.sampled_from(sorted(FIXTURES.glob("*.json"))))
    cfg = json.loads(fixture.read_text())
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(config_places(cfg))))
        owner = cfg
        for key in parents:
            owner = owner[key]
        owner[last] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
    return fixture.name, cfg


# 300 draws take about a second. Some larger draws meet a thetas count of 1e6 under
# method "both": 2e6 remainder kernels, about 20 s each time, admitted work and no fault
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_fixtures())
def test_a_mutated_fixture_is_refused_by_its_path_or_writes_finite_cells(tmp_path_factory, case):
    # one of two ends: a FracpathError that starts with the config path (and the
    # line of an unknown key), or a CSV of finite cells plus its manifest; only a
    # Cantor stage's upper bound may read inf
    name, cfg = case
    tmp = tmp_path_factory.mktemp("mutated")
    path, out = write_config(tmp, name, cfg), tmp / "o"
    try:
        _, manifest = cli._execute(None, path, out)
    except FracpathError as exc:
        assert re.match(rf"{re.escape(str(path))}(:\d+)?: ", str(exc)), exc
        return
    csv = out / next(iter(manifest["outputs"]))
    header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    for row in rows:
        for column, cell in zip(header, row, strict=True):
            assert column == "upper_bound" or math.isfinite(float(cell)), (column, cell)
    assert (out / f"{csv.stem}.manifest.json").is_file()


# a value for each top-level key some command reads, to add it where a fixture has none
READ_VALUES = {
    "side": -1,
    "pairs": [[0.1, 0.7]],
    **{k: v for f in sorted(FIXTURES.glob("*.json")) for k, v in json.loads(f.read_text()).items()},
}
# the added keys these fixtures' runs read
READ_IF_ADDED = {
    ("frac-deriv-local.json", "side"),
    ("ito-cantor.json", "fn"),
    ("variation-cantor.json", "phi"),
}
# the objects in a config that the config reader fills, beside the top level, and the
# registry objects, whose nulls it refuses before their constructors run
FILLED = ("partition", "grid", "reference", "thetas")
REGISTRY = ("path", "fn", "phi")


def unread_or_null_variants():
    """(fixture name, command, config) for each fixture with one key its run does not
    read added, and with one key of the top level, of a filled object or of a registry
    object set to null."""
    for fixture in sorted(FIXTURES.glob("*.json")):
        cfg = json.loads(fixture.read_text())
        for key in sorted(READ_VALUES.keys() - cfg.keys() - cli._COMMON_KEYS.keys()):
            if (fixture.name, key) not in READ_IF_ADDED:
                yield fixture.name, cfg["command"], {**cfg, key: READ_VALUES[key]}
        objects = [k for k in (*FILLED, *REGISTRY) if k in cfg]
        places = [(key,) for key in cfg] + [(k, key) for k in objects for key in cfg[k]]
        for *parents, last in places:
            nulled = copy.deepcopy(cfg)
            (nulled[parents[0]] if parents else nulled)[last] = None
            yield fixture.name, cfg["command"], nulled


def test_a_fixture_given_a_key_its_run_does_not_read_or_a_null_is_refused_by_its_line(tmp_path):
    # 314 refusals in about 0.15 s: each names the config path and the key's line
    read = {k for _, defaults, required in cli._RUNNERS.values() for k in (*defaults, *required)}
    assert read <= READ_VALUES.keys()
    variants = list(unread_or_null_variants())
    for i, (name, command, cfg) in enumerate(variants):
        path, out = write_config(tmp_path, f"{i}-{name}", cfg), tmp_path / f"o{i}"
        with pytest.raises(FracpathError) as refused:
            cli._execute(command, path, out)
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(refused.value)), refused.value
        assert not out.exists()
    assert len(variants) > 200
