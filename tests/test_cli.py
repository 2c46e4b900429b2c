"""End-to-end runs of the command-line entry point in subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; a CLI start must not pay for scipy
    proc = run_python("-c", "import sys, fracpath.cli; print('scipy' in sys.modules)", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
