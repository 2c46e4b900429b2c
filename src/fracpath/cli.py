"""Command line front end.

Subcommands consume a JSON config, write CSV outputs plus a manifest into an
output directory, and exit with 0 (ran, expectation met or none stated),
1 (bad config or invalid inputs) or 2 (the config said expect "converged"
but the run's verdict was "not-converged").

CSV files are byte-stable across reruns of the same config; the manifest
records the config digest, package version and wall time (the manifest is
the one file allowed to differ between reruns).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FracpathError, InvalidConfigError
from .experiments import bump_decomposition, cantor_sweep
from .follmer import ito_check, kernel_profile, remainder_kernel, taylor_remainder
from .fracops import FracOrder, caputo, local_frac_derivative, power_rule, rl_integral
from .isometry import holder_exponent, isometry_check
from .partitions import Partition, badic, cantor_value_grid, value_grid_partition
from .paths import AnalyticPath, SampledPath, sample
from .registry import abs_power, make_fn, make_path, make_phi
from .variation import phi_variation_partial, pth_variation_partial

_COMMON_KEYS = {"command", "label", "expect", "tol"}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _find_key_line(raw: str, key: str) -> int:
    m = re.search(r'"{}"\s*:'.format(re.escape(key)), raw)
    if m is None:
        return 0
    return raw.count("\n", 0, m.start()) + 1


def _load_config(path: Path) -> tuple[dict, str]:
    try:
        raw = path.read_text()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise InvalidConfigError(f"{path}: top level must be an object")
    return cfg, raw


def _check_keys(cfg: dict, allowed: set, raw: str, path: Path) -> None:
    for key in cfg:
        if key not in allowed and key not in _COMMON_KEYS:
            line = _find_key_line(raw, key)
            raise InvalidConfigError(
                f"{path}:{line}: unknown key {key!r}; allowed: {', '.join(sorted(allowed))}"
            )


def _expectation(cfg: dict) -> tuple[str, float | None]:
    expect = cfg.get("expect", "any")
    if expect not in ("any", "converged"):
        raise InvalidConfigError(f"expect must be 'any' or 'converged', got {expect!r}")
    tol = cfg.get("tol")
    if tol is not None:
        tol = float(tol)
        if tol <= 0.0:
            raise InvalidConfigError("tol must be positive")
    if expect == "converged" and tol is None:
        raise InvalidConfigError("expect 'converged' requires a tol")
    return expect, tol


def _write_csv(out_path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    out_path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------- #
# stage assembly shared by variation / ito-check / isometry
# --------------------------------------------------------------------------- #


def _as_sampled(path_cfg: dict, levels_max: int, base: int) -> SampledPath:
    obj = make_path(path_cfg)
    if isinstance(obj, AnalyticPath):
        grid = badic(obj.horizon, levels_max, base)
        return sample(obj, grid.times)
    return obj


def _iter_stages(cfg: dict, p: float, raw: str, cfg_path: Path):
    """Yield (stage_label, sampled_path, partition) triples."""
    part_cfg = cfg.get("partition")
    if not isinstance(part_cfg, dict) or "kind" not in part_cfg:
        raise InvalidConfigError(f"{cfg_path}: 'partition' must be an object with a 'kind'")
    part_cfg = dict(part_cfg)
    kind = part_cfg.pop("kind")
    if kind == "cantor-crossing":
        ns = part_cfg.pop("ns", None)
        rounding = part_cfg.pop("rounding", "floor")
        if part_cfg:
            raise InvalidConfigError(f"{cfg_path}: unknown partition keys {sorted(part_cfg)}")
        if not ns:
            raise InvalidConfigError(f"{cfg_path}: cantor-crossing needs 'ns'")
        for n in ns:
            path, part, _ = cantor_value_grid(p, int(n), rounding)
            yield int(n), path, part
        return
    if "path" not in cfg:
        raise InvalidConfigError(f"{cfg_path}: this partition kind needs a 'path'")
    if kind == "badic":
        levels = part_cfg.pop("levels", None)
        base = int(part_cfg.pop("base", 2))
        if part_cfg:
            raise InvalidConfigError(f"{cfg_path}: unknown partition keys {sorted(part_cfg)}")
        if not levels:
            raise InvalidConfigError(f"{cfg_path}: badic partitions need 'levels'")
        sampled = _as_sampled(cfg["path"], max(int(v) for v in levels), base)
        for lev in levels:
            yield int(lev), sampled, badic(sampled.horizon, int(lev), base)
        return
    if kind == "value-grid":
        deltas = part_cfg.pop("deltas", None)
        mode = part_cfg.pop("mode", "increment")
        samples_level = int(part_cfg.pop("samples_level", 12))
        if part_cfg:
            raise InvalidConfigError(f"{cfg_path}: unknown partition keys {sorted(part_cfg)}")
        if not deltas:
            raise InvalidConfigError(f"{cfg_path}: value-grid partitions need 'deltas'")
        sampled = _as_sampled(cfg["path"], samples_level, 2)
        for delta in deltas:
            yield float(delta), sampled, value_grid_partition(sampled, float(delta), mode)
        return
    raise InvalidConfigError(f"{cfg_path}: unknown partition kind {kind!r}")


# --------------------------------------------------------------------------- #
# subcommand runners: each returns (verdict, header, rows)
# --------------------------------------------------------------------------- #


def _run_generate_path(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"path", "grid"}, raw, cfg_path)
    obj = make_path(cfg.get("path", {}))
    grid_cfg = cfg.get("grid")
    if isinstance(obj, AnalyticPath):
        if not grid_cfg:
            raise InvalidConfigError(f"{cfg_path}: analytic paths need a 'grid'")
        grid_cfg = dict(grid_cfg)
        n = int(grid_cfg.pop("n"))
        base = int(grid_cfg.pop("base", 2))
        if grid_cfg:
            raise InvalidConfigError(f"{cfg_path}: unknown grid keys {sorted(grid_cfg)}")
        sampled = sample(obj, badic(obj.horizon, n, base).times)
    else:
        sampled = obj
    rows = [[float(t), float(v)] for t, v in zip(sampled.times, sampled.values)]
    return "unchecked", ["t", "value"], rows


def _run_variation(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"path", "partition", "p", "phi"}, raw, cfg_path)
    expect, tol = _expectation(cfg)
    if "p" not in cfg:
        raise InvalidConfigError(f"{cfg_path}: variation needs 'p'")
    p = float(cfg["p"])
    phi = make_phi(cfg["phi"]) if "phi" in cfg else None
    header = ["stage", "n_increments", "sum"]
    rows = []
    sums = []
    for label, path, part in _iter_stages(cfg, p, raw, cfg_path):
        if phi is not None:
            s = phi_variation_partial(path, part, phi)
        else:
            s = pth_variation_partial(path, part, p)
        sums.append(s)
        rows.append([label, part.n_intervals, float(s)])
    verdict = "unchecked"
    if tol is not None and len(sums) >= 2:
        gap = abs(sums[-1] - sums[-2]) / max(1.0, abs(sums[-1]))
        verdict = "converged" if gap <= tol else "not-converged"
    return verdict, header, rows


def _run_ito_check(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"path", "partition", "p", "fn"}, raw, cfg_path)
    expect, tol = _expectation(cfg)
    if "p" not in cfg:
        raise InvalidConfigError(f"{cfg_path}: ito-check needs 'p'")
    p = float(cfg["p"])
    fn = make_fn(cfg["fn"]) if "fn" in cfg else abs_power(p)
    header = [
        "stage",
        "n_increments",
        "value_change",
        "compensated",
        "kernel_sum",
        "identity_residual",
        "follmer_residual",
    ]
    rows = []
    resids = []
    for label, path, part in _iter_stages(cfg, p, raw, cfg_path):
        rep = ito_check(fn, path, part, p)
        resids.append(abs(rep.follmer_residual))
        rows.append(
            [
                label,
                rep.n_increments,
                rep.value_change,
                rep.compensated,
                rep.kernel_sum,
                rep.identity_residual,
                rep.follmer_residual,
            ]
        )
    verdict = "unchecked"
    if tol is not None:
        ok = resids[-1] <= tol
        if len(resids) >= 3:
            ok = ok and resids[-1] <= resids[-2] <= resids[-3]
        verdict = "converged" if ok else "not-converged"
    return verdict, header, rows


def _run_frac_deriv(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"fn", "op", "p", "alpha", "a", "xs", "side", "reference"}, raw, cfg_path)
    expect, tol = _expectation(cfg)
    op = cfg.get("op")
    if op not in ("rl", "caputo", "local"):
        raise InvalidConfigError(f"{cfg_path}: op must be rl, caputo or local")
    fn = make_fn(cfg.get("fn", {}))
    xs = [float(x) for x in cfg.get("xs", [])]
    if not xs:
        raise InvalidConfigError(f"{cfg_path}: needs nonempty 'xs'")
    a = float(cfg.get("a", 0.0))
    rows = []
    header = ["x", "value"]
    ref_cfg = cfg.get("reference")
    if ref_cfg is not None:
        header += ["reference", "rel_err"]
    rel_errs = []
    for x in xs:
        if op == "rl":
            val = rl_integral(fn, float(cfg["alpha"]), a, x)
        elif op == "caputo":
            val = caputo(fn, FracOrder(float(cfg["p"])), a, x)
        else:
            val = local_frac_derivative(fn.fn, float(cfg["alpha"]), x, int(cfg.get("side", 1)))
        row = [float(x), float(val)]
        if ref_cfg is not None:
            ref_cfg2 = dict(ref_cfg)
            ref_kind = ref_cfg2.pop("kind", None)
            if ref_kind != "power-rule":
                raise InvalidConfigError(f"{cfg_path}: unknown reference kind {ref_kind!r}")
            ref = power_rule(
                float(ref_cfg2["q"]), FracOrder(float(cfg["p"])), float(ref_cfg2.get("k", a)), x
            )
            rel = abs(val - ref) / max(1e-300, abs(ref))
            rel_errs.append(rel)
            row += [float(ref), float(rel)]
        rows.append(row)
    verdict = "unchecked"
    if tol is not None and rel_errs:
        verdict = "converged" if max(rel_errs) <= tol else "not-converged"
    return verdict, header, rows


def _run_remainder_atoms(cfg: dict, fn, p: float, tol: float | None):
    """Atom-weight table of the bump construction: finite-stage masses next
    to their closed-form limits, with the kernel sampled on both ray
    families."""
    atoms = dict(cfg["atoms"])
    kind = atoms.pop("kind", "cantor-bump")
    if kind != "cantor-bump":
        raise InvalidConfigError(f"unknown atoms kind {kind!r}")
    n = int(atoms.pop("n"))
    if atoms:
        raise InvalidConfigError(f"unknown atoms keys: {sorted(atoms)}")
    rep = bump_decomposition(p, n)
    ks = rep.atom_ks
    up = np.arctan2(ks + 1.0, ks.astype(float))
    down = np.arctan2(ks.astype(float), ks + 1.0)
    g_up = kernel_profile(fn, p, up)
    g_down = kernel_profile(fn, p, down)
    header = ["k", "angle_up", "angle_down", "weight_finite", "weight_limit", "g_up", "g_down"]
    rows = [
        [int(k), float(u), float(d), float(wf), float(wl), float(gu), float(gd)]
        for k, u, d, wf, wl, gu, gd in zip(
            ks, up, down, rep.atom_weights, rep.atom_weights_limit, g_up, g_down
        )
    ]
    verdict = "unchecked"
    if tol is not None:
        gap = abs(rep.kernel_from_atoms - rep.kernel_from_limit)
        verdict = "converged" if gap <= tol else "not-converged"
    return verdict, header, rows


def _run_remainder(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"fn", "p", "pairs", "thetas", "atoms", "method"}, raw, cfg_path)
    expect, tol = _expectation(cfg)
    fn = make_fn(cfg.get("fn", {}))
    p = float(cfg["p"])
    if "atoms" in cfg:
        return _run_remainder_atoms(cfg, fn, p, tol)
    method = cfg.get("method", "taylor")
    if method not in ("taylor", "integral", "both"):
        raise InvalidConfigError(f"{cfg_path}: method must be taylor, integral or both")
    pairs: list[tuple[float, float]] = []
    if "pairs" in cfg:
        pairs = [(float(a), float(b)) for a, b in cfg["pairs"]]
    elif "thetas" in cfg:
        count = int(cfg["thetas"].get("count", 64))
        th = (np.arange(count) + 0.5) * (2.0 * np.pi / count)
        pairs = [(float(np.cos(t)), float(np.sin(t))) for t in th]
    else:
        raise InvalidConfigError(f"{cfg_path}: needs 'pairs', 'thetas' or 'atoms'")
    header = ["a", "b"]
    if method in ("taylor", "both"):
        header.append("g_taylor")
    if method in ("integral", "both"):
        header.append("g_integral")
    if method == "both":
        header.append("abs_gap")
    rows = []
    gaps = []
    for a, b in pairs:
        row: list = [a, b]
        g_t = g_i = None
        if method in ("taylor", "both"):
            # taylor-difference form evaluated at the raw pair
            g_t = float(
                taylor_remainder(fn, np.array([a]), np.array([b]), int(np.floor(p)))[0]
                / abs(b - a) ** p
            )
            row.append(g_t)
        if method in ("integral", "both"):
            g_i = remainder_kernel(fn, p, a, b)
            row.append(float(g_i))
        if method == "both":
            gap = abs(g_t - g_i)
            gaps.append(gap)
            row.append(float(gap))
        rows.append(row)
    verdict = "unchecked"
    if tol is not None and gaps:
        verdict = "converged" if max(gaps) <= tol else "not-converged"
    return verdict, header, rows


def _run_isometry(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"path", "partition", "p", "fn", "phi", "holder_alpha"}, raw, cfg_path)
    expect, tol = _expectation(cfg)
    phi = make_phi(cfg.get("phi", {}))
    fn = make_fn(cfg.get("fn", {}))
    p = float(cfg.get("p", phi.p_phi))
    stages = list(_iter_stages(cfg, p, raw, cfg_path))
    labels = [s[0] for s in stages]
    path = stages[-1][1]
    parts = [s[2] for s in stages]
    if "holder_alpha" in cfg:
        alpha = float(cfg["holder_alpha"])
    else:
        alpha = holder_exponent(path)
    report = isometry_check(phi, fn, path, parts, alpha)
    header = ["level", "lhs", "rhs", "rel_error"]
    rows = [
        [labels[i], report.lhs[i], report.rhs[i], abs(report.ratios[i] - 1.0)]
        for i in range(len(labels))
    ]
    verdict = "unchecked"
    if tol is not None:
        verdict = "converged" if report.final_gap <= tol else "not-converged"
    return verdict, header, rows


def _run_cantor_sweep(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"p", "ns", "rounding"}, raw, cfg_path)
    expect, tol = _expectation(cfg)
    p = float(cfg["p"])
    stages = cantor_sweep(p, cfg.get("ns", []), cfg.get("rounding", "floor"))
    header = [
        "n",
        "k_n",
        "n_increments",
        "total_variation",
        "lower_bound",
        "upper_bound",
        "compensated",
        "compensated_formula",
        "identity_residual",
    ]
    rows = [
        [
            s.n,
            s.k_n,
            s.n_increments,
            s.total_variation,
            s.lower_bound,
            s.upper_bound,
            s.compensated,
            s.compensated_formula,
            s.identity_residual,
        ]
        for s in stages
    ]
    verdict = "unchecked"
    if tol is not None and stages:
        ok = all(abs(s.identity_residual) <= tol for s in stages)
        verdict = "converged" if ok else "not-converged"
    return verdict, header, rows


def _run_bump_decomposition(cfg: dict, raw: str, cfg_path: Path):
    _check_keys(cfg, {"p", "ns"}, raw, cfg_path)
    expect, tol = _expectation(cfg)
    p = float(cfg["p"])
    header = ["n", "n_increments", "compensated", "kernel_from_atoms", "kernel_from_limit", "mass"]
    rows = []
    gaps = []
    for n in cfg.get("ns", []):
        rep = bump_decomposition(p, int(n))
        gaps.append(abs(rep.kernel_from_atoms - rep.kernel_from_limit))
        rows.append(
            [
                rep.n,
                rep.n_increments,
                rep.compensated,
                rep.kernel_from_atoms,
                rep.kernel_from_limit,
                rep.mass,
            ]
        )
    verdict = "unchecked"
    if tol is not None and gaps:
        verdict = "converged" if gaps[-1] <= tol else "not-converged"
    return verdict, header, rows


_RUNNERS = {
    "generate-path": _run_generate_path,
    "variation": _run_variation,
    "ito-check": _run_ito_check,
    "frac-deriv": _run_frac_deriv,
    "remainder": _run_remainder,
    "isometry": _run_isometry,
    "cantor-sweep": _run_cantor_sweep,
    "bump-decomposition": _run_bump_decomposition,
}


# --------------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------------- #


def _execute(command: str, cfg_path: Path, out_dir: Path) -> tuple[int, dict]:
    """Run one config; returns (exit_code, manifest_fragment)."""
    cfg, raw = _load_config(cfg_path)
    declared = cfg.get("command")
    if declared is not None and declared != command:
        raise InvalidConfigError(
            f"{cfg_path}: config declares command {declared!r}, invoked as {command!r}"
        )
    runner = _RUNNERS[command]
    started = time.perf_counter()
    verdict, header, rows = runner(cfg, raw, cfg_path)
    wall = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = str(cfg.get("label") or cfg_path.stem)
    csv_path = out_dir / f"{stem}.csv"
    _write_csv(csv_path, header, rows)
    expect = cfg.get("expect", "any")
    manifest = {
        "command": command,
        "config": cfg_path.name,
        "config_sha256": _sha256_bytes(raw.encode()),
        "version": __version__,
        "verdict": verdict,
        "expect": expect,
        "wall_time_s": round(wall, 6),
        "outputs": {csv_path.name: _sha256_bytes(csv_path.read_bytes())},
    }
    manifest_path = out_dir / f"{stem}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    code = 2 if (expect == "converged" and verdict == "not-converged") else 0
    return code, manifest


def _run_one_fixture(args: tuple[Path, Path]) -> tuple[str, int, dict | str]:
    fixture, out_dir = args
    try:
        cfg, _raw = _load_config(fixture)
        command = cfg.get("command")
        if command not in _RUNNERS:
            raise InvalidConfigError(f"{fixture}: missing or unknown 'command' {command!r}")
        code, manifest = _execute(command, fixture, out_dir)
        return fixture.name, code, manifest
    except FracpathError as exc:
        return fixture.name, 1, str(exc)


def _reproduce_all(fixtures_dir: Path, out_dir: Path, jobs: int) -> int:
    fixtures = sorted(fixtures_dir.glob("*.json"))
    if not fixtures:
        print(f"error: no fixture configs in {fixtures_dir}", file=sys.stderr)
        return 1
    tasks = [(f, out_dir) for f in fixtures]
    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one_fixture, tasks))
    else:
        results = [_run_one_fixture(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    summary = {}
    worst = 0
    for name, code, payload in results:
        worst = max(worst, code)
        summary[name] = payload if isinstance(payload, str) else payload | {"exit": code}
        status = "ok" if code == 0 else ("EXPECTATION FAILED" if code == 2 else "CONFIG ERROR")
        print(f"{name}: {status}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "reproduce-all.manifest.json").write_text(
        json.dumps({"version": __version__, "runs": summary}, indent=2, sort_keys=True) + "\n"
    )
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracpath",
        description="variation, compensated sums and fractional operators along rough paths",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, type=Path)
        sp.add_argument("--out-dir", type=Path, default=Path("out"))
    rp = sub.add_parser("reproduce-all")
    rp.add_argument("--fixtures", type=Path, default=Path("fixtures"))
    rp.add_argument("--out-dir", type=Path, default=Path("out"))
    rp.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        if args.command == "reproduce-all":
            return _reproduce_all(args.fixtures, args.out_dir, max(1, args.jobs))
        code, manifest = _execute(args.command, args.config, args.out_dir)
        print(f"{args.command}: verdict={manifest['verdict']} -> {args.out_dir}")
        return code
    except FracpathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
