"""Command line front end.

Subcommands consume a JSON config, write CSV outputs plus a manifest into an
output directory, and exit with 0 (ran, expectation met or none stated),
1 (bad config or invalid inputs) or 2 (the config said expect "converged"
but the run's verdict was "not-converged").

Every subcommand is one runner ``(cfg) -> (header, rows, gap)`` plus the
top-level keys it allows and requires, declared in ``_RUNNERS``. A runner
imports the library modules it calls in its own body, so a process loads
only what its subcommand runs. ``_execute`` does the shared work once: it
rejects unknown keys (with their line) and missing or empty required ones,
parses ``expect``, ``tol`` and ``label`` (a file name, never a path), and
sets the verdict: "converged" iff gap <= tol, "unchecked" when the runner
reports no gap or the config gives no tol, "not-converged" otherwise (a NaN
gap included). Every config number passes ``errors.real`` and every option
``errors.choice``, the library's own rules. Every error a runner raises, a
library error included, names the config file.

CSV files are byte-stable across reruns of the same config; the manifest
records the config digest, package version and wall time (the manifest is
the one file allowed to differ between reruns).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FracpathError, InvalidConfigError, choice, real
from .partitions import MAX_KNOTS, CantorBlocks, badic, block_sum, cantor_blocks
from .partitions import partition_values, value_grid_partition
from .paths import AnalyticPath, SampledPath, sample

_COMMON_KEYS = {"command", "label", "expect", "tol"}
_REQUIRED = object()
_LABEL = re.compile(r"[\w-][\w.-]{0,99}", re.ASCII)  # a file name in --out-dir, never a path


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_config(path: Path) -> tuple[dict, str]:
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"{path}: cannot read the config: {exc}") from None

    def finite(literal: str) -> float:
        # NaN, Infinity, -Infinity and literals such as 1e400 that overflow
        value = float(literal)
        if not math.isfinite(value):
            raise InvalidConfigError(f"{path}: non-finite number {literal} in the config")
        return value

    try:
        cfg = json.loads(raw, parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise InvalidConfigError(f"{path}: top level must be an object")
    return cfg, raw


def _check_keys(cfg: dict, allowed: set, raw: str, path: Path) -> None:
    for key in cfg:
        if key not in allowed and key not in _COMMON_KEYS:
            m = re.search(r'"{}"\s*:'.format(re.escape(key)), raw)
            line = raw.count("\n", 0, m.start()) + 1 if m else 0
            raise InvalidConfigError(
                f"{path}:{line}: unknown key {key!r}; allowed: {', '.join(sorted(allowed))}"
            )


def _require(obj: dict, keys, owner: str) -> None:
    for key in keys:
        if obj.get(key) in (None, []):
            raise InvalidConfigError(f"{owner} needs {key!r}")


def _fill(obj, name: str, defaults: dict, required: tuple = ()) -> dict:
    """The config's ``name`` object with ``defaults`` filled in; rejects a
    non-object, unknown keys and a missing or empty required key."""
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{name!r} must be an object, got {obj!r}")
    allowed = {*defaults, *required}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise InvalidConfigError(
            f"unknown {name} keys {unknown}; allowed: {', '.join(sorted(allowed))}"
        )
    _require(obj, required, name)
    return {**defaults, **obj}


def _number(value, key: str, kind=float, **rules):
    """``value`` as a ``kind``, checked by ``errors.real`` under ``rules`` and named
    by its config ``key``; an int at a float key is cast, so a CSV prints a float."""
    num = real(f"{key!r}", value, integer=(kind is int) or None, error=InvalidConfigError, **rules)
    return num if kind is int else float(num)


def _num(obj: dict, key: str, default=_REQUIRED, kind=float, **rules):
    """``obj[key]`` as a number; ``default`` when absent or null."""
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidConfigError(f"missing {key!r}")
        return default
    return _number(value, key, kind, **rules)


def _nums(obj: dict, key: str, kind=float) -> list:
    """``obj[key]`` as a list of numbers; empty when absent."""
    values = obj.get(key, [])
    if not isinstance(values, list):
        raise InvalidConfigError(f"{key!r} must be a list of numbers, got {values!r}")
    return [_number(v, key, kind) for v in values]


def _expectation(cfg: dict) -> tuple[str, float | None]:
    expect = cfg.get("expect", "any")
    choice("'expect'", expect, ("any", "converged"), error=InvalidConfigError)
    tol = _num(cfg, "tol", None, lo=0)
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

# partition kind -> (optional keys with defaults, the required key listing stages)
_PARTITIONS = {
    "cantor-crossing": ({"rounding": "floor"}, "ns"),
    "badic": ({"base": 2}, "levels"),
    "value-grid": ({"mode": "increment", "samples_level": 12}, "deltas"),
}


def _as_sampled(path_cfg: dict, levels_max: int, base: int) -> SampledPath:
    from .registry import make_path

    obj = make_path(path_cfg)
    if isinstance(obj, AnalyticPath):
        grid = badic(obj.horizon, levels_max, base)
        return sample(obj, grid.times)
    return obj


def _iter_stages(cfg: dict, p: float):
    """Yield (stage_label, stage) per stage: a badic or value-grid stage is
    its (sampled_path, partition), a cantor-crossing stage the level rows of
    ``partitions.cantor_blocks``, so no 2**n grid is built."""
    part = cfg["partition"]
    if not isinstance(part, dict):
        raise InvalidConfigError(f"'partition' must be an object, got {part!r}")
    kind = choice("partition 'kind'", part.get("kind"), _PARTITIONS, error=InvalidConfigError)
    defaults, stages_key = _PARTITIONS[kind]
    part = _fill(part, "partition", {"kind": kind, **defaults}, (stages_key,))
    if kind == "cantor-crossing":
        for n in _nums(part, "ns", int):
            yield n, cantor_blocks(p, n, part["rounding"])[1]
        return
    if "path" not in cfg:
        raise InvalidConfigError("this partition kind needs a 'path'")
    if kind == "badic":
        levels, base = _nums(part, "levels", int), _num(part, "base", kind=int)
        sampled = _as_sampled(cfg["path"], max(levels), base)
        for lev in levels:
            yield lev, (sampled, badic(sampled.horizon, lev, base))
        return
    deltas = _nums(part, "deltas")
    sampled = _as_sampled(cfg["path"], _num(part, "samples_level", kind=int), 2)
    for delta in deltas:
        yield delta, (sampled, value_grid_partition(sampled, delta, part["mode"]))


def _blocks(stage):
    """A stage as weighted rows of path values (``partitions.block_sum``)."""
    return stage if isinstance(stage, CantorBlocks) else [((1,), partition_values(*stage)[1][None])]


# --------------------------------------------------------------------------- #
# subcommand runners: each returns (header, rows, gap)
# --------------------------------------------------------------------------- #


def _run_generate_path(cfg: dict):
    from .registry import make_path

    sampled = make_path(cfg["path"])
    if isinstance(sampled, AnalyticPath):
        if "grid" not in cfg:
            raise InvalidConfigError("analytic paths need a 'grid'")
        grid = _fill(cfg["grid"], "grid", {"base": 2}, ("n",))
        n, base = _num(grid, "n", kind=int), _num(grid, "base", kind=int)
        sampled = sample(sampled, badic(sampled.horizon, n, base).times)
    rows = [[float(t), float(v)] for t, v in zip(sampled.times, sampled.values)]
    return ["t", "value"], rows, None


def _run_variation(cfg: dict):
    from .registry import make_phi
    from .variation import phi_sums

    p = _num(cfg, "p")
    phi = make_phi(cfg["phi"]) if "phi" in cfg else None

    def term(rows):  # the increments, then the phi-sum or pth_variation_partial's p-th power sum
        gauge = phi if phi is not None else real("p", p, lo=0)
        return np.full(len(rows), rows.shape[1] - 1), phi_sums(rows, gauge)

    rows = []
    for label, stage in _iter_stages(cfg, p):
        rows.append([label, *block_sum(_blocks(stage), term)])
    gap = None
    if len(rows) >= 2:
        last, prev = rows[-1][2], rows[-2][2]
        gap = abs(last - prev) / max(1.0, abs(last))
    return ["stage", "n_increments", "sum"], rows, gap


def _run_ito_check(cfg: dict):
    from .follmer import ito_check_blocks
    from .registry import abs_power, make_fn

    p = _num(cfg, "p")
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
    for label, stage in _iter_stages(cfg, p):
        rep = ito_check_blocks(fn, _blocks(stage), p)
        rows.append([label] + [getattr(rep, name) for name in header[1:]])
    r = [abs(row[-1]) for row in rows]
    gap = r[-1] if len(r) < 3 or r[-1] <= r[-2] <= r[-3] else math.inf
    return header, rows, gap


def _run_frac_deriv(cfg: dict):
    from .fracops import FracOrder, caputo, local_frac_derivative, power_rule, rl_integral
    from .registry import make_fn

    op = choice("'op'", cfg["op"], ("rl", "caputo", "local"), error=InvalidConfigError)
    fn = make_fn(cfg["fn"])
    xs = _nums(cfg, "xs")
    a = _num(cfg, "a", 0.0)
    if op == "rl":
        alpha = _num(cfg, "alpha")
        values = [rl_integral(fn, alpha, a, x) for x in xs]
    elif op == "caputo":
        order = FracOrder(_num(cfg, "p"))
        values = [caputo(fn, order, a, x) for x in xs]
    else:
        alpha, side = _num(cfg, "alpha"), _num(cfg, "side", 1, int)
        values = [local_frac_derivative(fn.fn, alpha, x, side) for x in xs]
    rows = [[x, float(v)] for x, v in zip(xs, values)]
    if "reference" not in cfg:
        return ["x", "value"], rows, None
    ref_cfg = _fill(cfg["reference"], "reference", {"k": a}, ("kind", "q"))
    choice("reference 'kind'", ref_cfg["kind"], ("power-rule",), error=InvalidConfigError)
    q, order, k = _num(ref_cfg, "q"), FracOrder(_num(cfg, "p")), _num(ref_cfg, "k")
    rel_errs = []
    for row, val in zip(rows, values):
        ref = power_rule(q, order, k, row[0])
        rel_errs.append(abs(val - ref) / max(1e-300, abs(ref)))
        row += [float(ref), float(rel_errs[-1])]
    return ["x", "value", "reference", "rel_err"], rows, max(rel_errs)


def _run_remainder_atoms(cfg: dict, p: float):
    """Atom-weight table of the bump construction: finite-stage masses next
    to their closed-form limits, with the kernel of f(x) = |x|^p sampled on
    both ray families. The atom identity holds for that f only, so any other
    ``fn`` is refused."""
    from .experiments import bump_decomposition

    fn_cfg = cfg["fn"]
    if fn_cfg.get("name") != "abs-power" or fn_cfg.get("q") != p or fn_cfg.get("k", 0.0) != 0.0:
        raise InvalidConfigError(
            f"atoms need fn abs-power with q = p and k = 0, got fn {fn_cfg!r} at p = {p!r}"
        )
    atoms = _fill(cfg["atoms"], "atoms", {"kind": "cantor-bump"}, ("n",))
    choice("atoms 'kind'", atoms["kind"], ("cantor-bump",), error=InvalidConfigError)
    rep = bump_decomposition(p, _num(atoms, "n", kind=int))
    up, down = rep.up_angles, rep.down_angles
    columns = np.column_stack(
        [up, down, rep.atom_weights, rep.atom_weights_limit, rep.g_up, rep.g_down]
    )
    header = ["k", "angle_up", "angle_down", "weight_finite", "weight_limit", "g_up", "g_down"]
    rows = [[k, *cells] for k, cells in enumerate(columns.tolist())]
    return header, rows, abs(rep.kernel_from_atoms - rep.kernel_from_limit)


def _run_remainder(cfg: dict):
    from .follmer import circle_points, remainder_kernel
    from .registry import make_fn

    fn = make_fn(cfg["fn"])
    p = _num(cfg, "p")
    if "atoms" in cfg:
        return _run_remainder_atoms(cfg, p)
    method = cfg.get("method", "taylor")
    choice("'method'", method, ("taylor", "integral", "both"), error=InvalidConfigError)
    if "pairs" in cfg:
        pairs = cfg["pairs"]
        if not isinstance(pairs, list) or any(
            not isinstance(ab, list) or len(ab) != 2 for ab in pairs
        ):
            raise InvalidConfigError(f"'pairs' must be a list of [a, b] pairs, got {pairs!r}")
        a, b = (np.array([_number(ab[i], "pairs") for ab in pairs], dtype=float) for i in (0, 1))
    elif "thetas" in cfg:
        count = _fill(cfg["thetas"], "thetas", {"count": 64})["count"]
        count = real("thetas 'count'", count, lo=1, hi=MAX_KNOTS, open=False, integer=True,
                     error=InvalidConfigError)
        a, b = circle_points((np.arange(count) + 0.5) * (2.0 * np.pi / count))
    else:
        raise InvalidConfigError("needs 'pairs', 'thetas' or 'atoms'")
    header, columns = ["a", "b"], [a.tolist(), b.tolist()]
    for form in ("taylor", "integral") if method == "both" else (method,):
        header.append(f"g_{form}")
        columns.append(remainder_kernel(fn, p, a, b, method=form).tolist())
    gap = None
    if method == "both":
        gaps = [abs(t - i) for t, i in zip(*columns[2:])]
        header.append("abs_gap")
        columns.append(gaps)
        gap = max(gaps, default=None)
    return header, [list(row) for row in zip(*columns)], gap


def _run_isometry(cfg: dict):
    from .isometry import holder_exponent, isometry_check
    from .registry import make_fn, make_phi

    phi = make_phi(cfg.get("phi", {}))
    fn = make_fn(cfg["fn"])
    stages = list(_iter_stages(cfg, _num(cfg, "p", phi.p_phi)))
    if any(isinstance(stage, CantorBlocks) for _, stage in stages):
        raise InvalidConfigError(
            "isometry compares every stage on one path, but partition kind"
            f" {cfg['partition']['kind']!r} builds a new path per stage"
        )
    path = stages[-1][1][0]
    alpha = _num(cfg, "holder_alpha", None)
    if alpha is None:
        alpha = holder_exponent(path)
    report = isometry_check(phi, fn, path, [part for _, (_, part) in stages], alpha)
    rows = [
        [label, report.lhs[i], report.rhs[i], abs(report.ratios[i] - 1.0)]
        for i, (label, _) in enumerate(stages)
    ]
    return ["level", "lhs", "rhs", "rel_error"], rows, report.final_gap


def _run_cantor_sweep(cfg: dict):
    from .experiments import cantor_sweep

    stages = cantor_sweep(_num(cfg, "p"), _nums(cfg, "ns", int), cfg.get("rounding", "floor"))
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
    rows = [[getattr(s, name) for name in header] for s in stages]
    # np.max keeps a NaN residual, so it reads "not-converged"
    residuals = np.abs([s.identity_residual for s in stages])
    return header, rows, float(np.max(residuals)) if stages else None


def _run_bump_decomposition(cfg: dict):
    from .experiments import bump_decomposition

    p = _num(cfg, "p")
    reports = [bump_decomposition(p, n) for n in _nums(cfg, "ns", int)]
    header = ["n", "n_increments", "compensated", "kernel_from_atoms", "kernel_from_limit", "mass"]
    rows = [[getattr(rep, name) for name in header] for rep in reports]
    gap = abs(reports[-1].kernel_from_atoms - reports[-1].kernel_from_limit) if reports else None
    return header, rows, gap


# command -> (runner, allowed top-level keys, required top-level keys)
_RUNNERS = {
    "generate-path": (_run_generate_path, {"path", "grid"}, ("path",)),
    "variation": (_run_variation, {"path", "partition", "p", "phi"}, ("partition", "p")),
    "ito-check": (_run_ito_check, {"path", "partition", "p", "fn"}, ("partition", "p")),
    "frac-deriv": (
        _run_frac_deriv,
        {"fn", "op", "p", "alpha", "a", "xs", "side", "reference"},
        ("op", "fn", "xs"),
    ),
    "remainder": (
        _run_remainder,
        {"fn", "p", "pairs", "thetas", "atoms", "method"},
        ("fn", "p"),
    ),
    "isometry": (
        _run_isometry,
        {"path", "partition", "p", "fn", "phi", "holder_alpha"},
        ("partition", "fn"),
    ),
    "cantor-sweep": (_run_cantor_sweep, {"p", "ns", "rounding"}, ("p",)),
    "bump-decomposition": (_run_bump_decomposition, {"p", "ns"}, ("p",)),
}


# --------------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------------- #


def _execute(command: str | None, cfg_path: Path, out_dir: Path) -> tuple[int, dict]:
    """Run one config as ``command``, or as the command it declares when that is
    None; returns (exit_code, manifest_fragment)."""
    cfg, raw = _load_config(cfg_path)
    declared = cfg.get("command")
    if command is None:
        command = choice(f"{cfg_path}: 'command'", declared, _RUNNERS, error=InvalidConfigError)
    elif declared is not None and declared != command:
        raise InvalidConfigError(
            f"{cfg_path}: config declares command {declared!r}, invoked as {command!r}"
        )
    runner, allowed, required = _RUNNERS[command]
    _check_keys(cfg, allowed, raw, cfg_path)
    try:
        expect, tol = _expectation(cfg)
        stem = cfg.get("label")
        if stem is not None and not (isinstance(stem, str) and _LABEL.fullmatch(stem)):
            rule = "1 to 100 letters, digits, '.', '_' or '-', not starting with '.'"
            raise InvalidConfigError(f"'label' must be {rule}, got {stem!r}")
        stem = stem or cfg_path.stem
        _require(cfg, required, command)
        started = time.perf_counter()
        header, rows, gap = runner(cfg)
        wall = time.perf_counter() - started
    except FracpathError as exc:
        raise type(exc)(f"{cfg_path}: {exc}") from None
    if gap is None or tol is None:
        verdict = "unchecked"
    else:
        verdict = "converged" if gap <= tol else "not-converged"
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    _write_csv(csv_path, header, rows)
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


def _run_one_fixture(fixture: Path, out_dir: Path) -> tuple[str, int, dict | str]:
    try:
        return fixture.name, *_execute(None, fixture, out_dir)
    except FracpathError as exc:
        return fixture.name, 1, str(exc)


def _reproduce_all(fixtures_dir: Path, out_dir: Path, jobs: int) -> int:
    import concurrent.futures

    fixtures = sorted(fixtures_dir.glob("*.json"))
    if not fixtures:
        print(f"error: no fixture configs in {fixtures_dir}", file=sys.stderr)
        return 1
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_run_one_fixture, fixtures, [out_dir] * len(fixtures)))
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
