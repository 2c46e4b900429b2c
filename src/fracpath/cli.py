"""Command line front end.

Subcommands consume a JSON config, write CSV outputs plus a manifest into an
output directory, and exit with 0 (ran, expectation met or none stated),
1 (bad config or invalid inputs) or 2 (the config said expect "converged"
but the run's verdict was "not-converged").

Every subcommand is one runner ``(cfg) -> (header, rows, gap)`` plus the
top-level keys it allows, with their defaults, and requires, declared in
``_RUNNERS``. A runner imports the library modules it calls in its own body,
so a process loads only what its subcommand runs. Every config object, the
top level included, is read by ``_fill``, which refuses an unknown key or a null
(a key left out takes its default) and fills in defaults, except the registry objects
(``path``, ``fn``, ``phi``): their constructors refuse a null, by its line (``_made``).
``_require`` refuses a missing or empty key ("<owner> needs '<key>'") and, where the
run decides what it reads, a key it does not read ("<owner> reads no '<key>'").
``_execute`` parses ``expect``, ``tol`` and ``label`` (a file name, never a path),
refuses ``tol`` and expect "converged" where ``_RUNNERS`` says no gap comes, and sets the
verdict: "converged" iff gap <= tol, "unchecked" when the runner reports no
gap or the config gives no tol, "not-converged" otherwise (a NaN gap
included). Every config number passes ``errors.real`` and every option
``errors.choice``. Every error a run raises names the config file.

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

_COMMON_KEYS = {"command": None, "label": None, "expect": "any", "tol": None}
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


def _locate(path: Path, raw: str, keys) -> str:
    """``path``, plus the line of the key at key path ``keys`` when ``raw`` holds it."""
    opened, key = [], None  # the key each open object or list sits at; the last token's key
    # JSON strings, with a colon when they are object keys, and brackets
    for token in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[][{}]', raw if keys else ""):
        key, last = json.loads(token[1]) if token[2] else None, key
        if key is not None and (*opened[1:], key) == keys:
            line = raw.count("\n", 0, token.start()) + 1
            return f"{path}:{line}"
        if token[0] in ("[", "{"):
            opened.append(last)
        elif token[0] in ("]", "}"):
            opened.pop()
    return str(path)


def _require(obj: dict, keys, owner: str, unread=(), at=()) -> None:
    """Refuses a missing or empty key of ``keys`` ("<owner> needs '<key>'") and a set key of
    ``unread`` ("<owner> reads no '<key>'"), by line if ``obj`` (at key path ``at``) holds it."""
    refused = [(k, "needs") for k in keys if obj.get(k) in (None, [])]
    for key, rule in refused + [(k, "reads no") for k in unread if obj.get(k) is not None]:
        err = InvalidConfigError(f"{owner} {rule} {key!r}")
        err.key = (*at, key) if key in obj else None
        raise err


def _fill(obj, name: str, defaults: dict, required: tuple = (), at=None) -> dict:
    """The config's ``name`` object, at key path ``at`` (default (name,)), with ``defaults``
    filled in (a None default fills nothing); refuses a non-object, an unknown key or a null
    (each by its line) and a missing or empty required key."""
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{name!r} must be an object, got {obj!r}")
    at = (name,) if at is None else at
    allowed = {*defaults, *required}
    for key in (k for k, v in obj.items() if k not in allowed or v is None):
        msg = f"unknown {name} key {key!r}; allowed: {', '.join(sorted(allowed))}"
        err = InvalidConfigError(f"{name} key {key!r} must not be null" if key in allowed else msg)
        err.key = (*at, key)
        raise err
    _require(obj, required, name, at=at)
    return {**{k: v for k, v in defaults.items() if v is not None}, **obj}


def _made(make, cfg: dict, key: str):
    """``make(cfg[key])``, a registry object. A constructor's refusal names the argument first
    ("seed must be an integer, got None"): one that names a null gets its key path."""
    obj = cfg[key]
    try:
        return make(obj)
    except FracpathError as exc:
        named = re.findall(r"\w+", str(exc).partition(" must ")[0])
        nulls = [k for k in named if isinstance(obj, dict) and k in obj and obj[k] is None]
        exc.key = (key, nulls[0]) if nulls else None
        raise


def _number(value, key: str, kind=float, **rules):
    """``value`` as a ``kind``, checked by ``errors.real`` under ``rules`` and named
    by its config ``key``; an int at a float key is cast, so a CSV prints a float."""
    num = real(f"{key!r}", value, integer=(kind is int) or None, error=InvalidConfigError, **rules)
    return num if kind is int else float(num)


def _num(obj: dict, key: str, kind=float, **rules):
    """``obj[key]`` as a number; None when absent."""
    value = obj.get(key)
    return None if value is None else _number(value, key, kind, **rules)


def _nums(obj: dict, key: str, kind=float) -> list:
    """``obj[key]`` as a list of numbers."""
    values = obj[key]
    if not isinstance(values, list):
        raise InvalidConfigError(f"{key!r} must be a list of numbers, got {values!r}")
    return [_number(v, key, kind) for v in values]


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


def _as_sampled(cfg: dict, level, keys=()) -> SampledPath:
    """The config's path; an analytic one sampled on the b-adic ``level()`` = (n, base),
    read only then. A sampled one reads no key at key path ``keys``, which sets that level."""
    from .registry import make_path

    obj = _made(make_path, cfg, "path")
    if isinstance(obj, AnalyticPath):
        return sample(obj, badic(obj.horizon, *level()).times)
    at, key = keys[:-1], keys[-1:]
    _require(cfg[at[0]] if at else cfg, (), f"path kind {cfg['path']['kind']!r}", key, at)
    return obj


def _iter_stages(cfg: dict, kinds=tuple(_PARTITIONS), cantor_only=()):
    """Yield (stage_label, stage) per stage of a partition of ``kinds``: a badic or value-grid
    stage is its (sampled_path, partition), a cantor-crossing stage the level rows of
    ``partitions.cantor_blocks`` (no 2**n grid), the only stages that read ``cantor_only``."""
    part = cfg["partition"]
    if not isinstance(part, dict):
        raise InvalidConfigError(f"'partition' must be an object, got {part!r}")
    _require(part, ("kind",), "partition", at=("partition",))
    kind = choice("partition 'kind'", part["kind"], kinds, error=InvalidConfigError)
    defaults, stages_key = _PARTITIONS[kind]
    part = _fill(part, "partition", {"kind": kind, **defaults}, (stages_key,))
    if kind == "cantor-crossing":
        _require(cfg, ("p",), f"partition kind {kind!r}", ("path",))
        for n in _nums(part, "ns", int):
            yield n, cantor_blocks(_num(cfg, "p"), n, part["rounding"])[1]
        return
    _require(cfg, ("path",), f"partition kind {kind!r}", cantor_only)
    if kind == "badic":
        levels, base = _nums(part, "levels", int), _number(part["base"], "base", int)
        sampled = _as_sampled(cfg, lambda: (max(levels), base))
        for lev in levels:
            yield lev, (sampled, badic(sampled.horizon, lev, base))
        return
    deltas = _nums(part, "deltas")
    samples_level = _number(part["samples_level"], "samples_level", int)
    sampled = _as_sampled(cfg, lambda: (samples_level, 2), ("partition", "samples_level"))
    for delta in deltas:
        yield delta, (sampled, value_grid_partition(sampled, delta, part["mode"]))


def _blocks(stage):
    """A stage as weighted rows of path values (``partitions.block_sum``)."""
    return stage if isinstance(stage, CantorBlocks) else [((1,), partition_values(*stage)[1][None])]


# --------------------------------------------------------------------------- #
# subcommand runners: each returns (header, rows, gap)
# --------------------------------------------------------------------------- #


def _run_generate_path(cfg: dict):
    def level():  # an analytic path's grid
        _require(cfg, ("grid",), f"path kind {cfg['path']['kind']!r}")
        grid = _fill(cfg["grid"], "grid", {"base": 2}, ("n",))
        return _num(grid, "n", kind=int), _number(grid["base"], "base", int)

    sampled = _as_sampled(cfg, level, ("grid",))
    rows = [[float(t), float(v)] for t, v in zip(sampled.times, sampled.values)]
    return ["t", "value"], rows, None


def _run_variation(cfg: dict):
    from .registry import make_phi
    from .variation import phi_sums

    phi = _made(make_phi, cfg, "phi") if "phi" in cfg else None
    _require(cfg, ("p",) if phi is None else (), "variation")  # a gauge reads p on Cantor stages
    p = _num(cfg, "p")

    def term(rows):  # the increments, then the phi-sum or pth_variation_partial's p-th power sum
        gauge = phi if phi is not None else real("p", p, lo=0)
        return np.full(len(rows), rows.shape[1] - 1), phi_sums(rows, gauge)

    rows = []
    for label, stage in _iter_stages(cfg, cantor_only=() if phi is None else ("p",)):
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
    fn = _made(make_fn, cfg, "fn") if "fn" in cfg else abs_power(p)
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
    for label, stage in _iter_stages(cfg):
        rep = ito_check_blocks(fn, _blocks(stage), p)
        rows.append([label] + [getattr(rep, name) for name in header[1:]])
    r = [abs(row[-1]) for row in rows]
    gap = r[-1] if len(r) < 3 or r[-1] <= r[-2] <= r[-3] else math.inf
    return header, rows, gap


# op -> (the optional keys it reads, with defaults, and the key it needs); another op's
# key is refused. A power-rule reference is the Caputo derivative's, not RL's or local's
_OPS = {
    "rl": ({"a": 0.0}, "alpha"),
    "caputo": ({"a": 0.0, "reference": None}, "p"),
    "local": ({"side": 1}, "alpha"),
}


def _run_frac_deriv(cfg: dict):
    from .fracops import FracOrder, caputo, local_frac_derivative, power_rule, rl_integral
    from .registry import make_fn

    op = choice("'op'", cfg["op"], _OPS, error=InvalidConfigError)
    defaults, needs = _OPS[op]
    others = [k for d, n in _OPS.values() for k in (*d, n) if k not in (*defaults, needs)]
    _require(cfg, (needs,), f"op {op!r}", others)
    cfg = {**defaults, **cfg}
    fn, xs, a = _made(make_fn, cfg, "fn"), _nums(cfg, "xs"), _num(cfg, "a")
    if op == "caputo":
        order = FracOrder(_num(cfg, "p"))
        values = [caputo(fn, order, a, x) for x in xs]
    elif op == "rl":
        alpha = _num(cfg, "alpha")
        values = [rl_integral(fn, alpha, a, x) for x in xs]
    else:
        alpha, side = _num(cfg, "alpha"), _num(cfg, "side", kind=int)
        values = [local_frac_derivative(fn.fn, alpha, x, side) for x in xs]
    rows = [[x, float(v)] for x, v in zip(xs, values)]
    if cfg.get("reference") is None:
        return ["x", "value"], rows, None
    ref_cfg = _fill(cfg["reference"], "reference", {"k": a}, ("kind", "q"))
    choice("reference 'kind'", ref_cfg["kind"], ("power-rule",), error=InvalidConfigError)
    q, k = _num(ref_cfg, "q"), _number(ref_cfg["k"], "k")
    rel_errs = []
    for row, val in zip(rows, values):
        ref = power_rule(q, order, k, row[0])
        rel_errs.append(abs(val - ref) / max(1e-300, abs(ref)))
        row += [float(ref), float(rel_errs[-1])]
    return ["x", "value", "reference", "rel_err"], rows, max(rel_errs)


def _run_remainder(cfg: dict):
    from .follmer import circle_points, remainder_kernel
    from .registry import make_fn

    fn = _made(make_fn, cfg, "fn")
    p = _num(cfg, "p")
    methods = ("taylor", "integral", "both")
    method = choice("'method'", cfg["method"], methods, error=InvalidConfigError)
    if "pairs" in cfg:
        _require(cfg, (), "remainder with 'pairs'", ("thetas",))
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
        raise InvalidConfigError("remainder needs 'pairs' or 'thetas'")
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

    phi = _made(make_phi, cfg, "phi")
    fn = _made(make_fn, cfg, "fn")
    # every stage on one path, so no cantor-crossing stages: each builds its own
    stages = list(_iter_stages(cfg, ("badic", "value-grid")))
    path = stages[-1][1][0]
    alpha = _num(cfg, "holder_alpha") if "holder_alpha" in cfg else holder_exponent(path)
    report = isometry_check(phi, fn, path, [part for _, (_, part) in stages], alpha)
    rows = [
        [label, report.lhs[i], report.rhs[i], abs(report.ratios[i] - 1.0)]
        for i, (label, _) in enumerate(stages)
    ]
    return ["level", "lhs", "rhs", "rel_error"], rows, report.final_gap


def _run_cantor_sweep(cfg: dict):
    from .experiments import cantor_sweep

    stages = cantor_sweep(_num(cfg, "p"), _nums(cfg, "ns", int), cfg["rounding"])
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
    return header, rows, float(np.max(residuals))


def _run_bump_decomposition(cfg: dict):
    from .experiments import bump_decomposition

    p = _num(cfg, "p")
    reports = [bump_decomposition(p, n) for n in _nums(cfg, "ns", int)]
    header = ["n", "n_increments", "compensated", "kernel_from_atoms", "kernel_from_limit", "mass"]
    rows = [[getattr(rep, name) for name in header] for rep in reports]
    return header, rows, abs(reports[-1].kernel_from_atoms - reports[-1].kernel_from_limit)


def _run_bump_atoms(cfg: dict):
    """Atom-weight table of the bump construction: finite-stage masses next
    to their closed-form limits, with the kernel of f(x) = |x|^p sampled on
    both ray families."""
    from .experiments import bump_decomposition

    rep = bump_decomposition(_num(cfg, "p"), _num(cfg, "n", kind=int))
    fields = ("up_angles", "down_angles", "atom_weights", "atom_weights_limit", "g_up", "g_down")
    columns = np.column_stack([getattr(rep, name) for name in fields])
    header = ["k", "angle_up", "angle_down", "weight_finite", "weight_limit", "g_up", "g_down"]
    rows = [[k, *cells] for k, cells in enumerate(columns.tolist())]
    return header, rows, abs(rep.kernel_from_atoms - rep.kernel_from_limit)


# command -> (runner, optional top-level keys with their defaults, required top-level keys,
# whether its run reports a gap: always, never, or as a predicate of the filled config says)
_RUNNERS = {
    "generate-path": (_run_generate_path, {"grid": None}, ("path",), False),
    "variation": (_run_variation, {"path": None, "phi": None, "p": None}, ("partition",), True),
    "ito-check": (_run_ito_check, {"path": None, "fn": None}, ("partition", "p"), True),
    "frac-deriv": (
        _run_frac_deriv,
        dict.fromkeys(k for defaults, needs in _OPS.values() for k in (*defaults, needs)),
        ("op", "fn", "xs"),
        lambda cfg: "reference" in cfg,
    ),
    "remainder": (
        _run_remainder,
        {"pairs": None, "thetas": None, "method": "taylor"},
        ("fn", "p"),
        lambda cfg: cfg["method"] == "both",
    ),
    "isometry": (
        _run_isometry,
        {"path": None, "phi": {}, "holder_alpha": None},
        ("partition", "fn"),
        True,
    ),
    "cantor-sweep": (_run_cantor_sweep, {"rounding": "floor"}, ("p", "ns"), True),
    "bump-decomposition": (_run_bump_decomposition, {}, ("p", "ns"), True),
    "bump-atoms": (_run_bump_atoms, {}, ("p", "n"), True),
}


# --------------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------------- #


def _execute(command: str | None, cfg_path: Path, out_dir: Path) -> tuple[int, dict]:
    """Run one config as ``command``, or as the command it declares when that is
    None; returns (exit_code, manifest_fragment)."""
    cfg, raw = _load_config(cfg_path)
    declared = cfg.get("command")
    if command is not None and declared is not None and declared != command:
        raise InvalidConfigError(
            f"{cfg_path}: config declares command {declared!r}, invoked as {command!r}"
        )
    try:
        if command is None:
            command = choice("'command'", declared, _RUNNERS, error=InvalidConfigError)
        runner, defaults, required, gapped = _RUNNERS[command]
        cfg = _fill(cfg, command, {**_COMMON_KEYS, **defaults}, required, at=())
        expect = choice("'expect'", cfg["expect"], ("any", "converged"), error=InvalidConfigError)
        gapped = gapped(cfg) if callable(gapped) else gapped
        unread = () if gapped else ("tol",) + (("expect",) if expect == "converged" else ())
        _require(cfg, (), command, unread)  # no gap to hold to a tol
        tol = _num(cfg, "tol", lo=0)
        _require(cfg, ("tol",) if expect == "converged" else (), "expect 'converged'")
        stem = cfg.get("label")
        if stem is not None and not (isinstance(stem, str) and _LABEL.fullmatch(stem)):
            rule = "1 to 100 letters, digits, '.', '_' or '-', not starting with '.'"
            raise InvalidConfigError(f"'label' must be {rule}, got {stem!r}")
        stem = stem or cfg_path.stem
        started = time.perf_counter()
        header, rows, gap = runner(cfg)
        wall = time.perf_counter() - started
    except FracpathError as exc:
        at = ("command",) if command is None else getattr(exc, "key", None)  # the command refused
        raise type(exc)(f"{_locate(cfg_path, raw, at)}: {exc}") from None
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
