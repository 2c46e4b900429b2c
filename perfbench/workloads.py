"""The benchmark workloads: seeded inputs, one pass of calls into fracpath,
and the correctness checks whose failures make up the error rate.

A pass is a generator that yields between steps, so the runner can probe the
host's speed there (see hostspeed.py). Every pass looks functions up on their
modules at call time, so the tracer's wrappers (installed on those modules)
see the calls. The seed only shapes the generated inputs; the library never
sees it except as data.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fracpath.experiments as experiments
import fracpath.follmer as follmer
import fracpath.fracops as fracops
import fracpath.isometry as isometry
import fracpath.partitions as partitions
import fracpath.paths as paths
import fracpath.registry as registry
import fracpath.variation as variation

import hostspeed

EPS = float(np.finfo(float).eps)
HERE = Path(__file__).resolve().parent


class Checks:
    """Counts correctness checks; a failed one keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def rel(self, got: float, want: float, tol: float, what: str) -> None:
        err = abs(got - want) / abs(want) if want != 0.0 else abs(got)
        self.expect(err <= tol, f"{what}: rel error {err:.3e} > {tol:g}")

    def identity(self, residual: float, n: int, terms, what: str) -> None:
        """A finite-stage identity residual is at rounding level: within the
        worst-case summation error n * eps of its largest term."""
        limit = n * EPS * max(1.0, *(abs(t) for t in terms))
        self.expect(abs(residual) <= limit, f"{what}: identity residual {residual:.3e} > {limit:.3e}")

    def report(self, rep, what: str) -> None:
        """Identity check of a follmer.ItoReport."""
        terms = (rep.value_change, rep.compensated, rep.kernel_sum)
        self.identity(rep.identity_residual, rep.n_increments, terms, what)


@dataclass
class Context:
    """What a pass needs besides its inputs."""

    checks: Checks
    work: Path
    tracer: object = None
    counters: dict = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# cantor-deep
# --------------------------------------------------------------------------- #

CANTOR = {"full": {"ns": range(1, 21), "gap_n": 18}, "tiny": {"ns": range(1, 9), "gap_n": 15}}


def cantor_inputs(seed: int, scale: str) -> dict:
    rng = np.random.default_rng(seed)
    # the four profile points of the acceptance gate plus seeded query times
    ts = np.concatenate([[1 / 3, 0.5, 2 / 3, 1.0], rng.uniform(0.0, 1.0, 28)])
    return {"p": 2.5, "ts": ts, **CANTOR[scale]}


def cantor_pass(inp: dict, ctx: Context) -> Iterator[None]:
    p, chk = inp["p"], ctx.checks
    for n in inp["ns"]:
        (st,) = experiments.cantor_sweep(p, [n])
        want = st.n * float(st.k_n) ** (1.0 - p)
        chk.rel(st.total_variation, want, 1e-12, f"stage {st.n} total")
        formula = experiments.cantor_compensated_formula(p, st.n, st.k_n)
        chk.rel(st.compensated, formula, 1e-9, f"stage {st.n} compensated sum")
        terms = (st.compensated, st.kernel_sum)
        chk.identity(st.identity_residual, st.n_increments, terms, f"stage {st.n}")
        yield
    gap = experiments.cantor_function_gap(p, inp["gap_n"], inp["ts"], "nearest")
    chk.expect(gap < 0.05, f"stage-{inp['gap_n']} profile gap {gap:.4f} >= 0.05")


# --------------------------------------------------------------------------- #
# fbm-ladder
# --------------------------------------------------------------------------- #

FBM = {
    "full": {"n_fine": 2**20, "levels": range(10, 21), "n_grid": 2**16,
             "deltas": (3e-2, 1e-2, 5e-3), "n_moment": 2**16, "moment_seeds": 50,
             "n_iso": 2**14, "iso_levels": (8, 10, 12, 14)},
    "tiny": {"n_fine": 2**12, "levels": range(6, 13), "n_grid": 2**10,
             "deltas": (3e-2, 1e-2), "n_moment": 2**10, "moment_seeds": 4,
             "n_iso": 2**10, "iso_levels": (6, 8, 10)},
}


def fbm_inputs(seed: int, scale: str) -> dict:
    draws = np.random.SeedSequence(seed).generate_state(4, dtype=np.uint64)
    return {"seeds": [int(d) for d in draws], **FBM[scale]}


def fbm_pass(inp: dict, ctx: Context) -> Iterator[None]:
    chk = ctx.checks
    spec = paths.GaussianPathSpec
    fn = registry.sin_affine()
    fine = paths.fbm_path(spec(hurst=0.4, n=inp["n_fine"], seed=inp["seeds"][0]))
    yield
    for j in inp["levels"]:
        part = partitions.badic(1.0, j)
        chk.report(follmer.ito_check(fn, fine, part, 2.5), f"b-adic level {j}")
        total = variation.pth_variation_partial(fine, part, 2.5)
        chk.expect(math.isfinite(total) and total > 0.0, f"level {j} variation {total}")
        yield

    grid_path = paths.fbm_path(spec(hurst=0.4, n=inp["n_grid"], seed=inp["seeds"][1]))
    for mode, width in (("increment", 2.0), ("grid", 1.0)):
        for delta in inp["deltas"]:
            part = partitions.value_grid_partition(grid_path, delta, mode)
            chk.report(follmer.ito_check(fn, grid_path, part, 2.5), f"{mode} {delta}")
            o = partitions.osc(grid_path, part)
            chk.expect(o <= width * delta * (1.0 + 1e-9), f"{mode} {delta}: osc {o:.6g}")
            yield

    base = inp["seeds"][2] % 2**32
    for hurst in (0.4, 1.0 / 3.0):
        seeds = range(base, base + inp["moment_seeds"])
        rep = experiments.fbm_variation_experiment(hurst, inp["n_moment"], seeds)
        chk.expect(rep.relative_error <= 0.10, f"H={hurst:.3f}: moment rel {rep.relative_error:.3f}")
        yield

    smooth = paths.fbm_path(spec(hurst=0.8, n=inp["n_iso"], seed=inp["seeds"][3]))
    rep = isometry.isometry_check(
        isometry.PhiSpec(kind="power", p_phi=1.25),
        fn,
        smooth,
        [partitions.badic(1.0, j) for j in inp["iso_levels"]],
        0.79,
    )
    chk.expect(all(math.isfinite(r) for r in rep.ratios), f"isometry ratios {rep.ratios}")


# --------------------------------------------------------------------------- #
# kernel-quadrature
# --------------------------------------------------------------------------- #

KERNEL = {
    "full": {"angles": 256, "caputo": 100, "rl": 20, "local": 12, "bump_n": 14,
             "minkowski": 100},
    "tiny": {"angles": 16, "caputo": 6, "rl": 3, "local": 3, "bump_n": 8, "minkowski": 5},
}


KERNEL_SLICE = 32


def _off_integer(rng) -> float:
    p = float(rng.uniform(0.3, 2.7))
    while min(abs(p - round(p)), p - math.floor(p), math.ceil(p) - p) < 0.05:
        p = float(rng.uniform(0.3, 2.7))
    return p


def kernel_inputs(seed: int, scale: str) -> dict:
    size = KERNEL[scale]
    rng = np.random.default_rng(seed)
    caputo = []
    for i in range(size["caputo"]):
        p = _off_integer(rng)
        m = math.floor(p)
        q = float(rng.uniform(m + 1.2, m + 3.0))
        a = float(rng.uniform(-0.5, 0.5))
        x = a + float(rng.uniform(0.5, 1.5))
        k = a + float(rng.uniform(0.0, 0.6)) * (x - a)
        caputo.append((p, q, a, k, x, "plus" if i % 2 == 0 else "abs"))
    rl = [
        (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.5, 3.0)), a, a + float(rng.uniform(0.5, 1.5)))
        for a in rng.uniform(-0.5, 0.5, size["rl"])
    ]
    local = [_off_integer(rng) for _ in range(size["local"])]
    minkowski = []
    for _ in range(size["minkowski"]):
        n = int(rng.integers(2, 12))
        minkowski.append((rng.uniform(0.0, 0.05, n), rng.uniform(0.0, 0.05, n)))
    count = size["angles"]
    thetas = (np.arange(count) + 0.5) * (2.0 * np.pi / count)
    return {"thetas": thetas, "caputo": caputo, "rl": rl, "local": local,
            "bump_n": size["bump_n"], "minkowski": minkowski}


def kernel_pass(inp: dict, ctx: Context) -> Iterator[None]:
    chk = ctx.checks
    fns = (
        (registry.abs_power(2.25), 2.25),
        (registry.abs_power(2.5), 2.5),
        (registry.plus_power(2.5), 2.5),
        (registry.sin_affine(), 2.5),
    )
    for fn, p in fns:
        g_tay = follmer.kernel_profile(fn, p, inp["thetas"], method="taylor")
        # the scalar integral form in slices of the grid, one step each
        for lo in range(0, g_tay.size, KERNEL_SLICE):
            part = slice(lo, lo + KERNEL_SLICE)
            g_int = follmer.kernel_profile(fn, p, inp["thetas"][part], method="integral")
            gap = float(np.max(np.abs(g_int - g_tay[part])))
            chk.expect(gap <= 1e-7, f"{fn.name}: |g_integral - g_taylor| {gap:.3e}")
            yield

    for p, q, a, k, x, kind in inp["caputo"]:
        order = fracops.FracOrder(p)
        fn = registry.plus_power(q, k) if kind == "plus" else registry.abs_power(q, k)
        closed = fracops.caputo_power(q, order, a, k, x, kind=kind)
        got = fracops.caputo(fn, order, a, x)
        err = abs(got - closed) / max(1e-9, abs(closed))
        chk.expect(err <= 1e-6, f"caputo {kind} p={p:.3f} q={q:.3f}: rel {err:.2e}")
    yield

    for alpha, q, a, x in inp["rl"]:
        got = fracops.rl_integral(registry.plus_power(q, a), alpha, a, x)
        want = math.gamma(q + 1.0) / math.gamma(q + alpha + 1.0) * (x - a) ** (q + alpha)
        chk.rel(got, want, 1e-6, f"rl alpha={alpha:.3f} q={q:.3f}")
    yield

    for p in inp["local"]:
        got = fracops.local_frac_derivative(registry.abs_power(p).fn, p, 0.0)
        err = abs(got - math.gamma(p + 1.0))
        chk.expect(err <= 1e-4, f"local derivative p={p:.3f}: off by {err:.2e}")
    yield

    pure = fracops.frac_taylor_check(registry.abs_power(2.5), fracops.FracOrder(2.5), 0.0)
    chk.expect(pure.pure_power and pure.max_resid <= 1e-12, f"pure power resid {pure.max_resid}")

    p = 2.25
    rep = experiments.bump_decomposition(p, inp["bump_n"])
    c = (2.0 ** (p - 1.0) - 1.0) / (2.0**p - 1.0)
    ks = np.arange(rep.atom_weights_limit.size)
    lv = np.ceil(np.log2(ks + 1.0))
    lv[0] = 0.0
    table_gap = float(np.max(np.abs(rep.atom_weights_limit - c * 2.0 ** (-lv * p))))
    identity_gap = abs(rep.compensated + rep.kernel_from_limit)
    chk.expect(rep.compensated < experiments.bump_limit_value(p) < 0.0,
               f"bump compensated {rep.compensated:.6f} not below the limit level")
    chk.expect(identity_gap < 2e-2, f"bump limit-atom identity gap {identity_gap:.2e}")
    chk.expect(table_gap <= 1e-12, f"bump atom table gap {table_gap:.1e}")
    yield

    gauge = isometry.PhiSpec(kind="log-modulated", p_phi=1.0, log_power=0.5)
    for a, b in inp["minkowski"]:
        rep = isometry.generalized_minkowski_check(gauge, a, b)
        chk.expect(rep.ok, f"minkowski lhs {rep.lhs!r} > rhs {rep.rhs!r}")


# --------------------------------------------------------------------------- #
# cli-cold
# --------------------------------------------------------------------------- #

CLI_TINY = ("frac-deriv-local.json", "generate-cantor-path.json", "remainder-profile.json")


def cli_inputs(seed: int, scale: str, fixtures: Path) -> dict:
    names = sorted(f.name for f in fixtures.glob("*.json"))
    if scale == "tiny":
        names = [n for n in names if n in CLI_TINY]
    random.Random(seed).shuffle(names)
    return {"fixtures": fixtures, "order": names}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(args: list[str], ctx: Context) -> int:
    """One fresh CLI process; traced runs go through cli_trace.py, which
    records its spans under a span of this process."""
    env = dict(os.environ)
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "fracpath.cli", *args]
        with hostspeed.no_ticks():  # a probe now would share the CPU with the CLI
            return subprocess.run(cmd, cwd=ctx.work, env=env, stdout=subprocess.DEVNULL).returncode
    with ctx.tracer.span("bench.cli_process") as sid:
        env["PERFBENCH_PARENT_SPAN"] = str(sid)
        env["PERFBENCH_SPAN_FILE"] = str(ctx.work / "cli-spans.jsonl")
        env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
        cmd = [sys.executable, str(HERE / "cli_trace.py"), *args]
        return subprocess.run(cmd, cwd=ctx.work, env=env, stdout=subprocess.DEVNULL).returncode


def cli_pass(inp: dict, ctx: Context) -> Iterator[None]:
    chk = ctx.checks
    fixtures = ctx.work / "fixtures"
    single, together = ctx.work / "single", ctx.work / "all"
    for d in (fixtures, single, together):
        shutil.rmtree(d, ignore_errors=True)
    fixtures.mkdir(parents=True)
    for name in inp["order"]:
        shutil.copyfile(inp["fixtures"] / name, fixtures / name)

    for name in inp["order"]:
        command = json.loads((fixtures / name).read_text())["command"]
        code = _cli([command, "--config", str(fixtures / name), "--out-dir", str(single)], ctx)
        chk.expect(code == 0, f"{command} {name}: exit {code}")
        yield
    code = _cli(["reproduce-all", "--fixtures", str(fixtures), "--out-dir", str(together),
                 "--jobs", "1"], ctx)
    chk.expect(code == 0, f"reproduce-all: exit {code}")
    yield

    for name in inp["order"]:
        stem = json.loads((fixtures / name).read_text()).get("label") or Path(name).stem
        for out in (single, together):
            manifest = out / f"{stem}.manifest.json"
            if not manifest.exists():
                chk.expect(False, f"{manifest.relative_to(ctx.work)} missing")
                continue
            for csv, digest in json.loads(manifest.read_text())["outputs"].items():
                ok = (out / csv).exists() and _sha256(out / csv) == digest
                chk.expect(ok, f"{out.name}/{csv}: hash differs from its manifest")
        a, b = single / f"{stem}.csv", together / f"{stem}.csv"
        same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        chk.expect(same, f"{stem}.csv differs between the single run and reproduce-all")
    written = sum(f.stat().st_size for d in (single, together) for f in d.rglob("*") if f.is_file())
    ctx.counters["cli.output_bytes"] = ctx.counters.get("cli.output_bytes", 0) + written


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #


def make(name: str, seed: int, scale: str, root: Path):
    """(inputs, pass generator function) of a workload."""
    if name == "cantor-deep":
        return cantor_inputs(seed, scale), cantor_pass
    if name == "fbm-ladder":
        return fbm_inputs(seed, scale), fbm_pass
    if name == "kernel-quadrature":
        return kernel_inputs(seed, scale), kernel_pass
    if name == "cli-cold":
        return cli_inputs(seed, scale, root / "fixtures"), cli_pass
    raise ValueError(f"unknown workload {name!r}")
