"""One workload in a fresh interpreter; started by run.py, not by hand.

Times its own ``import fracpath`` from the spawn time the parent passes in,
then runs passes of the workload until the next one would overrun the time
budget (at least one pass; in a traced run at least one untraced and one
traced pass, alternating). Steps of a pass are timed between host-speed
probes (hostspeed.py); untraced passes are also probed inside long steps.
Prints one JSON report as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    args = ap.parse_args(argv)

    import fracpath.cli  # noqa: F401  (the import every CLI call pays)

    import_s = (time.monotonic_ns() - args.spawn_ns) / 1e9

    import tracer as tracing
    import workloads
    from hostspeed import Calibrated

    def run_steps(steps, tick: bool) -> Calibrated:
        cal = Calibrated()
        with cal.ticking() if tick else contextlib.nullcontext():
            for _ in steps:
                cal.mark()
            cal.mark()
        return cal

    inputs, run_pass = workloads.make(args.workload, args.seed, args.scale, args.root)
    checks = workloads.Checks()
    ctx = workloads.Context(checks=checks, work=args.work)
    tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
    passes: list[dict] = []
    top_level: list[float] = []
    crashed = None
    budget_end = time.monotonic() + args.seconds

    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        ctx.tracer = tracer if traced else None
        started = time.monotonic()
        try:
            if traced:
                tracer.install()
                try:
                    with tracer.span("bench.pass") as root:
                        cal = run_steps(run_pass(inputs, ctx), tick=False)
                finally:
                    tracer.uninstall()
            else:
                cal = run_steps(run_pass(inputs, ctx), tick=True)
        except Exception:  # a crash counts as every check failed
            crashed = traceback.format_exc()
            print(crashed, file=sys.stderr)
            break
        if not passes:
            # ru_maxrss never goes down; read it after a fixed amount of work,
            # so the number of passes the budget allowed does not move it
            first_pass_rss = _peak_rss_mb()
        passes.append({
            "wall_s": cal.wall,
            "cpu_s": cal.cpu,
            "wall_scaled_s": cal.wall_scaled,
            "cpu_scaled_s": cal.cpu_scaled,
            "probe_median_s": statistics.median(cal.probes),
            "steps": len(cal.probes) - 1,
            "traced": traced,
        })
        if traced:
            covered = sum(s[4] - s[3] for s in tracer.spans if s[1] == root)
            top_level.append(covered / 1e9 / cal.wall)
        now = time.monotonic()
        if len(passes) >= (2 if args.trace else 1) and now + (now - started) > budget_end:
            break

    attempted = checks.attempted + (1 if crashed else 0)
    report = {
        "import_s": import_s,
        "passes": passes,
        "crashed": crashed is not None,
        "attempted": max(1, attempted),
        "failed": max(1, attempted) if crashed else len(checks.failures),
        "failures": checks.failures[:20] + ([crashed.splitlines()[-1]] if crashed else []),
        "peak_rss_mb": first_pass_rss if passes else _peak_rss_mb(),
        "peak_rss_mb_run": _peak_rss_mb(),
        "counters": {k: v / max(1, len(passes)) for k, v in ctx.counters.items()},
    }
    if args.trace:
        cli_spans = args.work / "cli-spans.jsonl"
        if cli_spans.exists():
            more, more_counters = tracing.load(cli_spans)
            tracer.spans += more
            for k, v in more_counters.items():
                tracer.counters[k] += v
        span_file = args.work / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(span_file)
        report["span_file"] = str(span_file)
        report["traced_passes"] = max(1, sum(p["traced"] for p in passes))
        report["layers"] = tracing.self_times(tracer.spans)
        report["trace_counters"] = dict(tracer.counters)
        report["top_level_share"] = statistics.median(top_level) if top_level else 0.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
