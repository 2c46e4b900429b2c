"""``python -m fracpath.cli`` with the benchmark's tracer installed.

Used for the traced passes of the cli-cold workload. Records a
``bench.cli_startup`` span from the parent's spawn time to the end of the
import, then the spans of ``cli.main`` and everything below it, all under
the parent's ``bench.cli_process`` span, and appends them to the span file
named in the environment.
"""

import os
import sys
import time

import fracpath.cli

import tracer as tracing


def main() -> int:
    imported = time.monotonic_ns()
    tracer = tracing.Tracer(run_id=f"cli-{os.getpid()}", root=int(os.environ["PERFBENCH_PARENT_SPAN"]))
    tracer.record("bench.cli_startup", int(os.environ["PERFBENCH_SPAWN_NS"]), imported)
    tracer.install()
    try:
        return fracpath.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_SPAN_FILE"])


if __name__ == "__main__":
    sys.exit(main())
