"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Workloads: ``catalog`` (cold solves over a fixed ladder of model
sizes), ``service`` (open- and closed-loop traffic into the solve
service) and ``sweep`` (warm budget sweeps on one family and session;
runnable, but not in ``BENCHMARK.json``).  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it also repeats the timed work with spans kept, and
reports the per-layer split.  Every answer is checked.

Every metric is printed with its unit and sample count; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the machine facts goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "sweep", "service")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selftest", action="store_true", help="run the toy-size harness self-test"
    )
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required (or pass --selftest)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def execute(workload: str, seed: int, seconds: float, trace: bool, **options):
    """Run one workload in this process and return its :class:`Run`."""
    import harness
    import wl_catalog
    import wl_service
    import wl_sweep

    modules = {"catalog": wl_catalog, "sweep": wl_sweep, "service": wl_service}
    run = harness.Run(workload=workload, seed=seed, seconds=seconds, trace=trace, **options)
    run.facts.update(harness.machine_facts())
    modules[workload].run(run)
    return run


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.selftest:
        import selftest

        return selftest.main()

    import harness

    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in harness.report_lines(run):
        print(line)
    print(f"# record: {harness.write_record(run).relative_to(ROOT)}")
    print(harness.result_line(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
