"""Shared pieces of the benchmark: the run record, answer accounting,
quantiles, machine facts and the span arithmetic of the traced run.

Nothing here imports ``repro`` at module level, so ``run.py`` can report
a missing source tree before any import of the program fails.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

clock = time.perf_counter


@dataclass(frozen=True)
class Metric:
    """One named measurement with its unit and sample count."""

    name: str
    value: float
    unit: str
    n: int


@dataclass
class Run:
    """Everything one workload run records: metrics, answers, facts.

    ``attempted`` counts operations; ``failed`` counts operations that
    failed, expired or were rejected; ``wrong`` counts answers that a
    check refuted.  ``gate`` holds the contract's end-to-end metrics,
    ``layers`` the per-layer metrics of the traced run, ``named`` every
    workload-specific metric the report prints.
    """

    workload: str
    seed: int
    seconds: float
    trace: bool
    toy: bool = False
    #: Corrupt one answer before checking it (harness self-test only).
    inject_wrong: bool = False
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    named: dict[str, Metric] = field(default_factory=dict)
    gate: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    facts: dict[str, Any] = field(default_factory=dict)
    layer_table: dict[str, float] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, n: int) -> Metric:
        m = Metric(name, float(value), unit, int(n))
        self.named[name] = m
        return m

    def gated(self, name: str, source: Metric) -> None:
        """Expose a workload metric under a contract end-to-end name."""
        self.gate[name] = Metric(name, source.value, source.unit, source.n)

    def layer(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.layers[name] = Metric(name, float(value), unit, int(n))

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(f"failed: {what}")

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.wrong += 1
            self.problems.append(f"wrong: {what}")
        return ok

    def corrupt(self, value: float) -> float:
        """Return ``value``, or a wrong one the first time when injecting."""
        if self.inject_wrong:
            self.inject_wrong = False
            return value + 1.0
        return value

    @property
    def error_share(self) -> float:
        return (self.failed + self.wrong) / max(1, self.attempted)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile (0..1), interpolated between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# machine facts
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def walk(spans: Iterable[Any]) -> Iterable[Any]:
    for span in spans:
        yield span
        yield from walk(span.children)


def self_times(root: Any) -> dict[str, float]:
    """Self time per span name under ``root`` (root included).

    A span's self time is its duration minus its children's durations,
    so the values sum to the root's duration.  Durations, not intervals:
    under tracing, ``parallel_map`` re-attaches each task's spans with
    their begin moved to the end of the task, so intervals no longer
    nest, while durations stay exact (the benchmark's traced code runs
    its children one after another).
    """
    totals: dict[str, float] = {}
    for span in walk([root]):
        own = span.duration - sum(child.duration for child in span.children)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def durations(roots: Iterable[Any], name: str) -> list[float]:
    """Durations of every span called ``name``, in start order."""
    found = [s for s in walk(roots) if s.name == name]
    return [s.duration for s in sorted(found, key=lambda s: s.begin)]


def layer_table(root: Any, layer_of: dict[str, str]) -> dict[str, float]:
    """Self time per layer under ``root``; unmapped spans are ``uncovered``.

    ``uncovered`` is the traced wall time that no layer span accounts
    for: the benchmark's own loop and the self time of spans that only
    wrap other layers.
    """
    table: dict[str, float] = {}
    for name, seconds in self_times(root).items():
        layer = layer_of.get(name, "uncovered")
        table[layer] = table.get(layer, 0.0) + seconds
    table.setdefault("uncovered", 0.0)
    return table


#: The contract's per-layer metrics, emitted by every workload's traced
#: run.  Times are present on every workload; counts and ratios of a
#: layer a workload does not use read 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("casestudy.generate_s", "s"),
    ("optimize.formulate_s", "s"),
    ("solver.compile_s", "s"),
    ("solver.highs_s", "s"),
    ("metrics.utility_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("solver.session_share", "ratio"),
    ("solver.vars", "count"),
    ("solver.rows", "count"),
    ("solver.nnz", "count"),
    ("solver.csr_bytes", "bytes"),
    ("solver.solves", "count"),
    ("solver.session.solves", "count"),
    ("optimize.family.builds", "count"),
    ("optimize.family.reuses", "count"),
    ("service.queue_share", "ratio"),
    ("service.batch_size", "count"),
    ("service.session_hit_ratio", "ratio"),
    ("service.result_hit_ratio", "ratio"),
    ("service.dedup_share", "ratio"),
    ("service.rejections", "count"),
    ("service.retries", "count"),
)

#: Span name -> layer, for the self-time table.  Spans missing here
#: only wrap other layers (the benchmark's own spans, sweep and problem
#: wrappers) and count as ``uncovered``.
LAYER_OF = {
    "casestudy.generate": "casestudy",
    "bench.formulate": "optimize.formulation",
    "optimize.formulate": "optimize.formulation",
    "solver.compile": "solver.model",
    "solver.scipy_milp": "solver.scipy_backend",
    "solver.session.solve": "solver.session",
    "bench.utility": "metrics",
}


def utility_seconds(model: Any, deployments: Iterable[Any], weights: Any) -> float:
    """Time ``metrics.utility`` of each deployment, from outside.

    ``solve()`` evaluates the utility of its answer after its own span
    closes, so no span covers it; re-timing the same call on every
    answer gives the metrics layer's share of the traced wall.
    """
    from repro.metrics.utility import utility

    start = clock()
    for deployment in deployments:
        utility(model, deployment.monitor_ids, weights)
    return clock() - start


def fill_layers(run: Run, values: dict[str, float]) -> None:
    """Emit every per-layer metric, in contract order."""
    for name, unit in PER_LAYER:
        if unit == "s" and not values.get(name):
            raise RuntimeError(f"traced run measured no time for {name}")
        run.layer(name, values.get(name, 0.0), unit)


def form_counts(form: Any) -> dict[str, float]:
    """Size of one compiled standard form, as per-layer counts."""
    return {
        "solver.vars": form.num_variables,
        "solver.rows": len(form.b_ub) + len(form.b_eq),
        "solver.nnz": form.A_ub.nnz + form.A_eq.nnz,
        "solver.csr_bytes": form.matrix_nbytes,
    }


def counters(capture: Any) -> dict[str, float]:
    snap = capture.registry.snapshot().get("counters", {})
    return {
        "solver.solves": snap.get("solver.solves", 0.0),
        "solver.session.solves": snap.get("solver.session.solves", 0.0),
        "optimize.family.builds": snap.get("optimize.family.builds", 0.0),
        "optimize.family.reuses": snap.get("optimize.family.reuses", 0.0),
    }


def write_spans(run: Run, capture: Any) -> Path:
    from repro import obs

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{run.workload}-seed{run.seed}.spans.json"
    return obs.write_trace(path, capture.tracer, capture.registry)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def report_lines(run: Run) -> list[str]:
    """Human-readable lines: every metric with unit and sample count."""
    lines = [
        f"# workload={run.workload} seed={run.seed} seconds={run.seconds:g} "
        f"trace={int(run.trace)}"
    ]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy"):
        if key in run.facts:
            lines.append(f"# {key}: {run.facts[key]}")
    for key, value in run.facts.items():
        if key.startswith("service.") and key != "service.jobs":
            lines.append(f"# {key}: {value}")
    for m in run.named.values():
        lines.append(f"{m.name:<34} {m.value:>14.6g} {m.unit:<6} n={m.n}")
    lines.append(
        f"{'error_share':<34} {run.error_share:>14.6g} {'ratio':<6} n={run.attempted}"
    )
    if run.layer_table:
        lines.append("# traced self time by layer (s)")
        for layer, seconds in sorted(run.layer_table.items(), key=lambda kv: -kv[1]):
            lines.append(f"#   {layer:<28} {seconds:>10.4f}")
    for problem in run.problems[:20]:
        lines.append(f"! {problem}")
    return lines


def record(run: Run) -> dict[str, Any]:
    """The run record written next to the span file."""
    as_dict = lambda ms: {  # noqa: E731
        m.name: {"value": m.value, "unit": m.unit, "n": m.n} for m in ms.values()
    }
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "facts": run.facts,
        "metrics": as_dict(run.named),
        "end_to_end": as_dict(run.gate),
        "per_layer": as_dict(run.layers),
        "layer_table_s": run.layer_table,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "error_share": run.error_share,
        "problems": run.problems,
    }


def result_line(run: Run) -> str:
    """The contract's last line: one JSON object."""
    chosen = run.layers if run.trace else run.gate
    return json.dumps(
        {
            "correct": run.failed == 0 and run.wrong == 0,
            "attempted": max(1, run.attempted),
            "failed": run.failed + run.wrong,
            "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in chosen.values()},
        }
    )


def write_record(run: Run) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    path.write_text(json.dumps(record(run), indent=2, sort_keys=True) + "\n")
    return path
