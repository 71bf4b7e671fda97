"""Toy-size self-test of the harness; runs in seconds.

Runs every workload on toy models, untraced and traced, and asserts that
each emits every metric ``BENCHMARK.json`` names with a finite value and
answers every check.  Then it injects one wrong answer into each
workload and asserts that it lands in ``error_share`` and makes the run
incorrect.

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import json
import math

from harness import BENCH_DIR, result_line

import run as entry

SECONDS = 1.0


def _names(kind: str) -> set[str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def _check_line(line: str, expected: set[str], correct: bool) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert set(result["metrics"]) == expected, set(result["metrics"]) ^ expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), (name, metric)
    assert result["correct"] is correct, result
    assert (result["failed"] == 0) is correct, result


def main() -> int:
    end_to_end, per_layer = _names("end_to_end"), _names("per_layer")
    for workload in entry.WORKLOADS:
        for trace in (False, True):
            run = entry.execute(workload, 0, SECONDS, trace, toy=True)
            assert run.error_share == 0.0, (workload, run.problems)
            _check_line(result_line(run), per_layer if trace else end_to_end, True)
            print(f"ok   {workload} trace={int(trace)}: {len(run.named)} metrics")
        run = entry.execute(workload, 0, SECONDS, False, toy=True, inject_wrong=True)
        assert run.wrong == 1 and run.error_share > 0.0, (workload, run.problems)
        _check_line(result_line(run), end_to_end, False)
        print(f"ok   {workload} injected wrong answer: error_share={run.error_share:.3f}")
    print("selftest passed")
    return 0
