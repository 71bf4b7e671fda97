"""Tests for the ``--trace`` capture flag and the ``stats`` command."""

import json

import pytest

from repro.cli import main
from repro.core import save_model
from repro.obs import load_trace
from tests.conftest import plateau_fraction


@pytest.fixture()
def toy_model_file(toy_model, tmp_path):
    path = tmp_path / "toy.json"
    save_model(toy_model, path)
    return path


@pytest.fixture()
def sweep_trace(toy_model, toy_model_file, tmp_path, capsys):
    """A trace file captured from a parallel budget sweep.

    Every fraction lies below the utility-ceiling plateau (the toy
    model's starts at the full cost), so each point runs a real solve.
    """
    top = 0.9 * plateau_fraction(toy_model)
    path = tmp_path / "trace.json"
    code = main(
        [
            "sweep",
            "--model", str(toy_model_file),
            "--fractions", f"0.3,0.6,{top}",
            "--workers", "2",
            "--trace", str(path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Utility vs. budget" in captured.out
    assert f"trace written to {path}" in captured.err
    return path


class TestTraceCapture:
    def test_sweep_trace_is_a_loadable_chrome_trace(self, sweep_trace):
        payload = load_trace(sweep_trace)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        names = {event["name"] for event in events}
        # The acceptance criterion: solver, engine, cache, and
        # per-worker spans all present in one file.
        assert {"optimize.budget_sweep", "parallel.map", "solver.scipy_milp",
                "engine.build", "engine.evaluate", "cache.lookup"} <= names
        tids = {event["tid"] for event in events}
        assert {"task-0", "task-1", "task-2"} <= tids
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0

    def test_sweep_trace_carries_the_metrics_registry(self, sweep_trace):
        metrics = load_trace(sweep_trace)["metrics"]
        assert metrics["counters"]["solver.solves"] >= 3.0
        assert metrics["counters"]["parallel.tasks"] == 3.0
        assert metrics["histograms"]["solver.solve_seconds"]["count"] >= 3

    def test_full_budget_point_is_certified_without_a_solve(
        self, toy_model_file, tmp_path, capsys
    ):
        path = tmp_path / "full.json"
        assert main(
            [
                "sweep",
                "--model", str(toy_model_file),
                "--fractions", "1.0",
                "--trace", str(path),
            ]
        ) == 0
        payload = load_trace(path)
        counters = payload["metrics"]["counters"]
        assert counters["optimize.ceiling.certified"] == 1.0
        assert "solver.solves" not in counters
        spans = [e for e in payload["traceEvents"] if e["name"] == "optimize.ceiling"]
        assert [e["args"]["certified"] for e in spans] == [True]

    def test_untraced_run_writes_nothing(self, toy_model_file, tmp_path, capsys):
        assert main(
            ["sweep", "--model", str(toy_model_file), "--fractions", "1.0"]
        ) == 0
        assert "trace written" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.glob("*.json")] == ["toy.json"]

    def test_optimize_supports_trace_too(self, toy_model_file, tmp_path, capsys):
        path = tmp_path / "opt.json"
        assert main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget-fraction", "0.5",
                "--trace", str(path),
            ]
        ) == 0
        names = {event["name"] for event in load_trace(path)["traceEvents"]}
        assert "optimize.max_utility" in names
        assert "optimize.formulate" in names


class TestStats:
    def test_renders_counters_hit_rate_and_histograms(self, sweep_trace, capsys):
        assert main(["stats", str(sweep_trace)]) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "Counters" in out
        assert "cache hit rate:" in out
        assert "solver.solve_seconds" in out
        assert "engine.build_seconds" in out

    def test_stats_does_not_modify_the_trace_file(self, sweep_trace, capsys):
        """Regression: the stats positional must not trigger --trace capture."""
        before = sweep_trace.read_text()
        assert main(["stats", str(sweep_trace)]) == 0
        captured = capsys.readouterr()
        assert sweep_trace.read_text() == before
        assert "trace written" not in captured.err

    def test_accepts_a_bare_registry_snapshot(self, tmp_path, capsys):
        snapshot = {
            "counters": {"cache.hits": 3.0, "cache.misses": 1.0},
            "gauges": {},
            "histograms": {},
        }
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snapshot))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cache hit rate: 75.0% (3 hits / 4 lookups, 0 evictions)" in out

    def test_solver_runs_and_certified_answers_are_shown_apart(self, tmp_path, capsys):
        snapshot = {
            "counters": {"solver.solves": 4.0, "optimize.ceiling.certified": 9.0},
            "gauges": {},
            "histograms": {},
        }
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snapshot))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert (
            "answers: 4 solver run(s), 9 certified at the utility ceiling without a solver"
            in out
        )

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err
