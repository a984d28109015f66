"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coevo.cli import cli_main

from checks import semantic_errors
from replay import layer_metrics, replay_call
from run import Outcomes, check_call, upper_quartile
from spans import Span, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, make_calls

HERE = Path(__file__).resolve().parent


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestSelfTime:
    def test_nested_spans_from_the_context_manager(self):
        tracer = Tracer(clock=_clock(0.0, 1.0, 4.0, 5.0, 6.0, 10.0))
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert tracer.total("outer") == 10.0
        assert tracer.self_time("outer") == 10.0 - 3.0 - 1.0
        assert tracer.self_time("a") == 3.0
        assert tracer.roots_total() == 10.0
        assert [s.parent for s in tracer.spans] == [None, 0, 0]

    def test_overlapping_and_overhanging_children_count_once(self):
        tracer = Tracer()
        tracer.spans = [
            Span("parent", 0.0, 10.0, None, 0),
            Span("child", 1.0, 3.0, 0, 0),
            Span("child", 2.0, 5.0, 0, 0),
            Span("grandchild", 1.5, 2.5, 1, 0),
            Span("child", 9.0, 12.0, 0, 0),
        ]
        # children cover [1, 5] and [9, 10]; the grandchild is inside a child
        assert tracer.self_time("parent") == pytest.approx(10.0 - 4.0 - 1.0)
        assert tracer.self_time("child") == pytest.approx((2.0 - 1.0) + 3.0 + 3.0)

    def test_layer_metrics_arithmetic(self):
        replay, probes = Tracer(), Tracer()
        replay.spans = [
            Span("config.load", 0.0, 0.5, None, 0),
            Span("equilibria.sweep", 0.5, 8.5, None, 0),
            Span("equilibria.enumerate", 0.5, 1.5, 1, 0),
            Span("dynamics.make_schedule", 1.5, 2.0, 1, 0),
            Span("dynamics.run", 2.0, 8.0, 1, 0),
            Span("io.render", 8.5, 9.0, None, 0),
            Span("io.write", 9.0, 9.25, None, 0),
        ]
        replay.counts.update(
            {"dynamics.steps": 100, "dynamics.runs": 4, "dynamics.budget_steps": 25,
             "dynamics.fixed_point_runs": 3, "io.render_bytes": 1 << 20}
        )
        probes.spans = [
            Span("dynamics.step", 20.0, 23.0, None, 0),
            Span("dynamics.potential", 23.0, 24.0, None, 0),
        ]
        m = layer_metrics(replay, probes, cli_s=10.0)
        assert m["dynamics.run_self_s"] == pytest.approx(6.0 - 3.0 - 1.0)
        assert m["equilibria.sweep_self_s"] == pytest.approx(8.0 - 1.0 - 0.5 - 6.0)
        assert m["cli.self_s"] == pytest.approx(10.0 - 9.25)
        assert m["trace.overhead_share"] == pytest.approx(9.25 / 10.0 - 1.0)
        assert m["dynamics.budget_step_share"] == 0.25
        assert m["dynamics.fixed_point_share"] == 0.75
        assert m["io.render_mb"] == 1.0


def test_upper_quartile():
    assert upper_quartile([2.0]) == 2.0
    assert upper_quartile([4.0, 1.0, 3.0, 2.0, 5.0]) == 4.0
    assert upper_quartile([1.0, 2.0]) == 1.75


def _cli_and_replay(workload, seed, tmp_path, smoke):
    calls = make_calls(workload, seed, str(tmp_path), smoke=smoke)
    tracer = Tracer()
    runs = {}
    for call in calls:
        assert cli_main(call.argv) == 0
        replay_path = call.out_path + ".replay"
        runs[call.name] = replay_call(call, replay_path, tracer)
        assert Path(replay_path).read_bytes() == Path(call.out_path).read_bytes(), call.name
    return calls, runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_replay_reproduces_cli_bytes_smoke(workload, seed, tmp_path):
    calls, runs = _cli_and_replay(workload, seed, tmp_path, smoke=True)
    for call in calls:
        assert semantic_errors(call, runs[call.name], seed, smoke=True) == []


def test_sweep_replay_reproduces_cli_bytes_full_size(tmp_path):
    calls, runs = _cli_and_replay("sweep-sync", DEFAULT_SEED, tmp_path, smoke=False)
    (call,) = calls
    assert semantic_errors(call, runs[call.name], DEFAULT_SEED, smoke=False) == []
    assert len(runs[call.name]) == 240


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    def inputs(seed):
        calls = make_calls(workload, seed, str(tmp_path))
        return [(Path(c.config_path).read_bytes(), c.options) for c in calls]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_checks_catch_a_tampered_equilibrium(tmp_path):
    calls, runs = _cli_and_replay("enumerate-n18", DEFAULT_SEED, tmp_path, smoke=True)
    call = calls[0]
    doc = json.loads(Path(call.out_path).read_text())
    doc["equilibria"][0]["y"][0] = 0.5
    Path(call.out_path).write_text(json.dumps(doc))
    assert semantic_errors(call, runs[call.name], DEFAULT_SEED, smoke=True)


def test_checks_catch_a_sweep_that_lost_a_trial(tmp_path):
    calls, runs = _cli_and_replay("sweep-sync", DEFAULT_SEED, tmp_path, smoke=True)
    (call,) = calls
    doc = json.loads(Path(call.out_path).read_text())
    doc["cells"][0]["trials"] -= 1
    Path(call.out_path).write_text(json.dumps(doc))
    assert semantic_errors(call, runs[call.name], DEFAULT_SEED, smoke=True)


def test_a_missing_output_is_a_failed_check_not_a_crash(tmp_path):
    (call,) = make_calls("simulate-ring", DEFAULT_SEED, str(tmp_path), smoke=True)
    errors = check_call(call, None, DEFAULT_SEED, smoke=True)
    assert len(errors) == 1 and "FileNotFoundError" in errors[0]


def test_outcomes_count_exit_codes_and_changed_bytes(tmp_path):
    calls = make_calls("enumerate-n18", DEFAULT_SEED, str(tmp_path), smoke=True)
    outcomes = Outcomes(calls)
    outcomes.digests = {"ring": ["a", "a", None], "grid": ["b", "c", "b"], "random": ["d"]}
    assert outcomes.attempted == 7
    assert outcomes.failed({"ring": None, "grid": "b", "random": None}) == 2
    assert outcomes.failed({"ring": "x", "grid": None, "random": None}) == 4
    outcomes.failed_names.add("random")
    assert outcomes.failed({"ring": None, "grid": "b", "random": None}) == 3


def _run_benchmark(cwd, *extra):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("simulate-ring", "0"), ("sweep-sync", "0"), ("enumerate-n18", "0"), ("sweep-sync", "1")],
)
def test_smoke_mode_runs(workload, trace):
    done = _run_benchmark(
        HERE.parent, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in names)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run_benchmark(
        tmp_path, "--workload", "sweep-sync", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
