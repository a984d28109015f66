"""Traced replays: each CLI call re-run through the public functions it uses.

A replay reads the same config file and writes the same bytes as the CLI
call it mirrors, with a span around every call into a ``coevo`` module. The
sweep replay mirrors the body of ``coevo.equilibria.sweep`` so that its
enumeration, schedule building and runs get spans of their own. Probes then
re-execute single layers over what the replay recorded (every transition,
every state, the written file) to time them one by one.
"""

from __future__ import annotations

import itertools

import numpy as np

from coevo import (
    ModelParams,
    SystemState,
    check_all_cooperation_exists,
    check_all_defection_unique,
    classify_state,
    enumerate_equilibria,
    load_config,
    load_trajectory,
    make_schedule,
    potential,
    run,
    step,
)
from coevo.equilibria import SweepCell, SweepTable
from coevo.io import (
    atomic_write,
    equilibrium_report_to_jsonable,
    render_json,
    render_trajectory_csv,
    sweep_table_to_jsonable,
)

from spans import Tracer

MB = float(1 << 20)


def replay_call(call, out_path: str, tracer: Tracer) -> list:
    """Replay one CLI call into ``out_path``.

    Returns the (trajectory, params) pair of every run it made.
    """
    seed = call.option("--seed")
    seed = int(seed) if seed is not None else None
    with tracer.span("config.load"):
        cfg = load_config(call.config_path, seed_override=seed)
    if call.command == "simulate":
        with tracer.span("dynamics.run"):
            traj = run(
                cfg.initial_state,
                cfg.schedule,
                cfg.params,
                cfg.network,
                max_steps=cfg.max_steps,
                fixed_point_tol=cfg.fixed_point_tol,
            )
        _count_run(tracer, traj)
        with tracer.span("io.render"):
            text = render_trajectory_csv(traj)
        runs = [(traj, cfg.params)]
    elif call.command == "sweep":
        with tracer.span("equilibria.sweep"):
            table, runs = _sweep(cfg, seed if seed is not None else cfg.schedule.seed or 0, tracer)
        with tracer.span("io.render"):
            text = render_json(sweep_table_to_jsonable(table))
    elif call.command == "enumerate":
        with tracer.span("equilibria.enumerate"):
            report = enumerate_equilibria(cfg.params, cfg.network, max_n=int(call.option("--max-n")))
        tracer.count("equilibria.profiles_scanned", report.action_profiles_scanned)
        tracer.count("equilibria.found", len(report.equilibria))
        with tracer.span("io.render"):
            text = render_json(equilibrium_report_to_jsonable(report))
        runs = []
    else:
        raise ValueError(f"no replay for command {call.command!r}")
    tracer.count("io.render_bytes", len(text.encode("utf-8")))
    with tracer.span("io.write"):
        atomic_write(out_path, text)
    return runs


def _count_run(tracer: Tracer, traj) -> None:
    steps = len(traj) - 1
    tracer.count("dynamics.runs")
    tracer.count("dynamics.steps", steps)
    if traj.stop_reason == "fixed_point":
        tracer.count("dynamics.fixed_point_runs")
    if traj.stop_reason == "max_steps":
        tracer.count("dynamics.budget_steps", steps)
    if traj.potentials is not None:
        tracer.count("dynamics.potential_calls", len(traj.potentials))
    tracer.count("dynamics.trajectory_bytes", sum(s.x.nbytes + s.y.nbytes for s in traj.states))


def _sweep(cfg, seed: int, tracer: Tracer, max_n: int = 16, opinion_tol: float = 1e-6):
    """The body of coevo.equilibria.sweep with the CLI's arguments and spans."""
    grid, net, trials = cfg.sweep_grid, cfg.network, cfg.sweep_trials
    n = net.n
    cell_specs = list(
        itertools.product(
            [float(v) for v in grid.get("r", [])],
            [float(v) for v in grid.get("alpha", [])],
            [float(v) for v in grid.get("beta", [])],
        )
    )
    cell_seqs = np.random.SeedSequence(seed).spawn(len(cell_specs)) if cell_specs else []
    cells, invalid, runs = [], [], []
    for (r, a, b), seq in zip(cell_specs, cell_seqs):
        lam = 1.0 - a - b
        try:
            params = ModelParams.uniform(n, r, a, b, lam)
        except ValueError as exc:
            invalid.append(({"r": r, "alpha": a, "beta": b}, str(exc)))
            continue
        if not params.strict_interior:
            invalid.append(
                ({"r": r, "alpha": a, "beta": b}, "weights must lie strictly inside (0, 1) for analysis")
            )
            continue
        cond_defect = check_all_defection_unique(params)
        cond_coop = check_all_cooperation_exists(params)
        eq_count = boundary_count = None
        if n <= max_n:
            with tracer.span("equilibria.enumerate"):
                report = enumerate_equilibria(params, net, max_n=max_n)
            tracer.count("equilibria.profiles_scanned", report.action_profiles_scanned)
            tracer.count("equilibria.found", len(report.equilibria))
            eq_count, boundary_count = len(report.equilibria), len(report.boundary_equilibria)
        counts: dict[str, int] = {}
        for trial_seq in seq.spawn(trials):
            rng = np.random.default_rng(trial_seq)
            initial = SystemState(rng.integers(0, 2, size=n).astype(np.int64), rng.random(n))
            with tracer.span("dynamics.make_schedule"):
                schedule = make_schedule(cfg.schedule.kind, n, seed=int(rng.integers(2**63 - 1)))
            with tracer.span("dynamics.run"):
                traj = run(
                    initial,
                    schedule,
                    params,
                    net,
                    max_steps=cfg.max_steps,
                    fixed_point_tol=cfg.fixed_point_tol,
                )
            _count_run(tracer, traj)
            runs.append((traj, params))
            label = classify_state(traj.final, opinion_tol=opinion_tol).full_class
            counts[label] = counts.get(label, 0) + 1
        cells.append(
            SweepCell(
                r=r,
                alpha=a,
                beta=b,
                lam=lam,
                all_defection_unique=cond_defect.all_hold,
                all_cooperation_exists=cond_coop.all_hold,
                equilibrium_count=eq_count,
                boundary_count=boundary_count,
                outcome_frequencies={k: v / trials for k, v in sorted(counts.items())},
                trials=trials,
            )
        )
    table = SweepTable(
        cells=tuple(cells),
        invalid_cells=tuple(invalid),
        schedule_kind=cfg.schedule.kind,
        seed=seed,
        trials_per_cell=trials,
    )
    return table, runs


def probe(calls, runs_by_call: dict, probes: Tracer) -> None:
    """Time step(), potential() and SystemState() over every recorded
    transition and state, and load_trajectory() over every written CSV."""
    for call in calls:
        net = load_config(call.config_path).network
        for traj, params in runs_by_call.get(call.name, []):
            states = traj.states
            with probes.span("dynamics.step"):
                for t, active in enumerate(traj.active_sets):
                    step(states[t], active, params, net)
            if traj.potentials is not None:
                with probes.span("dynamics.potential"):
                    for s in states:
                        potential(s.y, params, net)
            with probes.span("model.state_new"):
                for s in states:
                    SystemState(s.x, s.y)
        if call.command == "simulate":
            with probes.span("io.parse"):
                load_trajectory(call.out_path)


def layer_metrics(replay: Tracer, probes: Tracer, cli_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (setup layers excluded)."""
    c = replay.counts
    steps = c["dynamics.steps"]
    runs = c["dynamics.runs"]
    run_s = replay.total("dynamics.run")
    step_s = probes.total("dynamics.step")
    potential_s = probes.total("dynamics.potential")
    traced_s = replay.roots_total()
    return {
        "dynamics.run_s": run_s,
        "dynamics.steps": steps,
        "dynamics.steps_per_s": steps / run_s if steps else 0.0,
        "dynamics.potential_calls": c["dynamics.potential_calls"],
        "dynamics.step_s": step_s,
        "dynamics.potential_s": potential_s,
        "dynamics.run_self_s": run_s - step_s - potential_s,
        "dynamics.make_schedule_s": replay.total("dynamics.make_schedule"),
        "dynamics.budget_step_share": c["dynamics.budget_steps"] / steps if steps else 0.0,
        "dynamics.fixed_point_share": c["dynamics.fixed_point_runs"] / runs if runs else 0.0,
        "dynamics.trajectory_mb": c["dynamics.trajectory_bytes"] / MB,
        "model.state_new_s": probes.total("model.state_new"),
        "equilibria.enumerate_s": replay.total("equilibria.enumerate"),
        "equilibria.profiles_scanned": c["equilibria.profiles_scanned"],
        "equilibria.found": c["equilibria.found"],
        "equilibria.sweep_self_s": replay.self_time("equilibria.sweep"),
        "io.render_s": replay.total("io.render"),
        "io.render_mb": c["io.render_bytes"] / MB,
        "io.write_s": replay.total("io.write"),
        "io.parse_s": probes.total("io.parse"),
        "cli.self_s": cli_s - traced_s,
        "trace.overhead_share": traced_s / cli_s - 1.0,
    }
