"""Acceptance suite: ten independently checkable properties of the package.

Each test prints one `[acceptance] C<k> <name>: PASS|FAIL` line on the real
stdout (bypassing capture) before asserting, so a full run always shows the
per-criterion verdict regardless of pytest's capture settings.
"""

import json
import time

import numpy as np
import pytest

from coevo.cli import cli_main
from coevo.dynamics import (
    is_fixed_point,
    make_schedule,
    potential,
    potential_matrix_is_positive_definite,
    potential_quadratic,
    run,
)
from coevo.equilibria import (
    check_all_cooperation_exists,
    check_all_defection_unique,
    enumerate_equilibria,
    solve_opinion_equilibrium,
    verify_nash,
)
from coevo.io import emit_trajectory, load_trajectory, render_trajectory_csv
from coevo.model import (
    ModelParams,
    Network,
    SystemState,
    best_response,
    discriminant,
    total_payoff,
)
from coevo.networks import load_network, random_network, random_symmetric_network, save_network
from instances import (
    convergence_instance,
    cooperation_regime_params,
    defection_regime_params,
    iterated_opinions,
    random_interior_params,
    random_row_stochastic,
    random_state,
)

OPINION_GRID = np.linspace(0.0, 1.0, 1001)


def _report(capsys, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")


def _oracle_payoff_curve(i, action, others_total, y, params, W):
    """Independent payoff computation over the whole opinion grid."""
    if action == 1:
        game = params.r * (others_total + 1.0) / params.n - 1.0
    else:
        game = params.r / params.n * others_total
    disagreement = (W[i] * (OPINION_GRID[:, None] - y[None, :]) ** 2).sum(axis=1)
    opinion_part = (
        -0.5 * (1.0 - params.gamma[i]) * disagreement
        - 0.5 * params.gamma[i] * (OPINION_GRID - params.prejudice[i]) ** 2
    )
    consistency = -0.5 * params.lam[i] * (action - OPINION_GRID) ** 2
    return params.alpha[i] * game + params.beta[i] * opinion_part + consistency


def _oracle_payoff_at(i, action, opinion, others_total, y, params, W):
    if action == 1:
        game = params.r * (others_total + 1.0) / params.n - 1.0
    else:
        game = params.r / params.n * others_total
    disagreement = float((W[i] * (opinion - y) ** 2).sum())
    opinion_part = (
        -0.5 * (1.0 - params.gamma[i]) * disagreement
        - 0.5 * params.gamma[i] * (opinion - params.prejudice[i]) ** 2
    )
    return (
        params.alpha[i] * game
        + params.beta[i] * opinion_part
        - 0.5 * params.lam[i] * (action - opinion) ** 2
    )


def _oracle_instance(rng, n):
    base = random_interior_params(rng, n)
    if rng.random() < 0.5:
        return base
    return ModelParams(
        n=n,
        r=base.r,
        alpha=base.alpha,
        beta=base.beta,
        lam=base.lam,
        gamma=rng.uniform(0.0, 1.0, n),
        prejudice=rng.uniform(0.0, 1.0, n),
    )


@pytest.fixture(scope="module")
def oracle_sweep():
    """Shared instance sweep for the grid-oracle and identity criteria."""
    rng = np.random.default_rng(11)
    grid_failures: list[str] = []
    identity_failures: list[str] = []
    start = time.perf_counter()
    instances = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        params = _oracle_instance(rng, n)
        net = random_row_stochastic(rng, n)
        y = rng.random(n)
        x = rng.integers(0, 2, size=n).astype(np.int64)
        instances += 1
        for i in range(n):
            others_total = int(x.sum() - x[i])
            br = best_response(i, y, params, net)
            curves = {
                a: _oracle_payoff_curve(i, a, others_total, y, params, net.W)
                for a in (0, 1)
            }
            grid_best = {a: float(c.max()) for a, c in curves.items()}
            grid_opt = {a: float(OPINION_GRID[int(c.argmax())]) for a, c in curves.items()}
            overall = max(grid_best.values())
            grid_action = 0 if grid_best[0] >= grid_best[1] else 1
            for action, opinion in br.entries:
                achieved = _oracle_payoff_at(
                    i, action, opinion, others_total, y, params, net.W
                )
                if achieved < grid_best[action] - 1e-6:
                    grid_failures.append(
                        f"payoff gap {grid_best[action] - achieved:.3e} (n={n}, i={i})"
                    )
                if abs(opinion - grid_opt[action]) > 1e-3:
                    grid_failures.append(
                        f"opinion gap {abs(opinion - grid_opt[action]):.3e} (n={n}, i={i})"
                    )
            if abs(br.discriminant_value) > 1e-4:
                if br.actions != (grid_action,):
                    grid_failures.append(
                        f"action mismatch {br.actions} vs {grid_action} (n={n}, i={i})"
                    )
                entry_payoff = _oracle_payoff_at(
                    i, br.entries[0][0], br.entries[0][1], others_total, y, params, net.W
                )
                if entry_payoff < overall - 1e-6:
                    grid_failures.append(
                        f"global payoff gap {overall - entry_payoff:.3e} (n={n}, i={i})"
                    )

            # identity: the discriminant equals the payoff advantage of
            # cooperating at the conditionally optimal opinions
            base = params.beta[i] * (
                (1.0 - params.gamma[i]) * float(net.W[i] @ y)
                + params.gamma[i] * params.prejudice[i]
            )
            denom = params.beta[i] + params.lam[i]
            pay = {}
            for action in (0, 1):
                x_dev = x.copy()
                x_dev[i] = action
                y_dev = y.copy()
                y_dev[i] = (base + action * params.lam[i]) / denom
                pay[action] = total_payoff(i, SystemState(x_dev, y_dev), params, net)
            gap = abs(discriminant(i, y, params, net) - (pay[1] - pay[0]))
            if gap > 1e-12:
                identity_failures.append(f"identity gap {gap:.3e} (n={n}, i={i})")
    elapsed = time.perf_counter() - start
    return grid_failures, identity_failures, elapsed, instances


def test_criterion_01_best_response_grid_oracle(oracle_sweep, capsys):
    grid_failures, _, elapsed, instances = oracle_sweep
    ok = not grid_failures and instances >= 1000 and elapsed < 30.0
    _report(capsys, "C1 best-response-grid-oracle", ok)
    assert instances >= 1000
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    assert not grid_failures, grid_failures[:5]


def test_criterion_02_discriminant_payoff_identity(oracle_sweep, capsys):
    _, identity_failures, _, instances = oracle_sweep
    ok = not identity_failures and instances >= 1000
    _report(capsys, "C2 discriminant-payoff-identity", ok)
    assert not identity_failures, identity_failures[:5]


def test_criterion_03_defection_always_equilibrium(capsys):
    rng = np.random.default_rng(23)
    failures = []
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        params = random_interior_params(rng, n)
        net = random_row_stochastic(rng, n)
        state = SystemState.all_defection(n)
        if not verify_nash(state, params, net).is_nash:
            failures.append(f"nash refused (n={n}, r={params.r:.3f})")
        if not is_fixed_point(state, params, net):
            failures.append(f"not stationary (n={n}, r={params.r:.3f})")
    ok = not failures
    _report(capsys, "C3 defection-always-equilibrium", ok)
    assert not failures, failures[:5]


def test_criterion_04_defection_uniqueness(capsys):
    rng = np.random.default_rng(31)
    failures = []
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 11))
        params = defection_regime_params(rng, n)
        net = random_row_stochastic(rng, n)
        if not check_all_defection_unique(params).all_hold:
            failures.append(f"generator left the regime (n={n})")
            continue
        report = enumerate_equilibria(params, net)
        profiles = [tuple(int(v) for v in eq.state.x) for eq in report.equilibria]
        if profiles != [tuple([0] * n)]:
            failures.append(f"extra equilibria {profiles} (n={n}, r={params.r:.3f})")
        if report.boundary_equilibria:
            failures.append(f"unexpected boundary states (n={n}, r={params.r:.3f})")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(capsys, "C4 defection-uniqueness", ok)
    assert elapsed < 60.0, f"enumeration sweep took {elapsed:.1f}s"
    assert not failures, failures[:5]


def test_criterion_05_cooperation_existence(capsys):
    rng = np.random.default_rng(37)
    failures = []
    for _ in range(200):
        n = int(rng.integers(2, 11))
        params = cooperation_regime_params(rng, n)
        net = random_row_stochastic(rng, n)
        if not check_all_cooperation_exists(params).all_hold:
            failures.append(f"generator left the regime (n={n})")
            continue
        report = enumerate_equilibria(params, net)
        coop = [
            eq
            for eq in report.equilibria
            if tuple(int(v) for v in eq.state.x) == tuple([1] * n)
        ]
        if not coop:
            failures.append(f"consensus cooperation missing (n={n}, r={params.r:.3f})")
            continue
        if not np.allclose(coop[0].state.y, 1.0, atol=1e-9):
            failures.append(f"cooperation opinions off consensus (n={n})")
        if not verify_nash(SystemState.all_cooperation(n), params, net).is_nash:
            failures.append(f"nash check refused cooperation (n={n}, r={params.r:.3f})")
    ok = not failures
    _report(capsys, "C5 cooperation-existence", ok)
    assert not failures, failures[:5]


def test_criterion_06_global_convergence(capsys):
    rng = np.random.default_rng(41)
    failures = []
    for _ in range(100):
        n = int(rng.integers(2, 9))
        params, net = convergence_instance(rng, n)
        assert net.is_symmetric and net.is_irreducible
        assert check_all_defection_unique(params).all_hold
        for kind in ("synchronous", "round-robin", "shuffled-rounds"):
            sched = make_schedule(kind, n, seed=int(rng.integers(2**31)))
            traj = run(
                random_state(rng, n),
                sched,
                params,
                net,
                max_steps=50_000,
                fixed_point_tol=1e-12,
            )
            tag = f"(n={n}, {kind}, r={params.r:.3f})"
            if traj.stop_reason != "fixed_point":
                failures.append(f"no fixed point before budget {tag}")
                continue
            settled = traj.states[sched.T :]
            if any(int(s.x.sum()) != 0 for s in settled):
                failures.append(f"actions not all-defect after one window {tag}")
            if float(np.abs(traj.final.y).max()) > 1e-8:
                failures.append(f"opinions did not reach consensus {tag}")
            pots = traj.potentials
            if pots is None:
                failures.append(f"potential not tracked {tag}")
                continue
            for t in range(sched.T, len(traj.states) - 1):
                if len(traj.active_sets[t]) == 1 and pots[t + 1] < pots[t] - 1e-12:
                    failures.append(
                        f"potential dropped by {pots[t] - pots[t + 1]:.3e} at t={t} {tag}"
                    )
                    break
    ok = not failures
    _report(capsys, "C6 global-convergence", ok)
    assert not failures, failures[:5]


def test_criterion_07_potential_equivalence(capsys):
    rng = np.random.default_rng(43)
    failures = []
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        params = random_interior_params(rng, n)
        net = random_symmetric_network(n, 0.6, seed=int(rng.integers(2**31)))
        y = rng.random(n)
        a = potential(y, params, net)
        b = potential_quadratic(y, params, net)
        if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
            failures.append(f"forms differ by {abs(a - b):.3e} (n={n})")
        if not potential_matrix_is_positive_definite(params, net):
            failures.append(f"matrix not positive definite (n={n})")
    ok = not failures
    _report(capsys, "C7 potential-equivalence", ok)
    assert not failures, failures[:5]


def test_criterion_08_opinion_equilibrium_endpoints(capsys):
    rng = np.random.default_rng(47)
    failures = []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        params = random_interior_params(rng, n)
        net = random_row_stochastic(rng, n)
        y0 = solve_opinion_equilibrium(np.zeros(n, dtype=np.int64), params, net)
        y1 = solve_opinion_equilibrium(np.ones(n, dtype=np.int64), params, net)
        if float(np.abs(y0).max()) > 1e-12:
            failures.append(f"defection consensus off by {np.abs(y0).max():.3e}")
        if float(np.abs(y1 - 1.0).max()) > 1e-12:
            failures.append(f"cooperation consensus off by {np.abs(y1 - 1).max():.3e}")
    net2 = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
    params2 = ModelParams.uniform(2, 1.5, 1 / 3, 1 / 3, 1 / 3)
    for name, solve in (("direct solve", solve_opinion_equilibrium), ("iteration", iterated_opinions)):
        y = solve(np.array([1, 0]), params2, net2)
        if not np.allclose(y, [2 / 3, 1 / 3], atol=1e-12):
            failures.append(f"{name}: hand-solved case returned {y}")
    ok = not failures
    _report(capsys, "C8 opinion-equilibrium-endpoints", ok)
    assert not failures, failures[:5]


def test_criterion_09_payoff_potential_alignment(capsys):
    rng = np.random.default_rng(53)
    failures = []
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        params = random_interior_params(rng, n)
        net = random_symmetric_network(n, 0.6, seed=int(rng.integers(2**31)))
        x = np.zeros(n, dtype=np.int64)
        y_a = rng.random(n)
        y_b = y_a.copy()
        i = int(rng.integers(n))
        y_b[i] = rng.random()
        payoff_change = total_payoff(i, SystemState(x, y_b), params, net) - total_payoff(
            i, SystemState(x, y_a), params, net
        )
        potential_change = potential(y_b, params, net) - potential(y_a, params, net)
        gap = abs(payoff_change - params.beta[i] * potential_change)
        if gap > 1e-12:
            failures.append(f"alignment gap {gap:.3e} (n={n}, i={i})")
    ok = not failures
    _report(capsys, "C9 payoff-potential-alignment", ok)
    assert not failures, failures[:5]


def test_criterion_10_determinism_round_trip(capsys, tmp_path):
    failures = []
    doc = {
        "params": {"n": 5, "r": 2.2, "alpha": 1 / 3, "beta": 1 / 3},
        "network": {"type": "random-symmetric", "edge_probability": 0.6, "seed": 9},
        "schedule": {"kind": "shuffled-rounds", "seed": 3},
        "initial_state": {"preset": "random", "seed": 5},
        "run": {"max_steps": 20000, "fixed_point_tol": 1e-10},
        "sweep": {"r": [2.0, 4.2], "alpha": [1 / 3], "beta": [1 / 3], "trials": 3},
    }
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(doc))

    commands = {
        "simulate-csv": ["simulate", str(config), "--quiet"],
        "simulate-jsonl": ["simulate", str(config), "--quiet", "--format", "json-lines"],
        "enumerate": ["enumerate", str(config), "--quiet"],
        "check-conditions": ["check-conditions", str(config)],
        "best-response": [
            "best-response", str(config), "--player", "2", "--opinions", "0.1,0.9,0.4,0.2,0.7",
        ],
        "sweep": ["sweep", str(config), "--quiet"],
    }
    outputs: dict[str, bytes] = {}
    for name, argv in commands.items():
        runs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}.out"
            extra = ["--format", "json-lines"] if name == "simulate-jsonl" else []
            base = argv[:2] + ["--quiet", "--out", str(out)] + extra
            if name == "best-response":
                base = argv + ["--out", str(out)]
            rc = cli_main(base)
            if rc != 0:
                failures.append(f"{name} exited {rc}")
                break
            runs.append(out.read_bytes())
        if len(runs) == 2:
            if runs[0] != runs[1]:
                failures.append(f"{name} runs differ")
            outputs[name] = runs[0]

    rng = np.random.default_rng(59)
    for k in range(30):
        n = int(rng.integers(2, 9))
        net = (
            random_network(n, 0.6, seed=k)
            if k % 2
            else random_symmetric_network(n, 0.6, seed=k)
        )
        for fmt, name in (("dense-csv", "net.csv"), ("edge-list", "net.edges")):
            path = str(tmp_path / name)
            save_network(net, path, format=fmt)
            back = load_network(path, format=fmt)
            if not np.array_equal(net.W, back.W):
                failures.append(f"network round trip drifted ({fmt}, n={n})")

    traj_path = str(tmp_path / "trajectory.csv")
    cli_main(["simulate", str(config), "--quiet", "--out", traj_path])
    original = open(traj_path, "rb").read()
    reloaded = load_trajectory(traj_path)
    if render_trajectory_csv(reloaded).encode() != original:
        failures.append("trajectory round trip drifted (csv)")
    jsonl_path = str(tmp_path / "trajectory.jsonl")
    emit_trajectory(reloaded, jsonl_path, format="json-lines")
    back = load_trajectory(jsonl_path, format="json-lines")
    for a, b in zip(reloaded.states, back.states):
        if not (np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)):
            failures.append("trajectory round trip drifted (json-lines)")
            break

    ok = not failures
    _report(capsys, "C10 determinism-round-trip", ok)
    assert not failures, failures[:5]
