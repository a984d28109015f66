"""Command-line surface.

Subcommands: simulate, enumerate, check-conditions, best-response, sweep,
validate. Exit codes: 0 success, 1 configuration or usage error (an ``--out``
that cannot be written among them) or a closed stdout, 2 internal runtime
fault. All file outputs are atomic; identical configs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .dynamics import _full_class, _run_trials
from .equilibria import (
    ENUMERATION_MAX_N,
    _condition_reports,
    enumerate_equilibria,
    sweep,
)
from .io import (
    TRAJECTORY_FORMATS,
    atomic_write,
    best_response_to_jsonable,
    condition_report_to_jsonable,
    equilibrium_report_to_jsonable,
    render_json,
    sweep_table_to_jsonable,
    trajectory_chunks,
)
from .model import _revision_terms, _state_fault, best_response


@functools.cache  # built on the first call, not at import, then kept: parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coevo",
        description=(
            "Simulate and analyse coupled cooperate/defect actions and continuous "
            "opinions on an influence network."
        ),
    )
    parser.add_argument("--version", action="version", version=f"coevo {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the experiment config JSON")
    common.add_argument("--seed", type=int, default=None, help="override the schedule and random initial-state seeds")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    common.add_argument("--out", default=None, help="write the result to this file")

    p = sub.add_parser(
        "simulate", parents=[common], help="run the dynamics and emit the trajectory"
    )
    p.add_argument(
        "--format",
        choices=tuple(TRAJECTORY_FORMATS),
        default="csv",
        help="trajectory file format (default csv)",
    )

    sub.add_parser(
        "enumerate", parents=[common], help="enumerate all equilibria by branch and bound"
    ).add_argument(
        "--max-n",
        type=int,
        default=ENUMERATION_MAX_N,
        help=f"refuse enumeration beyond this n (default {ENUMERATION_MAX_N})",
    )

    sub.add_parser(
        "check-conditions",
        parents=[common],
        help="evaluate both consensus conditions per player",
    )

    p = sub.add_parser(
        "best-response",
        parents=[common],
        help="print a player's best-response set for given opinions",
    )
    p.add_argument("--player", type=int, required=True, help="player id (1-based)")
    p.add_argument(
        "--opinions",
        required=True,
        help="comma-separated opinion vector of length n, e.g. 0.2,0.4,0.4,0.1",
    )

    p = sub.add_parser(
        "sweep", parents=[common], help="run the parameter sweep from the config's sweep section"
    )
    p.add_argument("--trials", type=int, default=None, help="override sweep.trials")

    sub.add_parser("validate", parents=[common], help="load and validate the config, nothing else")
    return parser


def _emit(text, out: str | None) -> None:
    if out is None:
        sys.stdout.writelines([text] if isinstance(text, str) else text)
        return
    try:
        atomic_write(out, text)
    except OSError as exc:  # a missing directory, a directory: name the user's path, not the temporary file's
        raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _cmd_validate(args, cfg) -> int:
    if not args.quiet:
        print(
            f"config OK: {cfg.params.n} players, r={cfg.params.r}, "
            f"{cfg.schedule.kind} schedule, network symmetric={cfg.network.is_symmetric} "
            f"irreducible={cfg.network.is_irreducible}"
        )
    return 0


def _cmd_simulate(args, cfg) -> int:
    # each block of rows is written as the run yields it: memory does not grow with the steps
    end: list = []
    blocks = _run_trials(cfg.initial_state.x[None], cfg.initial_state.y[None], [cfg.schedule],
                         _revision_terms(cfg.params), cfg.network.W, cfg.max_steps, cfg.fixed_point_tol, end,
                         cfg.params)
    _emit(trajectory_chunks(blocks, cfg.params.n, args.format), args.out)
    (x,), (y,), (steps,), (stop_reason,), (stop_detail,) = end
    if not args.quiet:
        detail = f" ({stop_detail})" if stop_detail else ""
        print(
            f"stopped after {steps} steps: {stop_reason}{detail}; "
            f"final class: {_full_class(x, y).item()}",
            file=sys.stderr,
        )
    return 0


def _cmd_enumerate(args, cfg) -> int:
    report = enumerate_equilibria(cfg.params, cfg.network, max_n=args.max_n)
    _emit(render_json(equilibrium_report_to_jsonable(report)), args.out)
    if not args.quiet:
        print(
            f"scanned {report.action_profiles_scanned} action profiles: "
            f"{len(report.equilibria)} equilibria, "
            f"{len(report.boundary_equilibria)} boundary",
            file=sys.stderr,
        )
    return 0


def _format_condition_line(report) -> str:
    if report.all_hold:
        return f"{report.condition_id}: holds for all players"
    failing = [str(i + 1) for i, (_, _, h) in enumerate(report.per_player) if not h]
    return f"{report.condition_id}: fails for player(s) {', '.join(failing)}"


def _cmd_check_conditions(args, cfg) -> int:
    defection, cooperation = _condition_reports(cfg.params)
    if args.out is not None:
        _emit(render_json({"all_defection_unique": condition_report_to_jsonable(defection),
                           "all_cooperation_exists": condition_report_to_jsonable(cooperation)}), args.out)
    print(_format_condition_line(defection))
    print(_format_condition_line(cooperation))
    return 0


def _cmd_best_response(args, cfg) -> int:
    n = cfg.params.n
    if not 1 <= args.player <= n:
        raise ConfigError(f"--player must be in 1..{n}, got {args.player}")
    try:
        y = np.array([float(v) for v in args.opinions.split(",")])
    except ValueError:
        raise ConfigError(f"--opinions must be comma-separated numbers, got {args.opinions!r}") from None
    if y.shape != (n,):
        raise ConfigError(f"--opinions must have {n} entries, got {y.shape[0]}")
    fault = _state_fault(None, y)
    if fault is not None:
        raise ConfigError(f"--opinions: {fault[1]}")
    br = best_response(args.player - 1, y, cfg.params, cfg.network)
    _emit(render_json(best_response_to_jsonable(br)), args.out)
    return 0


def _cmd_sweep(args, cfg) -> int:
    if cfg.sweep_grid is None:
        raise ConfigError(
            f"{args.config}: no sweep section; add "
            '"sweep": {"r": [...], "alpha": [...], "beta": [...], "trials": 20}'
        )
    trials = args.trials if args.trials is not None else cfg.sweep_trials
    table = sweep(
        cfg.sweep_grid,
        cfg.network,
        schedule_kind=cfg.schedule.kind,
        trials=trials,
        seed=cfg.schedule.seed,
        max_steps=cfg.max_steps,
        fixed_point_tol=cfg.fixed_point_tol,
    )
    _emit(render_json(sweep_table_to_jsonable(table)), args.out)
    if not args.quiet:
        print(
            f"swept {len(table.cells)} cells "
            f"({len(table.invalid_cells)} invalid skipped), "
            f"{table.trials_per_cell} trials each",
            file=sys.stderr,
        )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "enumerate": _cmd_enumerate,
    "check-conditions": _cmd_check_conditions,
    "best-response": _cmd_best_response,
    "sweep": _cmd_sweep,
}


def _print_warning(message, *_) -> None:
    """Show a library warning as one ``warning:`` line, without its source file and line."""
    print(f"warning: {message}", file=sys.stderr)


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; this surface reserves
        # 2 for runtime faults and reports usage problems as 1
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](args, load_config(args.config, seed_override=args.seed))
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # stdout's reader left; main() owns the descriptor and exits 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports faults as exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()  # here, not at exit, so a closed pipe is caught below
    except BrokenPipeError:
        # drop what is still buffered: the interpreter's exit flush would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
