"""Benchmark of the coevo CLI: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it times whole workload iterations (every CLI call of the
workload, in process, one after another) for ``--seconds`` seconds after one
warm-up iteration and prints the end-to-end metrics. With ``--trace 1`` it
replays each call through the public functions the CLI uses, with spans, and
prints the per-layer metrics. Both modes check every output afterwards. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` shrinks every
instance so that the whole run takes seconds; it is for the tests.
"""

import os

# One BLAS/OpenMP thread: with more, repeated runs on a 2-CPU machine spread
# by about 30%. Set before numpy is first imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# The program under test is this checkout's src/, never an installed copy.
sys.path.insert(0, str(SRC))
import coevo  # noqa: E402

if Path(coevo.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"coevo was imported from {coevo.__file__}, not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402
from coevo.cli import cli_main  # noqa: E402

from checks import file_digest, reference_digest, semantic_errors  # noqa: E402
from replay import layer_metrics, probe, replay_call  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_calls  # noqa: E402

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 7

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "coevo.import_s": "s",
    "config.load_s": "s",
    "dynamics.run_s": "s",
    "dynamics.steps": "count",
    "dynamics.steps_per_s": "1/s",
    "dynamics.potential_calls": "count",
    "dynamics.step_s": "s",
    "dynamics.potential_s": "s",
    "dynamics.run_self_s": "s",
    "dynamics.make_schedule_s": "s",
    "dynamics.budget_step_share": "ratio",
    "dynamics.fixed_point_share": "ratio",
    "dynamics.trajectory_mb": "MiB",
    "model.state_new_s": "s",
    "equilibria.enumerate_s": "s",
    "equilibria.profiles_scanned": "count",
    "equilibria.found": "count",
    "equilibria.sweep_self_s": "s",
    "io.render_s": "s",
    "io.render_mb": "MiB",
    "io.write_s": "s",
    "io.parse_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import coevo
t1 = time.perf_counter()
for path in sys.argv[1:]:
    coevo.load_config(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "file": coevo.__file__}))
"""


def measure_setup(config_paths: list[str]) -> tuple[list[float], list[float]]:
    """Import coevo and load every config in fresh interpreters.

    Returns the import times and the load times, one per interpreter.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    imports, loads = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, *config_paths],
            env=env,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        row = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(row["file"]).resolve().parent.parent != SRC:
            raise ImportError(f"set-up child imported coevo from {row['file']}")
        imports.append(row["import_s"])
        loads.append(row["load_s"])
    return imports, loads


class Outcomes:
    """The digest of every CLI call's output, grouped by call name.

    A call whose exit code is nonzero records None.
    """

    def __init__(self, calls):
        self.digests = {c.name: [] for c in calls}
        self.failed_names: set[str] = set()
        self.replay_mismatches = 0

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.digests.values())

    def failed(self, expected: dict[str, str | None]) -> int:
        """Calls that exited nonzero, wrote other bytes than expected, or
        whose output failed a semantic check or was not reproduced by its
        replay."""
        failed = self.replay_mismatches
        for name, digests in self.digests.items():
            if name in self.failed_names:
                failed += len(digests)
                continue
            want = expected.get(name) or next((d for d in digests if d is not None), None)
            failed += sum(1 for d in digests if d is None or d != want)
        return failed


def upper_quartile(samples: list[float]) -> float:
    """The 75th percentile of the samples.

    On a shared host, speed alternates between a sustained level and bursts
    of 10 to 60 seconds in which Python-bound code runs up to 1.9 times
    faster. A median follows whichever level a run happens to fall in; the
    upper quartile follows the sustained one and spreads about half as much
    from run to run.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def run_iteration(calls, outcomes: Outcomes) -> float:
    """Every CLI call of the workload once; returns the wall seconds they took."""
    codes = []
    start = time.perf_counter()
    for call in calls:
        codes.append(cli_main(call.argv))
    elapsed = time.perf_counter() - start
    for call, code in zip(calls, codes):
        outcomes.digests[call.name].append(file_digest(call.out_path) if code == 0 else None)
    return elapsed


def timed_run(seconds: float, calls, outcomes: Outcomes) -> tuple[list[float], float]:
    """Warm up once, then time whole iterations for ``seconds``.

    Returns the iteration times and the peak RSS in MiB.
    """
    run_iteration(calls, outcomes)
    durations = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        durations.append(run_iteration(calls, outcomes))
    return durations, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(seconds: float, calls, outcomes: Outcomes):
    """Alternate one untraced CLI iteration with a traced replay of it.

    Returns the per-layer metrics of every traced iteration, the runs of the
    last replay and the spans of every replay.
    """
    run_iteration(calls, outcomes)
    per_iteration, runs_by_call, spans = [], {}, []
    start = time.perf_counter()
    while not per_iteration or time.perf_counter() - start < seconds:
        cli_s = run_iteration(calls, outcomes)
        replay, probes = Tracer(), Tracer()
        for trace_id, call in enumerate(calls):
            replay.trace_id = probes.trace_id = trace_id
            replay_path = call.out_path + ".replay"
            runs_by_call[call.name] = replay_call(call, replay_path, replay)
            if file_digest(replay_path) != outcomes.digests[call.name][-1]:
                outcomes.replay_mismatches += 1
        probe(calls, runs_by_call, probes)
        per_iteration.append(layer_metrics(replay, probes, cli_s))
        spans.append({"replay": replay.to_jsonable(), "probes": probes.to_jsonable()})
    return per_iteration, runs_by_call, spans


def check_call(call, runs_by_call, seed: int, smoke: bool) -> list[str]:
    """Semantic errors of one call's output; a check that raises is one too.

    Without the runs of a traced replay, an untimed replay supplies the runs
    the checks compare against.
    """
    try:
        if runs_by_call is None:
            runs = replay_call(call, call.out_path + ".replay", Tracer())
        else:
            runs = runs_by_call[call.name]
        return semantic_errors(call, runs, seed, smoke)
    except Exception as exc:  # noqa: BLE001 - a broken output is a failed call, not a crash
        traceback.print_exc()
        return [f"{call.name}: {type(exc).__name__}: {exc}"]


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for tests")
    args = parser.parse_args(argv)

    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = make_calls(args.workload, args.seed, str(workdir), smoke=args.smoke)
        imports, loads = measure_setup([c.config_path for c in calls])
        outcomes = Outcomes(calls)
        if args.trace:
            per_iteration, runs_by_call, spans = traced_run(args.seconds, calls, outcomes)
        else:
            durations, rss = timed_run(args.seconds, calls, outcomes)
            runs_by_call = None
        for call in calls:
            errors = check_call(call, runs_by_call, args.seed, args.smoke)
            for message in errors:
                print(f"check failed: {message}", file=sys.stderr)
            if errors:
                outcomes.failed_names.add(call.name)
        expected = {c.name: reference_digest(args.workload, c, args.seed, args.smoke) for c in calls}
        failed = outcomes.failed(expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_samples = [i + l for i, l in zip(imports, loads)]
    if args.trace:
        metrics = {
            "coevo.import_s": statistics.median(imports),
            "config.load_s": statistics.median(loads),
        }
        for name in PER_LAYER_UNITS:
            if name not in metrics:
                metrics[name] = statistics.median(m[name] for m in per_iteration)
        units, samples = PER_LAYER_UNITS, {"traced_iterations": len(per_iteration)}
        (WORK_ROOT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics = {
            "wall_s": upper_quartile(durations),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup_samples),
        }
        units, samples = END_TO_END_UNITS, {"wall_s_samples": durations}

    print(json.dumps({"environment": environment(), **samples, "setup_s_samples": setup_samples}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": outcomes.attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
