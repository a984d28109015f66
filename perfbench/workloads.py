"""Workload definitions: config documents generated from the benchmark seed.

Each workload is a fixed list of CLI calls. The configs are written to files
in a work directory and the program sees only those files and the argv, never
the benchmark seed itself. Seed DEFAULT_SEED reproduces the instances the
reference digests were recorded from; every other seed changes the random
parts (initial opinions, sweep trial streams, one random network) while the
problem sizes stay fixed, so the work per call barely moves with the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 0

WORKLOADS = ("simulate-ring", "sweep-sync", "enumerate-n18")

#: SHA-256 of each CLI output at DEFAULT_SEED, full size, recorded from the
#: unchanged program. Keyed by "<workload>/<call name>".
REFERENCE_DIGESTS = {
    "simulate-ring/ring": "63dd2cba0b3b49740847a67939a58630c553f9af60128309ee03f78e5e39fe45",
    "sweep-sync/sweep": "bfc8079c421a9b94b3aa7e754cb79ee991b92e236fd0dcd3db181803cfa26fbe",
    "enumerate-n18/ring": "babbfee69f5bedf1e2963650ab3693719b320d7c62980a8f09edc5692ba3ec11",
    "enumerate-n18/grid": "3c2d6b2763da3faa8bfa04bd17e20319c0063df6f8f4ba85298116bf92d560c9",
    "enumerate-n18/random": "27a49423c38bafa127542dbe6fe13cd7c65e309bc408ec419a69f688f4178140",
}

#: Strict-equilibrium counts that hold on every seed (the ring and grid
#: instances have no random part) or only at DEFAULT_SEED (the random one).
EQUILIBRIUM_COUNTS = {"ring": 65, "grid": 24}
EQUILIBRIUM_COUNTS_DEFAULT_SEED = {"random": 1}


@dataclass(frozen=True)
class Call:
    """One CLI call: its config document, the file it writes and its argv."""

    name: str
    command: str
    config: dict
    config_path: str
    out_path: str
    options: tuple[str, ...] = ()

    @property
    def argv(self) -> list[str]:
        return [self.command, self.config_path, "--out", self.out_path, "--quiet", *self.options]

    def option(self, flag: str) -> str | None:
        """The value given to ``flag`` in this call's options, if any."""
        if flag not in self.options:
            return None
        return self.options[self.options.index(flag) + 1]


def _simulate_ring(seed: int, smoke: bool) -> list[tuple[str, str, dict, tuple]]:
    n = 24 if smoke else 192
    doc = {
        "params": {"n": n, "r": 2.0, "alpha": 0.4, "beta": 0.3, "gamma": 0.0},
        "network": {"type": "ring"},
        "schedule": {"kind": "round-robin"},
        "initial_state": {"preset": "random", "seed": seed + 1},
        "run": {"max_steps": 100_000},
    }
    return [("ring", "simulate", doc, ())]


def _sweep_sync(seed: int, smoke: bool) -> list[tuple[str, str, dict, tuple]]:
    # The synchronous schedule 2-cycles from some starts; those trials run
    # until max_steps. How many do so varies with the seed (1 to 8 of 240
    # over seeds 0..29), so the budget is kept small enough that one more or
    # one fewer cycling trial moves the run time by a few percent, not by a
    # third. An even budget ends every 2-cycle on the same phase.
    doc = {
        "params": {"n": 8, "r": 2.0, "alpha": 0.2, "beta": 0.3},
        "network": {"type": "random", "edge_probability": 0.4, "seed": 3},
        "schedule": {"kind": "synchronous"},
        "initial_state": "all-defect-consensus",
        "run": {"max_steps": 200},
        "sweep": {
            "r": [1.5, 2.5, 4.0, 6.0, 7.5, 7.9],
            "alpha": [0.2, 0.4],
            "beta": [0.3],
            "trials": 2 if smoke else 20,
        },
    }
    # a synchronous schedule carries no seed, so the sweep's trial streams
    # are seeded through --seed
    return [("sweep", "sweep", doc, ("--seed", str(seed)))]


def _enumerate_n18(seed: int, smoke: bool) -> list[tuple[str, str, dict, tuple]]:
    rows, cols = (2, 5) if smoke else (3, 6)
    n = rows * cols
    shared = {"alpha": 0.15, "beta": 0.45, "r": 15.3 if not smoke else 8.5}
    ring = {"params": {"n": n, **shared}, "network": {"type": "ring"}}
    grid = {
        "params": {"n": n, **shared},
        "network": {"type": "grid", "rows": rows, "cols": cols},
    }
    random_doc = {
        "params": {"n": n, "r": 10.8 if not smoke else 6.0, "alpha": 0.3, "beta": 0.35},
        "network": {"type": "random", "edge_probability": 0.3, "seed": seed + 5},
    }
    max_n = ("--max-n", str(n))
    return [
        ("ring", "enumerate", ring, max_n),
        ("grid", "enumerate", grid, max_n),
        ("random", "enumerate", random_doc, max_n),
    ]


_BUILDERS = {
    "simulate-ring": _simulate_ring,
    "sweep-sync": _sweep_sync,
    "enumerate-n18": _enumerate_n18,
}

_SUFFIX = {"simulate": ".csv", "sweep": ".json", "enumerate": ".json"}


def make_calls(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Call]:
    """Write the workload's configs under ``workdir`` and return its calls."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    calls = []
    for name, command, doc, extra in _BUILDERS[workload](seed, smoke):
        config_path = os.path.join(workdir, f"{name}.config.json")
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True, indent=2)
        out_path = os.path.join(workdir, f"{name}.out{_SUFFIX[command]}")
        calls.append(Call(name, command, doc, config_path, out_path, tuple(extra)))
    return calls
