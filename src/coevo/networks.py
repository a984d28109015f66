"""Influence-network generators and file loaders.

All generators return row-stochastic :class:`~coevo.model.Network` objects.
File formats:

* edge list: whitespace-separated lines ``i j w`` with 1-based node ids,
  ``#`` starts a comment; the matrix size is the largest id seen.
* dense CSV: n rows of n comma-separated weights.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Network

#: Draws a random generator makes before it gives up on an irreducible one.
MAX_RETRIES = 200


def complete_network(n: int) -> Network:
    """Complete graph: weight 1/(n-1) on every off-diagonal entry, zero diagonal."""
    if n < 2:
        raise ValueError(f"complete network needs n >= 2, got {n}")
    W = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(W, 0.0)
    return Network(W)


def ring_network(n: int) -> Network:
    """Cycle where each node splits its weight over its two ring neighbours.

    For n=2 both halves land on the other node: the two point at each other with weight 1.
    """
    if n < 2:
        raise ValueError(f"ring network needs n >= 2, got {n}")
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i - 1) % n] += 0.5
        W[i, (i + 1) % n] += 0.5
    return Network(W)


def grid_network(rows: int, cols: int) -> Network:
    """4-neighbour lattice, rows normalised (corner/edge nodes have fewer neighbours)."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"grid needs at least 2 nodes, got {rows}x{cols}")
    n = rows * cols
    A = np.zeros((n, n))
    for a in range(rows):
        for b in range(cols):
            i = a * cols + b
            for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                na, nb = a + da, b + db
                if 0 <= na < rows and 0 <= nb < cols:
                    A[i, na * cols + nb] = 1.0
    return Network.from_matrix(A, normalise=True)


def random_network(
    n: int,
    edge_probability: float,
    seed: int,
    require_irreducible: bool = True,
) -> Network:
    """Random directed influence network with row-normalised positive weights.

    Each off-diagonal arc appears independently with ``edge_probability`` and
    gets a uniform weight; rows are normalised. Rows that come up empty get a
    self-loop. When ``require_irreducible`` is set, draws whose support is not
    strongly connected are discarded and re-sampled up to ``MAX_RETRIES``
    times.
    """
    if n < 2:
        raise ValueError(f"random network needs n >= 2, got {n}")
    if not 0.0 < edge_probability <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {edge_probability}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        mask = rng.random((n, n)) < edge_probability
        np.fill_diagonal(mask, False)
        W = np.where(mask, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        empty = W.sum(axis=1) == 0.0
        W[empty, empty] = 1.0
        net = Network.from_matrix(W, normalise=True)
        if not require_irreducible or net.is_irreducible:
            return net
    raise ValueError(
        f"no irreducible draw in {MAX_RETRIES} tries "
        f"(n={n}, edge_probability={edge_probability}); raise the probability"
    )


def random_symmetric_network(n: int, edge_probability: float, seed: int) -> Network:
    """Random symmetric irreducible row-stochastic network.

    Row-normalising a symmetric adjacency matrix is not symmetric in general,
    so this uses the lazy-walk construction W = A/d_max + diag(1 - d_i/d_max)
    on a connected undirected graph: symmetric, row-stochastic, same
    connectivity as A, with self-loops on nodes below the maximum degree.
    """
    if n < 2:
        raise ValueError(f"random symmetric network needs n >= 2, got {n}")
    if not 0.0 < edge_probability <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {edge_probability}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        upper = np.triu(rng.random((n, n)) < edge_probability, k=1)
        A = (upper | upper.T).astype(float)
        deg = A.sum(axis=1)
        if (deg == 0.0).any():
            continue
        d_max = deg.max()
        W = A / d_max + np.diag(1.0 - deg / d_max)
        net = Network(W)
        if net.is_irreducible:
            return net
    raise ValueError(
        f"no connected draw in {MAX_RETRIES} tries "
        f"(n={n}, edge_probability={edge_probability}); raise the probability"
    )


def load_network(path: str, format: str = "edge-list", normalise: bool = False) -> Network:
    """Read a network file in one of the ``NETWORK_FORMATS``."""
    from .io import format_entry  # here, so that loading a config compiles io only for a network file
    return format_entry(NETWORK_FORMATS, "network", format)[0](path, normalise)


def save_network(net: Network, path: str, format: str = "dense-csv") -> None:
    """Write a network to disk in a form :func:`load_network` reads back exactly."""
    from .io import atomic_write, format_entry
    atomic_write(path, format_entry(NETWORK_FORMATS, "network", format)[1](net))


def _weight(text: str) -> float:
    w = float(text)
    if not math.isfinite(w):
        raise ValueError(f"non-finite weight {w}")
    return w


def _load_edge_list(path: str, normalise: bool) -> Network:
    entries: list[tuple[int, int, float]] = []
    max_id = 0
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'i j w', got {len(parts)} fields"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = _weight(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if i < 1 or j < 1:
                raise ValueError(f"{path}:{lineno}: node ids are 1-based, got {i}, {j}")
            if w < 0.0:
                raise ValueError(f"{path}:{lineno}: negative weight {w}")
            entries.append((i, j, w))
            max_id = max(max_id, i, j)
    if max_id == 0:
        raise ValueError(f"{path}: no edges found")
    W = np.zeros((max_id, max_id))
    for i, j, w in entries:
        W[i - 1, j - 1] += w
    return Network.from_matrix(W, normalise=normalise)


def _load_dense_csv(path: str, normalise: bool) -> Network:
    rows: list[list[float]] = []
    linenos: list[int] = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([_weight(cell) for cell in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    n = len(rows)
    for row, lineno in zip(rows, linenos):
        if len(row) != n:
            raise ValueError(
                f"{path}:{lineno}: row has {len(row)} entries, expected {n} "
                f"(ragged or non-square matrix)"
            )
    return Network.from_matrix(np.array(rows), normalise=normalise)


def _render_edge_list(net: Network) -> str:
    from .io import format_real
    rows, cols = np.nonzero(net.W)
    return "".join(f"{i + 1} {j + 1} {format_real(net.W[i, j])}\n" for i, j in zip(rows, cols))


def _render_dense_csv(net: Network) -> str:
    from .io import format_real
    return "".join(",".join(format_real(v) for v in row) + "\n" for row in net.W)


#: Network file format name -> (load a file, render to text).
NETWORK_FORMATS = {
    "edge-list": (_load_edge_list, _render_edge_list),
    "dense-csv": (_load_dense_csv, _render_dense_csv),
}
