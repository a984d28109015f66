"""A recorded run's potentials, with the bits of ``dynamics.potential``.

``recorder`` sums them, on one of two sides of a density rule. ``potential``
sums the n-by-n terms ``W/2 * (y_i - y_j)^2`` with ``ndarray.sum``, which
adds 0.0 to numpy's pairwise sum of a contiguous array in row-major order: a
range of more than 128 terms splits in two at half its length rounded down to
a multiple of 8; a range of 8 to 128 terms is eight running sums, one over the
offsets of each residue mod 8, added in pairs, and then its tail past the last
multiple of 8 one term at a time; a shorter range is one running sum. Every
term is >= 0 and a zero-weight term is a zero, whose addition is exact, so the
same tree over the arcs alone gives the same bits, up to the sign of a zero
sum, which a final ``0.0 +`` fixes. With at most ``ARCS_PER_NODE`` arcs per
node (a ring has 2n among n^2 cells) the run sums that tree; on a denser
network, where its Python-built levels cost more than numpy's own sum, each
row updates an n-by-n term buffer and sums it. numpy does not document its
order: the copy was checked bit for bit on numpy 2.4, and ``sparse_plan``
checks it again on the numpy in use against the buffer's sums of
``PROBE_ROWS`` rows of random opinions; if they differ, the run keeps the buffer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

#: The arc sum beats the n-by-n term buffer of a one-player revision where the
#: network has at most this many arcs (self-loops included) per node: timed on
#: round-robin runs, the two broke even at 10-12 arcs per node from n=128 to
#: n=512, where a fixed share of the n^2 cells broke even anywhere from 1 in 11
#: to 1 in 45. The rule keeps rings, grids and sparse random networks on the
#: arc sum and complete networks from n=12 on the buffer.
ARCS_PER_NODE = 10
#: Probe rows that a plan must sum to numpy's bits. One row of random opinions
#: told a shuffled order of the same tree from numpy's in only 18-54 of 100
#: shuffles (rings n=64 and 192, grid 8x8, 5% random n=192); 16 rows told all.
PROBE_ROWS = 16
#: Cells of the node-by-row array per chunk of rows: as many as a block's opinion
#: array holds from n=64 on. Chunks four times larger ran at about the same speed
#: but raised the peak RSS of a long recorded ring run by about 2 MiB in most
#: runs: glibc's dynamic mmap and trim thresholds follow the largest block freed,
#: so larger temporaries leave more of the heap resident.
CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class Plan:
    """The pruned add tree of one network.

    Term k is ``half_w[k] * (y[src[k]] - y[dst[k]])^2``. Node values live in
    ``size`` slots, the terms first; each level ``(a, b, lo, hi)`` sets slots
    ``lo:hi`` to slots ``a`` plus slots ``b``, and ``root`` is the slot of the
    sum (None without arcs).
    """

    src: np.ndarray
    dst: np.ndarray
    half_w: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, int, int], ...]
    root: int | None
    size: int


def build(W: np.ndarray) -> Plan:
    """The add tree of ``(W/2 * (y_i - y_j)^2).sum()`` with its zero-weight terms pruned.

    A node's level is one more than its deeper child's, so each level is one
    array add over nodes whose children are already summed.
    """
    n = W.shape[0]
    flat = np.flatnonzero(W)
    src, dst = np.divmod(flat, n)
    pos = flat.tolist()
    arcs = len(pos)
    depth = [0] * arcs
    children: list[tuple[int, int]] = []
    by_depth: list[list[int]] = []  # the nodes of depth 1, 2, ...

    def add(a, b):
        if a is None or b is None:
            return b if a is None else a
        node, d = len(depth), max(depth[a], depth[b]) + 1
        depth.append(d)
        children.append((a, b))
        if d > len(by_depth):
            by_depth.append([])
        by_depth[d - 1].append(node)
        return node

    def running(acc, ks):
        for k in ks:
            acc = add(acc, k)
        return acc

    def tree(lo: int, size: int, k0: int, k1: int):
        # terms k0..k1-1 are the arcs at flat positions lo..lo+size-1
        if k0 == k1 or size < 8:
            return running(None, range(k0, k1))
        if size <= 128:
            kt = bisect_left(pos, lo + size - size % 8, k0, k1)
            r = [None] * 8
            for k in range(k0, kt):
                j = (pos[k] - lo) % 8
                r[j] = add(r[j], k)
            body = add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])))
            return running(body, range(kt, k1))
        half = size // 2 - size // 2 % 8
        km = bisect_left(pos, lo + half, k0, k1)
        return add(tree(lo, half, k0, km), tree(lo + half, size - half, km, k1))

    root = tree(0, n * n, 0, arcs)
    # slots: the terms, then the nodes level by level; a node's children are
    # of lower depth, so their slots are set before its own level's
    slot = list(range(arcs)) + [0] * len(children)
    levels = []
    lo = arcs
    for nodes in by_depth:
        for s, node in enumerate(nodes, lo):
            slot[node] = s
        a, b = (np.array([slot[c] for c in side], dtype=np.intp) for side in zip(*(children[v - arcs] for v in nodes)))
        levels.append((a, b, lo, lo + len(nodes)))
        lo += len(nodes)
    return Plan(src, dst, W.ravel()[flat] / 2.0, tuple(levels), None if root is None else slot[root], len(depth))


def sparse_plan(W: np.ndarray) -> Plan | None:
    """The plan of ``W`` where it pays, at most ``ARCS_PER_NODE * n`` arcs, and
    holds, summing ``PROBE_ROWS`` rows of random opinions to the buffer's bits."""
    n = W.shape[0]
    if np.count_nonzero(W) > ARCS_PER_NODE * n:
        return None
    plan = build(W)
    Y = np.random.default_rng(0).random((PROBE_ROWS, n))
    half_w, terms = W / 2.0, np.empty((n, n))
    numpy_sums = [_term_sum(y, half_w, terms) for y in Y]
    probe = _spreads(Y, plan, np.empty((plan.size, PROBE_ROWS)))
    return plan if np.equal(probe, numpy_sums).all() else None


def recorder(params: ModelParams, W: np.ndarray):
    """The evaluator ``f(Y, keys)`` of the potentials of a recorded run's block ``Y``,
    where ``keys[t]`` revised the row before into row t (``()`` for the first row):
    over the arcs where ``sparse_plan`` gives a plan, else through a term buffer."""
    plan = sparse_plan(W)
    if plan is not None:
        return lambda Y, keys: potentials(Y, plan, params)
    half_w, buf = W / 2.0, np.empty(W.shape)
    return lambda Y, keys: _buffer_potentials(Y, keys, params, half_w, buf)


def _term_sum(y: np.ndarray, half_w: np.ndarray, terms: np.ndarray):
    """``(W/2 * (y_i - y_j)^2).sum()`` of one row as ``potential`` sums it, its terms left in ``terms``."""
    np.subtract(y[:, None], y[None, :], out=terms)
    np.square(terms, out=terms)
    np.multiply(half_w, terms, out=terms)
    return terms.sum()


def _spreads(Y: np.ndarray, plan: Plan, V: np.ndarray):
    """``(W/2 * (y_i - y_j)^2).sum()`` of every row of ``Y``, in the node-by-row slots ``V``."""
    terms = V[: plan.src.size]
    np.subtract(Y.T[plan.src], Y.T[plan.dst], out=terms)
    np.square(terms, out=terms)
    np.multiply(plan.half_w[:, None], terms, out=terms)
    for a, b, lo, hi in plan.levels:
        np.add(V[a], V[b], out=V[lo:hi])
    return 0.0 if plan.root is None else 0.0 + V[plan.root]


def _anchored(spreads, Y: np.ndarray, params: ModelParams) -> np.ndarray:
    """The potentials of the rows of ``Y`` whose terms ``W/2 * (y_i - y_j)^2`` sum to ``spreads``."""
    return -0.5 * (spreads + (params.lam / params.beta * Y**2).sum(axis=1))


def potentials(Y: np.ndarray, plan: Plan, params: ModelParams) -> np.ndarray:
    """The potentials of the rows of ``Y`` through ``plan``, in chunks whose
    node-by-row array holds at most ``CHUNK_CELLS`` cells (one row at least)."""
    rows = max(1, CHUNK_CELLS // max(plan.size, 1))
    V = np.empty((plan.size, min(rows, len(Y))))
    out = np.empty(len(Y))
    for c in range(0, len(Y), rows):
        Yc = Y[c : c + rows]
        out[c : c + len(Yc)] = _anchored(_spreads(Yc, plan, V[:, : len(Yc)]), Yc, params)
    return out


def _buffer_potentials(Y: np.ndarray, keys, params: ModelParams, half_w: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The potentials of the rows of ``Y`` through the n-by-n term buffer ``buf``, carried
    from row to row: one player's revision changes only its row and column of the terms."""
    spreads = np.empty(len(Y))
    for t, (y, key) in enumerate(zip(Y, keys)):
        if len(key) == 1:
            i = key[0]
            buf[i] = half_w[i] * np.square(y[i] - y)
            buf[:, i] = half_w[:, i] * np.square(y - y[i])
            spreads[t] = buf.sum()
        else:
            spreads[t] = _term_sum(y, half_w, buf)
    return _anchored(spreads, Y, params)
