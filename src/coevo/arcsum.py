"""The potential's spread term summed over a network's arcs only, with numpy's bits.

``potential`` sums the n-by-n terms ``W/2 * (y_i - y_j)^2`` with
``ndarray.sum``, which adds 0.0 to numpy's pairwise sum of a contiguous array
in row-major order: a range of more than 128 terms splits in two at half its
length rounded down to a multiple of 8; a range of 8 to 128 terms is eight
running sums, one over the offsets of each residue mod 8, added in pairs, and
then its tail past the last multiple of 8 one term at a time; a shorter range
is one running sum. Every term is >= 0 and a zero-weight term is a zero, whose
addition is exact, so the same tree over the arcs alone gives the same bits,
up to the sign of a zero sum, which a final ``0.0 +`` fixes.

On a sparse network that is far less work: a ring has 2n arcs among n^2
cells. On a dense one the tree's Python-built levels cost more than numpy's
own sum, so ``sparse_plan`` offers it only where the network has at most
``ARCS_PER_NODE`` arcs per node.

numpy does not document this order. The copy was checked bit for bit on
numpy 2.4, and ``sparse_plan`` checks it again on the numpy in use: a plan
whose sums of ``PROBE_ROWS`` rows of random opinions differ from numpy's own
is not used, and the run keeps the n-by-n term buffer, whose sum is numpy's.
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
    """The plan of ``W`` where it pays and holds, else None.

    It pays where ``W`` has at most ``ARCS_PER_NODE * n`` arcs. It holds
    where it sums ``PROBE_ROWS`` rows of random opinions to the bits of numpy's
    own ``(W/2 * (y_i - y_j)^2).sum()``.
    """
    n = W.shape[0]
    if np.count_nonzero(W) > ARCS_PER_NODE * n:
        return None
    plan = build(W)
    half_w = W / 2
    Y = np.random.default_rng(0).random((PROBE_ROWS, n))
    terms = np.empty((n, n))
    numpy_sums = []
    for y in Y:
        np.subtract(y[:, None], y[None, :], out=terms)
        np.square(terms, out=terms)
        np.multiply(half_w, terms, out=terms)
        numpy_sums.append(terms.sum())
    probe = _spreads(Y, plan, np.empty((plan.size, PROBE_ROWS)))
    return plan if np.all(probe == numpy_sums) else None


def _spreads(Y: np.ndarray, plan: Plan, V: np.ndarray):
    """``(W/2 * (y_i - y_j)^2).sum()`` of every row of ``Y``, in the node-by-row slots ``V``."""
    terms = V[: plan.src.size]
    np.subtract(Y.T[plan.src], Y.T[plan.dst], out=terms)
    np.square(terms, out=terms)
    np.multiply(plan.half_w[:, None], terms, out=terms)
    for a, b, lo, hi in plan.levels:
        np.add(V[a], V[b], out=V[lo:hi])
    return 0.0 if plan.root is None else 0.0 + V[plan.root]


def potentials(Y: np.ndarray, plan: Plan, params: ModelParams) -> np.ndarray:
    """``dynamics.potential`` of every row of ``Y``, bit for bit, through ``plan``.

    Rows go in chunks whose node-by-row array holds at most ``CHUNK_CELLS``
    cells (one row at least), so memory does not grow with the number of rows.
    """
    anchor_w = params.lam / params.beta
    rows = max(1, CHUNK_CELLS // max(plan.size, 1))
    V = np.empty((plan.size, min(rows, len(Y))))
    out = np.empty(len(Y))
    for c in range(0, len(Y), rows):
        Yc = Y[c : c + rows]
        out[c : c + len(Yc)] = -0.5 * (_spreads(Yc, plan, V[:, : len(Yc)]) + (anchor_w * Yc**2).sum(axis=1))
    return out
