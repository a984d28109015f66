"""Exact rational reference for the revision kernel, the tie rule and the
consensus conditions.

Every quantity is a ``fractions.Fraction``, so a discriminant has an exact
sign and an exact zero is a true tie. The float code is then judged against
the exact decision wherever the exact discriminant clears 1e-9, far outside
the rounding of its inputs, and wherever it is exactly zero, where the tie
rule must send the player to defection.

An ``Exact`` instance holds the intended rationals; ``floats()`` rounds them
into the ``ModelParams`` and ``Network`` that the float code receives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from coevo.model import ModelParams, Network

#: Exact discriminants with 0 < |delta| <= this are too close to call for
#: float inputs; the oracle decides only outside that band and at exact zero.
DECIDABLE = Fraction(1, 10**9)


@dataclass(frozen=True)
class Exact:
    """A game in exact rationals: ``W`` rows, per-player weights and ``r``."""

    r: Fraction
    W: tuple[tuple[Fraction, ...], ...]
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    prejudice: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.alpha)

    def floats(self) -> tuple[ModelParams, Network]:
        """The nearest float inputs of the same game."""
        vec = lambda v: np.array([float(a) for a in v])
        params = ModelParams(self.n, float(self.r), vec(self.alpha), vec(self.beta), vec(self.lam),
                             vec(self.gamma), vec(self.prejudice))
        return params, Network(np.array([[float(w) for w in row] for row in self.W]))

    def pulled(self, i: int, y) -> Fraction:
        """Player ``i``'s social term ``W[i] @ y``, blended with the prejudice."""
        social = sum(w * v for w, v in zip(self.W[i], y))
        return (1 - self.gamma[i]) * social + self.gamma[i] * self.prejudice[i]

    def discriminant(self, i: int, y) -> Fraction:
        """alpha (r/n - 1) + beta lam / (beta + lam) * (pulled - 1/2)."""
        a, b, l = self.alpha[i], self.beta[i], self.lam[i]
        return a * (self.r / self.n - 1) + b * l / (b + l) * (self.pulled(i, y) - Fraction(1, 2))

    def opinion(self, i: int, action: int, y) -> Fraction:
        """Player ``i``'s optimal opinion for ``action`` against opinions ``y``."""
        b, l = self.beta[i], self.lam[i]
        return (b * self.pulled(i, y) + action * l) / (b + l)

    def consensus_discriminant(self, i: int) -> Fraction:
        """The discriminant at all-cooperation consensus, (lhs - rhs)/2 of the conditions."""
        return self.discriminant(i, (Fraction(1),) * self.n)

    def stationary(self, x) -> list[Fraction]:
        """Opinions solving y_i = (beta_i W[i] @ y + lam_i x_i)/(beta_i + lam_i), by
        Gaussian elimination on (I - diag(phi) W) y = psi x. Zero prejudice only."""
        n = self.n
        rows = []
        for i in range(n):
            d = self.beta[i] + self.lam[i]
            row = [(1 if i == j else 0) - self.beta[i] / d * self.W[i][j] for j in range(n)]
            rows.append(row + [self.lam[i] / d * x[i]])
        for c in range(n):
            p = next(k for k in range(c, n) if rows[k][c] != 0)
            rows[c], rows[p] = rows[p], rows[c]
            for k in range(n):
                if k != c and rows[k][c] != 0:
                    f = rows[k][c] / rows[c][c]
                    rows[k] = [a - f * b for a, b in zip(rows[k], rows[c])]
        return [rows[i][n] / rows[i][i] for i in range(n)]

    def equilibria(self) -> tuple[set, set, bool]:
        """Brute force over all 2^n profiles: the strict equilibria (each action
        the discriminant's sign, ties defect), the boundary ones (a best response
        only because a tie admits cooperation), and whether every discriminant
        met was decidable. Profiles are tuples of 0/1 actions."""
        strict, boundary, decidable = set(), set(), True
        for x in itertools.product((0, 1), repeat=self.n):
            y = self.stationary(x)
            deltas = [self.discriminant(i, y) for i in range(self.n)]
            decidable &= all(d == 0 or abs(d) > DECIDABLE for d in deltas)
            if all(xi == (d > 0) for xi, d in zip(x, deltas)):
                strict.add(x)
            elif all((d >= 0) if xi else (d <= 0) for xi, d in zip(x, deltas)):
                boundary.add(x)
        return strict, boundary, decidable


def decimal_boundary_cells(max_n: int = 12) -> list[tuple[int, float, float, float]]:
    """Every ``(n, r, alpha, beta)`` with n = 2..max_n, r in tenths inside (1, n)
    and alpha, beta, lam = 1 - alpha - beta in tenths inside (0, 1) where the
    conditions' two sides are equal in exact decimals:
    beta lam/(beta + lam) = 2 alpha (1 - r/n)."""
    cells = []
    for n in range(2, max_n + 1):
        for r10, a10, b10 in itertools.product(range(11, 10 * n), range(1, 9), range(1, 9)):
            a, b, r = Fraction(a10, 10), Fraction(b10, 10), Fraction(r10, 10)
            lam = 1 - a - b
            if lam > 0 and b * lam / (b + lam) == 2 * a * (1 - r / n):
                cells.append((n, r10 / 10, a10 / 10, b10 / 10))
    return cells
