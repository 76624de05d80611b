"""Checks of the program's outputs that share no code with its algebra.

The constraint is rebuilt here from the model's ODE coefficient table alone.
On the baseline the operator

    L = (a3 z^3 + a2 z^2 + a1 z) d^2/dz^2 + (b2 z^2 + b1 z + b0) d/dz + (c1 z + c0)

maps polynomials of degree <= n into themselves.  In the monomial basis its
matrix is tridiagonal: column k holds the coefficients of L[z^k] on z^(k+1),
z^k and z^(k-1).  A polynomial solution exists exactly where that matrix is
singular, so its determinant D(x), a polynomial of degree n+1 in the scan
value x, is the constraint.  D is evaluated exactly, in integer
arithmetic, by the three-term expansion of a tridiagonal determinant.

Nothing here imports ``qespectra.recurrence`` or ``qespectra.polynomials``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# A reported root must lie within this share of max(1, |root|) of the exact
# root it stands for.  Roots from the symmetric (Jacobi) route are good to a
# few ulps; those from the comrade route of cosh^2 chains drift up to 1e-7 at
# n = 40 over the benchmark's whole parameter space (README, "Checks").
ROOT_RTOL = 1e-6
# A normalized state must integrate to one within this tolerance.
NORM_TOL = 1e-6
# Finite-difference gates of `qespectra verify`, the same ones its
# acceptance test applies.
GAP_MAX = 1e-3
RESIDUAL_MAX = 1e-4


class CheckFailure(Exception):
    """An output of the program disagrees with the independent reference."""


def _grades(ode, k):
    """Coefficients of L[z^k] on z^(k+1), z^k and z^(k-1)."""
    kk = k * (k - 1)
    return (
        kk * ode.a3 + k * ode.b2 + ode.c1,
        kk * ode.a2 + k * ode.b1 + ode.c0,
        kk * ode.a1 + k * ode.b0,
    )


class Constraint:
    """The exact constraint D(x) of one model instance.

    Construction checks the two facts the certificate below relies on: the
    baseline holds (L[z^n] has no z^(n+1) term) and the scan value enters
    c0 alone, affinely, with a nonzero slope, so that D has degree n+1.
    """

    def __init__(self, model):
        self.n = n = model.n
        odes = [model.ode_coefficients(Fraction(x)) for x in (0, 1, 2)]
        for name in ("a3", "a2", "a1", "b2", "b1", "b0", "c1"):
            if len({Fraction(getattr(o, name)) for o in odes}) != 1:
                raise CheckFailure(f"ODE coefficient {name} depends on the scan value")
        c0 = [Fraction(o.c0) for o in odes]
        self.slope = c0[1] - c0[0]
        if self.slope == 0 or c0[2] - c0[1] != self.slope:
            raise CheckFailure("c0 is not affine in the scan value with nonzero slope")
        grades = [[Fraction(v) for v in _grades(odes[0], k)] for k in range(n + 1)]
        if grades[n][0] != 0:
            raise CheckFailure("the baseline condition F+1(n) = 0 does not hold")
        # Diagonal at x = 0, and the product of the two off-diagonal entries
        # that couple row k to row k-1.
        self.diag = [g[1] for g in grades]
        self.couple = [Fraction(0)] + [grades[k][2] * grades[k - 1][0] for k in range(1, n + 1)]
        # Integer images: scaling every diagonal entry by s and every
        # coupling by s^2 scales D by s^(n+1) > 0, which keeps its sign.
        scale = math.lcm(*(v.denominator for v in self.diag + self.couple + [self.slope]))
        self._scale = scale
        self._diag = [int(v * scale) for v in self.diag]
        self._slope = int(self.slope * scale)
        self._couple = [int(v * scale * scale) for v in self.couple]

    def _scaled(self, x):
        """D(p/q) * (scale * q)^(n+1), in integers."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        shift = self._slope * p
        qq = q * q
        prev, cur = 1, self._diag[0] * q + shift
        for k in range(1, self.n + 1):
            prev, cur = cur, (self._diag[k] * q + shift) * cur - self._couple[k] * qq * prev
        return cur, self._scale * q

    def __call__(self, x):
        """D(x), exactly, for a rational (or float, taken exactly) x."""
        value, unit = self._scaled(x)
        return Fraction(value, unit ** (self.n + 1))

    def sign(self, x):
        value = self._scaled(x)[0]
        return (value > 0) - (value < 0)

    def jet(self, x):
        """D(x) with its first two derivatives, exactly.

        Only the diagonal depends on x, with slope ``self.slope``; the
        derivatives follow the determinant expansion term by term.
        """
        x = Fraction(x)
        s = self.slope
        p0, p1, p2 = Fraction(1), Fraction(0), Fraction(0)
        c0, c1, c2 = self.diag[0] + s * x, s, Fraction(0)
        for k in range(1, self.n + 1):
            diag, couple = self.diag[k] + s * x, self.couple[k]
            p0, p1, p2, c0, c1, c2 = (
                c0, c1, c2,
                diag * c0 - couple * p0,
                s * c0 + diag * c1 - couple * p1,
                2 * s * c1 + diag * c2 - couple * p2,
            )
        return c0, c1, c2

    def separator(self, lo, hi, want):
        """A point strictly inside (lo, hi) where D has the sign ``want``.

        Tries the midpoint, then runs exact Newton on D' from it: between two
        close roots D has one extremum, and D takes the wanted sign there.
        Returns None when no such point is found.
        """
        x = (lo + hi) / 2
        if self.sign(x) == want:
            return x
        for _ in range(_SEPARATOR_STEPS):
            _, slope, curve = self.jet(x)
            if curve == 0:
                return None
            x -= slope / curve
            x = Fraction(round(x * _SEPARATOR_GRAIN), _SEPARATOR_GRAIN)
            if not lo < x < hi:
                return None
            if self.sign(x) == want:
                return x
        return None


# Exact Newton for a separating point: step count and rounding grain (the
# iterate is kept on a grid of 2**-400, far below any split seen in the
# catalog's doublets).
_SEPARATOR_STEPS = 40
_SEPARATOR_GRAIN = 1 << 400


def check_roots(constraint, roots, rtol=ROOT_RTOL):
    """Certify that ``roots`` match all n+1 roots of D, in ascending order.

    Each reported root r gets the tolerance w = rtol * max(1, |r|).
    Roots whose tolerance intervals touch form one cluster (a doublet split
    below the tolerance is one).  For a cluster of m roots on [a, b], D must
    change sign m times: from a to a separating point between each pair of
    neighbours and on to b.  The clusters are disjoint, so this shows at
    least n+1 roots, and as D has degree n+1 it shows that each cluster holds
    exactly as many true roots as reported ones, each within the cluster.
    The reported roots must also be distinct: a repeated root is the same
    state twice, not two states.
    """
    n = constraint.n
    rs = [float(r) for r in roots]
    if len(rs) != n + 1:
        raise CheckFailure(f"expected {n + 1} roots, got {len(rs)}")
    if not all(math.isfinite(r) for r in rs):
        raise CheckFailure("a reported root is not finite")
    for a, b in zip(rs, rs[1:]):
        if not b > a:
            raise CheckFailure(f"roots are not strictly increasing: {a!r}, {b!r}")
    exact = [Fraction(r) for r in rs]
    width = [Fraction(rtol) * max(1, abs(r)) for r in exact]
    i = 0
    while i <= n:
        j = i
        while j < n and exact[j + 1] - exact[j] <= width[j] + width[j + 1]:
            j += 1
        want = constraint.sign(exact[i] - width[i])
        if want == 0:
            raise CheckFailure(f"root {i} ({rs[i]!r}) sits on a tolerance edge")
        for k in range(i, j):
            want = -want
            if constraint.separator(exact[k], exact[k + 1], want) is None:
                raise CheckFailure(
                    f"roots {k} and {k + 1} ({rs[k]!r}, {rs[k + 1]!r}) "
                    "are not separated by a sign change of the constraint"
                )
        if constraint.sign(exact[j] + width[j]) != -want:
            raise CheckFailure(
                f"root {j} ({rs[j]!r}) brackets no root of the constraint"
            )
        i = j + 1


def check_state(grid):
    """A sampled state is finite, nonzero and normalized."""
    psi = np.asarray(grid.psi, dtype=float)
    xs = np.asarray(grid.xs, dtype=float)
    if not (math.isfinite(grid.norm) and grid.norm > 0):
        raise CheckFailure(f"state norm is {grid.norm!r}")
    if not np.all(np.isfinite(psi)) or float(np.max(np.abs(psi))) == 0.0:
        raise CheckFailure("state is not finite or is identically zero")
    total = float(np.trapezoid(psi * psi, xs))
    if abs(total - 1.0) > NORM_TOL:
        raise CheckFailure(f"state is not normalized: integral of psi^2 is {total!r}")


def check_node_ladder(node_counts):
    """Node counts of the normalizable states, in scan order, move strictly one way.

    Along the scan either the energy rises in a fixed potential, or the
    energy is fixed and the potential deepens or flattens one way; by the
    oscillation and Sturm comparison theorems the node count then rises (or
    falls) strictly from state to state.  Repeated counts are the same
    state twice; a count out of order is a noise state.
    """
    counts = list(node_counts)
    steps = [b - a for a, b in zip(counts, counts[1:])]
    if not (all(d > 0 for d in steps) or all(d < 0 for d in steps)):
        raise CheckFailure(f"node counts do not move strictly one way along the scan: {counts}")


def check_verify_row(row):
    """The finite-difference gates of one `qespectra verify` row."""
    report = row["verification"]
    if not report["abs_gap"] < GAP_MAX:
        raise CheckFailure(f"abs_gap {report['abs_gap']!r} >= {GAP_MAX}")
    if not report["residual"] < RESIDUAL_MAX:
        raise CheckFailure(f"residual {report['residual']!r} >= {RESIDUAL_MAX}")
    if report["converged"] is not True:
        raise CheckFailure("finite-difference gap did not converge")
