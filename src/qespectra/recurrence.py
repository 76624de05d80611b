"""Gradation slicing of the canonical ODE into a three-term recurrence.

A second-order ODE of the shape

    (a3 z^3 + a2 z^2 + a1 z) phi'' + (b2 z^2 + b1 z + b0) phi' + (c1 z + c0) phi = 0

acts on the monomial z^k by shifting its degree by at most one.  Collecting
the action by that shift ("grade") gives three quadratic-in-k multiplicator
functions:

    F_{+1}(k) = k (k-1) a3 + k b2 + c1
    F_{ 0}(k) = k (k-1) a2 + k b1 + c0
    F_{-1}(k) = k (k-1) a1 + k b0

A degree-n polynomial solution ``sum_k P[n,k] z^(n-k)`` exists when
``F_{+1}(n) = 0`` (the baseline condition, which pins one model parameter)
and the coefficients satisfy the descending three-term recurrence coded in
:func:`exact_chain`.  The leftover relation that cannot be absorbed — the
grade-(-1) action on the constant term — is the *constraint polynomial* in
the one remaining free (scan) parameter; its roots select the solvable
members of the family.

The ODE coefficient table of each model is the only description of its
recurrence: :func:`build_baseline` reads the quadratic multiplicator tables
off it, as exact rationals, so there is one chain and it is exact.
:func:`solve` runs the whole pipeline for one model: baseline, chain,
canonical form and roots.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import polynomials
from .errors import DivisionByZeroMultiplicator, NotARoot
from .polynomials import (
    eval_image,
    integer_image,
    poly_add,
    poly_deriv,
    poly_eval_mag,
    poly_mul,
    poly_mul_linear,
    poly_scale,
)

# Backward-error threshold for "this scan value annihilates the constraint".
_ROOT_BWD_TOL = 1e-8


@dataclass(frozen=True)
class OdeCoefficients:
    """Coefficients of the canonical ODE at one fixed scan value."""

    a3: object
    a2: object
    a1: object
    b2: object
    b1: object
    b0: object
    c1: object
    c0: object


def multiplicator_values(ode, k):
    """Grade (+1, 0, -1) multiplicators read directly off ODE coefficients.

    This is the definition; :func:`build_baseline` regroups it into the
    quadratic tables the recurrence runs on, and the tests check the two
    against each other.
    """
    kk = k * (k - 1)
    f1 = kk * ode.a3 + k * ode.b2 + ode.c1
    f0 = kk * ode.a2 + k * ode.b1 + ode.c0
    fm1 = kk * ode.a1 + k * ode.b0
    return f1, f0, fm1


@dataclass(frozen=True)
class SliceMultiplicators:
    """Slice multiplicators of one model on its baseline.

    Each grade is stored as quadratic coefficients ``(q2, q1, q0)`` in the
    slice index ``k``; the grade-0 function additionally carries the scan
    variable linearly with slope ``sigma0``:

        F0(k; x) = q2 k^2 + q1 k + q0 + sigma0 * x
    """

    lead: tuple
    mid: tuple
    trail: tuple
    sigma0: object

    @staticmethod
    def _quad(coeffs, k):
        q2, q1, q0 = coeffs
        return (q2 * k * k + q1 * k) + q0

    def f1(self, k):
        return self._quad(self.lead, k)

    def f0_const(self, k):
        return self._quad(self.mid, k)

    def f0(self, k, x):
        return self._quad(self.mid, k) + self.sigma0 * x

    def fm1(self, k):
        return self._quad(self.trail, k)


@dataclass(frozen=True)
class BaselineSystem:
    """A model pinned to its baseline: everything the recurrence needs.

    ``mult`` is tabulated in the model's own variable z; the exact chain
    runs on it.  ``recentred`` holds ``(r, multiplicators)`` for every
    other candidate centre r, tabulated on the table shifted to z = r + w
    (:func:`recentre`); root finding may run on one of them instead.
    """

    n: int
    mult: SliceMultiplicators
    scan_variable: str
    baseline_name: str
    baseline_value: object
    recentred: tuple = ()


def recentre(ode, r):
    """The ODE table after the exact shift z = r + w, as a table in w.

    ``r`` must be 0 or a root of a3 z^2 + a2 z + a1, so that the shifted
    leading coefficient keeps no constant term and the ODE keeps its graded
    shape.  The shift maps polynomial solutions of degree n onto polynomial
    solutions of degree n, so the shifted chain ends in a constraint with
    the same roots; only its off-diagonal products change, and with them
    whether the chain is a Jacobi (all-positive) chain.
    """
    if r * ((ode.a3 * r + ode.a2) * r + ode.a1) != 0:
        raise ValueError(f"z = {r} is not a zero of the leading ODE coefficient")
    return OdeCoefficients(
        a3=ode.a3,
        a2=ode.a2 + 3 * ode.a3 * r,
        a1=3 * ode.a3 * r * r + 2 * ode.a2 * r + ode.a1,
        b2=ode.b2,
        b1=2 * ode.b2 * r + ode.b1,
        b0=ode.b2 * r * r + ode.b1 * r + ode.b0,
        c1=ode.c1,
        c0=ode.c1 * r + ode.c0,
    )


def candidate_centres(ode):
    """The nonzero rational roots of a3 z^2 + a2 z + a1, ascending.

    These, after the model's own centre 0, are the centres at which the
    chain can be read off a shifted table (:func:`recentre`).  The
    coefficients must be exact: a float table converted exactly has a
    rational root only where no rounding broke it.
    """
    a3, a2, a1 = ode.a3, ode.a2, ode.a1
    if a3 == 0:
        roots = [-a1 / a2] if a2 else []
    else:
        disc = a2 * a2 - 4 * a3 * a1
        s = Fraction(math.isqrt(max(disc.numerator, 0)), math.isqrt(disc.denominator))
        # rational roots only where the discriminant is a rational square
        roots = [(-a2 + t) / (2 * a3) for t in (-s, s)] if s * s == disc else []
    return sorted({r for r in roots if r != 0})


def _slice_multiplicators(ode, sigma0, n):
    """Quadratic multiplicator tables of an exact table at scan value 0."""
    lead_q1 = ode.b2 - ode.a3
    return SliceMultiplicators(
        lead=(ode.a3, lead_q1, -(ode.a3 * n * n + lead_q1 * n)),
        mid=(ode.a2, ode.b1 - ode.a2, ode.c0),
        trail=(ode.a1, ode.b0 - ode.a1, Fraction(0)),
        sigma0=sigma0,
    )


def build_baseline(model):
    """Assemble the baseline recurrence data for a model instance.

    The slice multiplicators are read off the model's ODE coefficient table
    by regrouping the definition (:func:`multiplicator_values`) as
    quadratics in k:

        F1(k)     = a3 k^2 + (b2 - a3) k + c1
        F0(k; x)  = a2 k^2 + (b1 - a2) k + c0(x)
        Fm1(k)    = a1 k^2 + (b0 - a1) k

    The scan variable enters the table only through c0, affinely, so the
    table at scan values 0 and 1 fixes both c0(0) and the slope sigma0.
    The baseline condition F1(n) = 0 is what pins ``c1``; the constant term
    of F1 is therefore written as -(q2 n^2 + q1 n), which makes the zero
    hold by construction.  Every entry is converted to :class:`Fraction`
    (exactly, floats included), so the chain built on the table is exact.

    The same tables are also read off the table shifted to each of
    :func:`candidate_centres`; the shift leaves F1 and sigma0 as they are.
    """
    name, value = model.baseline()
    at0 = OdeCoefficients(*map(Fraction, astuple(model.ode_coefficients(0))))
    sigma0 = Fraction(model.ode_coefficients(1).c0) - at0.c0
    n = model.n
    return BaselineSystem(
        n=n,
        mult=_slice_multiplicators(at0, sigma0, n),
        scan_variable=model.scan_name,
        baseline_name=name,
        baseline_value=value,
        recentred=tuple(
            (r, _slice_multiplicators(recentre(at0, r), sigma0, n))
            for r in candidate_centres(at0)
        ),
    )


@dataclass(frozen=True)
class ConstraintChain:
    """Chain of coefficient polynomials in the scan variable.

    ``members[k]`` holds P[n, k] (ascending exact coefficients); the
    terminal ``constraint`` polynomial has degree n+1 and its roots are the
    admissible scan values.

    The images :func:`assemble_solution` evaluates are built on first use
    and kept on the chain, so they live exactly as long as the cached chain
    does.
    """

    n: int
    members: tuple
    constraint: tuple

    @cached_property
    def member_images(self):
        """Integer image (:func:`~qespectra.polynomials.integer_image`) of each member."""
        return tuple(integer_image(m) for m in self.members)

    @cached_property
    def constraint_image(self):
        """Integer image of the constraint."""
        return integer_image(self.constraint)

    @cached_property
    def slope_image(self):
        """Integer image of the constraint's derivative."""
        return integer_image(poly_deriv(self.constraint))

    @cached_property
    def constraint_float(self):
        """Float coefficients of the constraint.

        Raises:
            OverflowError: a coefficient lies beyond the float range.
        """
        return tuple(float(c) for c in self.constraint)


@lru_cache(maxsize=64)
def exact_chain(system):
    """Run the descending three-term recurrence and extract the constraint.

    Starting from P[n,0] = 1, each slice k = 1..n resolves

        P[n,k] = -( F0(n+1-k; x) P[n,k-1] + Fm1(n+2-k) P[n,k-2] ) / F1(n-k)

    as a polynomial in the scan variable x.  The relation the chain cannot
    absorb — the grade-(-1) remnant of the last two members — is the
    constraint polynomial

        P(x) = Fm1(1) P[n,n-1] + F0(0; x) P[n,n].

    The multiplicators of :func:`build_baseline` are exact rationals, so
    every member and the constraint carry exact coefficients.  Cached per
    baseline system; treat the result as read-only.

    Raises:
        DivisionByZeroMultiplicator: F1 vanishes before the last slice.
    """
    mult = system.mult
    n = system.n
    sigma = mult.sigma0
    prev, cur = [], [1]
    members = [tuple(cur)]
    for k in range(1, n + 1):
        f1 = mult.f1(n - k)
        if f1 == 0:
            raise DivisionByZeroMultiplicator(
                f"leading multiplicator vanishes at slice {n - k}; "
                "the recurrence cannot be continued"
            )
        new = poly_add(
            poly_scale(prev, -mult.fm1(n + 2 - k) / f1),
            poly_mul_linear(cur, -mult.f0_const(n + 1 - k) / f1, -sigma / f1),
        )
        prev, cur = cur, new
        members.append(tuple(cur))

    constraint = poly_add(
        poly_scale(prev, mult.fm1(1)),
        poly_mul_linear(cur, mult.f0_const(0), sigma),
    )
    return ConstraintChain(n=n, members=tuple(members), constraint=tuple(constraint))


def run_ttrr(system):
    """The coefficient chain of a baseline system (the cached exact chain)."""
    return exact_chain(system)


# Exact Newton polish: stop once the step is below scale / 10**32.
_POLISH_STEPS = 6
_POLISH_GRAIN = 1 << 200


def assemble_solution(chain, root):
    """Monic polynomial solution S(z) at one root of the constraint.

    Returns ascending exact coefficients ``S[j]`` of ``S(z) = sum_j S[j]
    z^j`` with ``S[n] = 1``: the member P[n, n-j] evaluated at the root
    supplies the coefficient of ``z^j``.

    The coefficients are violently sensitive to the root position:
    constraint slopes reach ~1e12 while the solution needs the root to
    ~1e-30, far beyond float resolution, and assembling at a merely
    float-accurate root yields a polynomial whose ODE defect is comparable
    to the solution itself.  So ``root`` is first Newton-polished on the
    exact constraint (quadratic convergence: two steps from a
    float-accurate start), and the members are evaluated at the polished
    rational root.

    Every evaluation runs on the chain's integer images
    (:func:`~qespectra.polynomials.eval_image`): plain-integer Horner and
    one Fraction per value, the very rational Fraction Horner gives.  The
    n+1 member values are O(n^2) big-integer products whose operands grow
    to ~200 n bits, so the cost grows about as n^3: per root on one Xeon
    core, ~1.5 ms at n = 20, 5-9 ms at n = 40, 30-60 ms at n = 80.

    Raises:
        NotARoot: ``root`` does not identify a constraint root: it drifts
            under polish, or the backward error of the constraint at the
            polished root is too large for it to count as a zero.
    """
    x = Fraction(root)
    scale = max(Fraction(1), abs(x))
    moved = Fraction(0)
    for _ in range(_POLISH_STEPS):
        value = eval_image(chain.constraint_image, x)
        if value == 0:
            break
        slope = eval_image(chain.slope_image, x)
        if slope == 0:
            break
        step = value / slope
        x -= step
        # Newton squares the iterate's bit length each pass; unchecked, the
        # rational blows up to megabit denominators.  Rounding to a fixed
        # 200 fractional bits (~60 digits) keeps every evaluation cheap while
        # staying far inside the 1e-32 stopping tolerance.
        x = Fraction(round(x * _POLISH_GRAIN), _POLISH_GRAIN)
        moved += abs(step)
        if abs(step) <= scale / 10**32:
            break
    if moved > scale / 10**6:
        raise NotARoot(
            f"scan value {float(root):.6g} drifted by {float(moved):.3g} "
            "under exact Newton polish; it does not identify a root"
        )
    value, mag = poly_eval_mag(chain.constraint_float, float(x))
    # mag bounds |value| from above, so mag == 0 forces value == 0: an exact
    # root of a constraint whose terms all vanish at this point (e.g. the
    # n = 0 chain evaluated at scan value 0).  Only a genuinely nonzero
    # residual relative to the term magnitude disqualifies the root.
    if abs(value) > _ROOT_BWD_TOL * mag:
        raise NotARoot(
            f"constraint backward error {abs(value):.3g} / {mag:.3g} "
            f"at scan value {float(x):.6g}"
        )
    return [eval_image(chain.member_images[chain.n - j], x) for j in range(chain.n + 1)]


def exact_solution(system, root):
    """Assemble S(z) at a constraint root of a baseline system.

    The solution on the system's exact chain; see :func:`assemble_solution`.
    """
    return assemble_solution(exact_chain(system), root)


def solve(model):
    """Baseline, exact chain, canonical form and real roots of one model.

    Returns ``(system, chain, ttrr, roots)``.  Each stage is called through
    its module attribute, so a wrapper put on one (a tracer) sees the call.
    """
    system = build_baseline(model)
    chain = run_ttrr(system)
    ttrr = polynomials.to_canonical_ttrr(system)
    return system, chain, ttrr, polynomials.real_roots(ttrr)


def _max_abs(coeffs):
    return max((abs(float(c)) for c in coeffs), default=0.0)


def relative_ode_residual(ode, solution):
    """Max residual coefficient over the size of the largest contribution.

    The scale is floored at (largest ODE coefficient) * (largest solution
    coefficient): for a constant solution every derivative term vanishes and
    the one surviving product is the defect itself, which would otherwise
    make a perfectly solved equation read as relative residual 1.
    """
    a = [0, ode.a1, ode.a2, ode.a3]
    b = [ode.b0, ode.b1, ode.b2]
    c = [ode.c0, ode.c1]
    d1 = poly_deriv(solution)
    d2 = poly_deriv(d1)
    terms = [poly_mul(a, d2), poly_mul(b, d1), poly_mul(c, list(solution))]
    scale = max(_max_abs(t) for t in terms)
    scale = max(scale, _max_abs(a + b + c) * _max_abs(list(solution)))
    res = poly_add(poly_add(terms[0], terms[1]), terms[2])
    if scale == 0.0:
        return 0.0
    return _max_abs(res) / scale
