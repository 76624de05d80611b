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
recurrence: :func:`build_baseline` pins it to the baseline, as exact
rationals, and the multiplicators are read straight off it
(:meth:`OdeCoefficients.multiplicators`), so there is one chain and it is
exact.
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
from .polynomials import image_horner, image_value, poly_add, poly_mul_linear, poly_scale


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

    def multiplicators(self, k):
        """Grade (+1, 0, -1) multiplicators on z^k: ``(F1, F0, Fm1)``."""
        kk = k * (k - 1)
        f1 = kk * self.a3 + k * self.b2 + self.c1
        f0 = kk * self.a2 + k * self.b1 + self.c0
        fm1 = kk * self.a1 + k * self.b0
        return f1, f0, fm1


@dataclass(frozen=True)
class BaselineSystem:
    """A model pinned to its baseline: everything the recurrence needs.

    ``centres`` holds ``(r, table)`` for the model's own centre r = 0 and
    then for every other candidate centre: the exact ODE table at scan
    value 0, shifted to z = r + w (:func:`recentre`).  The exact chain runs
    on the first; root finding may run on any of them.  The scan variable
    enters each table only through c0, with slope ``sigma0``.
    """

    n: int
    sigma0: Fraction
    centres: tuple


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


def gauge(ode, mu):
    """The ODE table for S after the gauge phi = z^mu S, as a table in z.

    Divided by z^mu, the ODE keeps one term outside the graded shape,
    (mu b0 + mu (mu - 1) a1) S / z, which ``mu`` must make vanish.
    """
    left = mu * ode.b0 + mu * (mu - 1) * ode.a1
    if left != 0:
        raise ValueError(f"the gauge z^{mu} leaves a 1/z term of {left} in the ODE")
    return OdeCoefficients(
        a3=ode.a3,
        a2=ode.a2,
        a1=ode.a1,
        b2=ode.b2 + 2 * mu * ode.a3,
        b1=ode.b1 + 2 * mu * ode.a2,
        b0=ode.b0 + 2 * mu * ode.a1,
        c1=ode.c1 + mu * ode.b2 + mu * (mu - 1) * ode.a3,
        c0=ode.c0 + mu * ode.b1 + mu * (mu - 1) * ode.a2,
    )


def candidate_centres(ode):
    """The nonzero rational roots of a3 z^2 + a2 z + a1, ascending.

    These, after the model's own centre 0, are the centres at which the
    chain can be read off a shifted table (:func:`recentre`).  The
    coefficients must be exact rationals.
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


def build_baseline(model):
    """Assemble the baseline recurrence data for a model instance.

    The model's table at scan value 0 is exact; made :class:`Fraction`
    entry by entry, it carries an exact chain.  It satisfies F1(n) = 0
    identically, and so does its shift to each centre (0 and
    :func:`candidate_centres`), since :func:`recentre` keeps a3, b2 and c1.
    The scan variable enters the table only through c0, affinely, so the
    table at scan value 1 fixes the slope sigma0.
    """
    at0 = OdeCoefficients(*map(Fraction, astuple(model.ode_coefficients(0))))
    sigma0 = Fraction(model.ode_coefficients(1).c0) - at0.c0
    centres = tuple(
        (r, recentre(at0, r)) for r in (Fraction(0), *candidate_centres(at0))
    )
    return BaselineSystem(n=model.n, sigma0=sigma0, centres=centres)


@dataclass(frozen=True)
class ConstraintChain:
    """Chain of coefficient polynomials in the scan variable, in integers.

    ``steps[k-1]`` holds the integers ``(alpha, beta, gamma, delta)`` of
    slice k: P[n,k] = ((alpha + beta x) P[n,k-1] + gamma P[n,k-2]) / delta,
    with P[n,-1] = 0 and P[n,0] = 1.  ``last_member_image`` is the integer
    image ``(nums, den)`` of the last member P[n,n] (ascending numerators
    over one denominator, not reduced), and ``constraint_image`` the
    reduced image of the terminal constraint polynomial, of degree n+1,
    whose roots are the admissible scan values.

    The flag below is built on first use and kept on the chain, so it
    lives exactly as long as the cached chain does.
    """

    n: int
    steps: tuple
    last_member_image: tuple
    constraint_image: tuple

    @cached_property
    def p_nn_zero_flag(self):
        """True when the last member P[n,n] shares a zero with the constraint.

        The z^0 coefficient of the assembled solution is that member's value
        at the root, so a shared zero means the solution loses its constant
        term there.  No float magnitude test can tell: on deep chains the
        member's value at the largest roots sits legitimately tens of orders
        below its Horner term scale without vanishing.  Both polynomials are
        exact, so they share a zero iff their exact gcd is non-constant; the
        gcd is monic, so the numerators of the images serve.
        """
        constraint, member = self.constraint_image[0], self.last_member_image[0]
        return len(polynomials.exact_gcd(constraint, member)) != 1


def _over_common_denominator(*ratios):
    """``(c_1 d, ..., c_m d, d)`` for rationals c_i and their least common denominator d."""
    d = math.lcm(*(c.denominator for c in ratios))
    return (*(c.numerator * (d // c.denominator) for c in ratios), d)


@lru_cache(maxsize=64)
def exact_chain(system):
    """Run the descending three-term recurrence and extract the constraint.

    Starting from P[n,0] = 1, each slice k = 1..n resolves

        P[n,k] = -( F0(n+1-k; x) P[n,k-1] + Fm1(n+2-k) P[n,k-2] ) / F1(n-k)

    as a polynomial in the scan variable x.  The relation the chain cannot
    absorb — the grade-(-1) remnant of the last two members — is the
    constraint polynomial

        P(x) = Fm1(1) P[n,n-1] + F0(0; x) P[n,n].

    The multiplicators are read off the system's table at centre 0, in
    exact rationals, and each slice is stored as its integer step.  The
    members then run in plain integers: over the running denominator
    D_k = delta_1 ... delta_k the numerators M_k = D_k P[n,k] obey

        M_k = (alpha_k + beta_k x) M_{k-1} + gamma_k delta_{k-1} M_{k-2},

    with M_0 = 1 and delta_0 = 1, and one gcd reduces the constraint's
    image.  Cached per baseline system; treat the result as read-only.

    Raises:
        DivisionByZeroMultiplicator: F1 vanishes before the last slice.
    """
    n = system.n
    sigma = system.sigma0
    ode = system.centres[0][1]
    F1, F0, Fm1 = zip(*map(ode.multiplicators, range(n + 2)))
    prev, cur = [], [1]
    den, last_delta = 1, 1
    steps = []
    for k in range(1, n + 1):
        f1 = F1[n - k]
        if f1 == 0:
            raise DivisionByZeroMultiplicator(
                f"leading multiplicator vanishes at slice {n - k}; "
                "the recurrence cannot be continued"
            )
        step = _over_common_denominator(
            -F0[n + 1 - k] / f1, -sigma / f1, -Fm1[n + 2 - k] / f1
        )
        alpha, beta, gamma, delta = step
        steps.append(step)
        prev, cur = cur, poly_add(
            poly_scale(prev, gamma * last_delta), poly_mul_linear(cur, alpha, beta)
        )
        den *= delta
        last_delta = delta

    # unit D_n P(x) = unit (Fm1(1) delta_n M_{n-1} + F0(0; x) M_n)
    f0, slope, fm1, unit = _over_common_denominator(F0[0], sigma, Fm1[1])
    nums = poly_add(poly_scale(prev, fm1 * last_delta), poly_mul_linear(cur, f0, slope))
    whole = den * unit
    g = math.gcd(whole, *nums)
    return ConstraintChain(
        n=n,
        steps=tuple(steps),
        last_member_image=(tuple(cur), den),
        constraint_image=(tuple(c // g for c in nums), whole // g),
    )


def run_ttrr(system):
    """The coefficient chain of a baseline system (the cached exact chain)."""
    return exact_chain(system)


# Exact Newton polish: stop once the step is below scale / 10**32.
_POLISH_STEPS = 6
_POLISH_BITS = 200


def _solution_image(chain, p, k):
    """Integer image of S(z) at the scan value ``p / 2**k``, by the steps.

    At x = p/2^k the members run, with no division, over the growing
    denominator D_j = delta_1 ... delta_j 2^(kj): the numerators
    M'_j = D_j P[n,j] obey

        M'_j = (alpha_j 2^k + beta_j p) M'_{j-1} + gamma_j delta_{j-1} 2^(2k) M'_{j-2},

    from M'_0 = 1, with M'_{-1} = 0 and delta_0 = 1.  Each member is then
    scaled once, by delta_{j+1} ... delta_n 2^(k(n-j)), onto the common
    denominator D_n; the image is ``(nums, D_n)`` with S[i] = P[n,n-i].
    """
    prev, cur, last_delta = 0, 1, 1
    members = [cur]
    for alpha, beta, gamma, delta in chain.steps:
        prev, cur = cur, ((alpha << k) + beta * p) * cur + (gamma * last_delta * prev << 2 * k)
        last_delta = delta
        members.append(cur)
    # the deltas' product is short next to the power of two, which is a shift
    nums, tail = [members.pop()], 1
    for shift, step in enumerate(reversed(chain.steps), 1):
        tail *= step[3]
        nums.append(members.pop() * tail << k * shift)
    return tuple(nums), tail << k * chain.n


def assemble_solution(chain, root):
    """Monic polynomial solution S(z) at one root of the constraint.

    Returns the integer image ``(nums, den)`` of ``S(z) = sum_j S[j] z^j``:
    ``S[j] = nums[j] / den``, with ``S[n] = 1`` and ``den > 0``.  The
    member P[n, n-j] evaluated at the root supplies the coefficient of
    ``z^j``.  The pair is not reduced; ``Fraction(nums[j], den)`` is the
    very rational Fraction Horner on the member gives.

    The coefficients are violently sensitive to the root position:
    constraint slopes reach ~1e12 while the solution needs the root to
    ~1e-30, far beyond float resolution, and assembling at a merely
    float-accurate root yields a polynomial whose ODE defect is comparable
    to the solution itself.  So ``root`` (a float, or any dyadic rational)
    is first Newton-polished on the exact constraint (quadratic
    convergence: two steps from a float-accurate start), and the members
    are evaluated at the polished root by the chain's own recurrence
    (:func:`_solution_image`).

    Every iterate is dyadic, p / 2^k: k is the float's own exponent at
    first and the 200-bit grain after each step, so the polish and the
    replay scale by shifts.  No gcd is taken: the polish is Newton on the
    value and slope of :func:`~qespectra.polynomials.image_horner`, each
    iterate rounded to the grain by ``divmod`` (ties to even, as ``round``
    rounds a Fraction), and every test made by cross-multiplication.  The
    drift gate sums the moves |x_{i-1} - x_i| of the rounded iterates, an
    integer over 2^max(k, 200).  Per root on one Xeon core (coulomb and
    razavy-sinh2): 0.1-0.2 ms at n = 20, 0.4-0.7 ms at n = 40 and
    2.3-2.6 ms at n = 80 (coulomb), of which the replay takes 0.06, 0.24
    and 0.6-0.9 ms; the rest is the polish.

    A polish that meets its 1e-32 stopping test, or lands on an exact zero,
    has found the root.  One that stops short of it (all six steps used, or
    a vanishing slope) is accepted only when the polished point passes the
    backward-error test |P(x)| <= 1e-8 sum_j |c_j| |x|^j, made exactly: one
    :func:`~qespectra.polynomials.image_value` on the constraint's image and
    one on its absolute numerators at |x| share the denominator, so the test
    is one integer cross-multiplication.  dshg's doublets are the roots that
    reach it.

    Raises:
        NotARoot: ``root`` does not identify a constraint root: it drifts
            under polish, or the polish stops short of its tolerance at a
            point whose backward error is too large for it to count as a
            zero.
        ValueError: ``root`` is not a dyadic rational.
    """
    p, q = Fraction(root).as_integer_ratio()
    k0 = q.bit_length() - 1
    if q != 1 << k0:
        raise ValueError(f"scan value {root} is not a dyadic rational")
    k, scale_num = k0, max(q, abs(p))  # scale = max(1, |root|) = scale_num / 2^k0
    top = max(k0, _POLISH_BITS)
    moved = 0  # sum of the iterates' moves, over 2^top
    converged = False
    for _ in range(_POLISH_STEPS):
        value, slope, _ = image_horner(chain.constraint_image, p, k)
        if value == 0 or slope == 0:
            converged = value == 0
            break
        # step = value / slope = step_num / step_den, step_den > 0
        step_num, step_den = (value, slope << k) if slope > 0 else (-value, -slope << k)
        # Newton squares the iterate's bit length each pass; unchecked, the
        # rational blows up to megabit denominators.  Rounding to a fixed
        # 200 fractional bits (~60 digits) keeps every evaluation cheap while
        # staying far inside the 1e-32 stopping tolerance.
        # x - step = num / den
        num, den = p * step_den - (step_num << k), step_den << k
        new, rest = divmod(num << _POLISH_BITS, den)
        if 2 * rest > den or (2 * rest == den and new & 1):
            new += 1
        moved += abs((p << top - k) - (new << top - _POLISH_BITS))
        p, k = new, _POLISH_BITS
        if abs(step_num) * 10**32 << k0 <= scale_num * step_den:
            converged = True
            break
    if moved * 10**6 << k0 > scale_num << top:
        raise NotARoot(
            f"scan value {float(root):.6g} drifted by {moved / (1 << top):.3g} "
            "under exact Newton polish; it does not identify a root"
        )
    if not converged:
        nums, den = chain.constraint_image
        value, _ = image_value(chain.constraint_image, p, k)
        mag, _ = image_value((tuple(map(abs, nums)), den), abs(p), k)
        if abs(value) * 10**8 > mag:
            raise NotARoot(
                f"constraint backward error {abs(value) / mag:.3g} "
                f"at scan value {p / (1 << k):.6g}"
            )
    return _solution_image(chain, p, k)


def exact_solution(system, root):
    """Assemble S(z) at a constraint root of a baseline system.

    Ascending Fraction coefficients; see :func:`assemble_solution`.
    """
    nums, den = assemble_solution(exact_chain(system), root)
    return [Fraction(a, den) for a in nums]


def solve(model):
    """Baseline, exact chain, canonical form and real roots of one model.

    Returns ``(system, chain, ttrr, roots)``.  Each stage is called through
    its module attribute, so a wrapper put on one (a tracer) sees the call.
    """
    system = build_baseline(model)
    chain = run_ttrr(system)
    ttrr = polynomials.to_canonical_ttrr(system)
    return system, chain, ttrr, polynomials.real_roots(ttrr)
