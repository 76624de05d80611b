"""Dense polynomial arithmetic and constraint-polynomial root extraction.

Polynomials are plain Python sequences of coefficients in ascending order
(``p[k]`` multiplies ``x**k``); the zero polynomial is the empty list.  The
arithmetic helpers never call numpy, so the same code path runs on floats,
on :class:`fractions.Fraction` entries and on plain integers — the
recurrence chain is built with them in exact integer arithmetic.

The second half of the module converts a terminating three-term recurrence
into its *canonical* monic form

    m_0 = 1,   m_k(y) = (y - d_k) m_{k-1}(y) - lam_k m_{k-2}(y)

in the rescaled scan variable ``y``.  When every product ``lam_k`` is
positive, the terminal member's roots are the eigenvalues of the symmetric
(Jacobi) tridiagonal matrix with diagonal ``d`` and off-diagonal
``sqrt(lam)``; they are therefore real and simple, and numpy's dense
symmetric eigensolve seeds them, which :func:`certified_zeros` proves
real and simple, and rounds correctly, by exact signs of the constraint's
integer image at floats; the zeros of each solution polynomial take the
same certificate.  The products depend on where the ODE variable is
centred, so the canonical form is taken at the first candidate centre
where they are all positive.  :func:`real_roots` is the one root finder.
"""

from __future__ import annotations

import math
import struct
import warnings
from fractions import Fraction
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZeroMultiplicator,
    EigensolveFailure,
    NonPositiveLambda,
    SigmaZero,
    SimplicityWarning,
)

# ---------------------------------------------------------------------------
# dense coefficient arithmetic (number-type generic)
# ---------------------------------------------------------------------------

def trim(coeffs):
    """Drop trailing exact zeros; the zero polynomial becomes []."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_add(p, q):
    """Coefficient-wise sum."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] = out[k] + c
    return out


def poly_scale(p, s):
    """Multiply every coefficient by the scalar ``s``."""
    return [c * s for c in p]


def poly_mul_linear(p, a0, a1):
    """Product ``(a0 + a1*x) * p`` without general convolution."""
    if not p:
        return []
    out = [a0 * p[0]]
    for k in range(1, len(p)):
        out.append(a0 * p[k] + a1 * p[k - 1])
    out.append(a1 * p[-1])
    return out


def image_horner(image, p, k):
    """Value and slope at ``x = p / 2**k`` of a polynomial's integer image.

    ``image`` is ``(nums, den)``: ``p[j] == Fraction(nums[j], den)``.
    Horner in homogeneous form keeps a = sum_j nums[j] p^j 2^(k(d-j)) and
    b = sum_j j nums[j] p^(j-1) 2^(k(d-j)) plain integers, the powers of two
    as shifts.  Returns ``(a, b, den * 2^(kd))``: the value is
    a / (den 2^(kd)) and the slope b 2^k / (den 2^(kd)), neither reduced,
    since no gcd is taken.
    """
    nums, den = image
    coeffs = reversed(nums)
    a, b, shift = next(coeffs, 0), 0, 0
    for c in coeffs:
        shift += k
        a, b = a * p + (c << shift), b * p + a
    return a, b, den << shift


def image_value(image, p, k):
    """Value at ``x = p / 2**k`` of a polynomial's integer image, with no slope.

    :func:`image_horner` without its slope, half the big-integer work:
    returns ``(a, den * 2^(kd))``, the same two integers, so the value is
    a / (den 2^(kd)), not reduced.
    """
    nums, den = image
    coeffs = reversed(nums)
    a, shift = next(coeffs, 0), 0
    for c in coeffs:
        shift += k
        a = a * p + (c << shift)
    return a, den << shift


def exact_gcd(p, q):
    """Monic greatest common divisor of two exactly-represented polynomials.

    Coefficients are coerced to :class:`fractions.Fraction`, so the inputs
    must already be exact (ints or Fractions): float coefficients carry
    rounding noise that makes almost every pair coprime.

    Returns ascending monic coefficients; gcd(0, 0) is the empty list.  The
    pipeline no longer calls it (``ConstraintChain.p_nn_zero_flag`` reads
    the chain's multiplicators); it is kept only because ``perfbench/``'s
    tracer wraps it, and the tests take it as that flag's reference.
    """
    a = [Fraction(c) for c in trim(p)]
    b = [Fraction(c) for c in trim(q)]
    while b:
        # a mod b via exact long division; the remainder replaces a.
        db = len(b) - 1
        lead = b[-1]
        r = list(a)
        while len(r) - 1 >= db:
            factor = r[-1] / lead
            shift = len(r) - 1 - db
            for i in range(db):
                r[shift + i] -= factor * b[i]
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


# ---------------------------------------------------------------------------
# certified real zeros of an integer image
# ---------------------------------------------------------------------------

def _lattice(x):
    """The float ``x`` as an integer, in the floats' own order, one apart
    where they are neighbours; :func:`_unlattice` undoes it."""
    bits, = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _unlattice(key):
    """The float at the lattice position ``key`` of :func:`_lattice`."""
    return struct.unpack("<d", struct.pack("<q", key if key >= 0 else (-key) | -(1 << 63)))[0]


def _sign(image, key):
    """The sign, exactly (-1, 0 or 1), of the image's polynomial at the
    point ``key`` of the half-ulp lattice: the float at :func:`_lattice`
    position key / 2 for an even key, else the midpoint of the two floats
    around it."""
    p, q = _unlattice(key // 2).as_integer_ratio()
    if key % 2:
        r, t = _unlattice(key // 2 + 1).as_integer_ratio()
        p, q = p * (max(q, t) // q) + r * (max(q, t) // t), 2 * max(q, t)
    value, _ = image_value(image, p, q.bit_length() - 1)
    return (value > 0) - (value < 0)


def _newton_step(image, x):
    """-P(x) / P'(x) at the float ``x``, from P's exact value and slope,
    rounded once; NaN where ``x`` is not finite, the slope vanishes or the
    step is past the float range."""
    try:
        p, q = x.as_integer_ratio()
        k = q.bit_length() - 1
        value, slope, _ = image_horner(image, p, k)
        return -value / (slope << k)
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan


def _between(image, lo, hi, s):
    """A half-ulp lattice key strictly between the keys of two floats,
    ``lo`` < ``hi``, where P takes the sign s: at the floats' midpoint, or,
    for floats at most 4 ulp apart, at any key between them, the middle
    ones first, since two zeros less than an ulp apart may have no float
    between them, only a midpoint; None if there is none."""
    middle = _unlattice(lo // 2) / 2 + _unlattice(hi // 2) / 2
    keys = range(lo + 1, hi) if hi - lo <= 8 else [2 * _lattice(middle)]
    return next((k for k in sorted(keys, key=lambda k: abs(2 * k - lo - hi))
                 if _sign(image, k) == s), None)


def _rounded(image, key, lo, hi, s):
    """The float nearest a zero of P between the half-ulp lattice keys
    ``lo`` < ``key`` < ``hi``, where P takes the signs -s and s: the sign
    half an ulp below the float at ``key`` says on which side of it the
    zero lies, a gallop away from the float finds a sign change, and
    bisection narrows it to the half-ulp either side of one float."""
    def above(k):  # P's sign -s at k puts the zero above it; one at k rounds half to even
        return (_sign(image, k) or (-s if k // 2 % 2 else s)) == -s

    if lo < key - 1:
        lo, hi = (key - 1, hi) if above(key - 1) else (lo, key - 1)
    step = 2
    while hi - lo - lo % 2 > 1:  # (lo, hi) is not yet inside one float's half-ulp cell
        probe = (lo + hi) // 2
        if step:  # gallop away from key, by doubling steps, until P changes sign
            probe = max(probe, hi - step) if hi < key else min(probe, lo + step)
            step *= 2
        up = above(probe)
        if up == (hi < key):
            step = 0
        lo, hi = (probe, hi) if up else (lo, probe)
    return _unlattice((lo + lo % 2) // 2)


def certified_zeros(image, seeds):
    """The n real zeros of the polynomial P of an integer image, from n
    float seeds, certified real and simple in exact arithmetic.

    ``image`` is ``(nums, den)``, den > 0, of degree n = ``len(seeds)``,
    its leading coefficient of either sign s.  Each seed takes one exact
    Newton step (:func:`_newton_step`; NaN or past the float range fails
    the isolation below).  Returns ``(zeros, rest)``: zeros ascending,
    each its zero correctly rounded, and rest the exact Newton step from
    each, rounded, so that zeros + rest misses each zero by about ulp^2
    |P''/P'|.  A zero whose certificate fails is its stepped seed, with a
    NaN rest; the others keep theirs.  Certificate, by the exact sign of P
    (:func:`_sign`) on the lattice of floats and the midpoints between
    them:

    * isolation: at n + 1 points t_0 < ... < t_n, one between each two
      neighbouring stepped seeds (:func:`_between`) and one past either
      end, P takes the signs s (-1)^(n - i).  Where all n + 1 do, each
      (t_i, t_(i+1)) holds exactly one zero of P, and P has no other.
      Where some do not, an interval whose two ends do holds an odd number
      of zeros, and its zero below is one of them, correctly rounded,
      though not proven the only one;
    * rounding: P changes sign within half an ulp of the zero's float
      either side, so the zero is nearer that float than any other; from
      the stepped seed, the float is found inside (t_i, t_(i+1)) by
      :func:`_rounded`, so it depends on the zero alone, not on the seeds.

    A polynomial with non-real zeros, or two zeros within half an ulp of
    one float, fails isolation there.
    """
    nums, _ = image
    n = len(seeds)
    lead = (nums[-1] > 0) - (nums[-1] < 0) if len(nums) == n + 1 else 0
    zeros = np.sort([x + _newton_step(image, x) for x in seeds.tolist()])
    rest = np.full(n, math.nan)
    if not lead or not n:
        return zeros, rest
    signs = [lead * (-1) ** (n - i) for i in range(n + 1)]
    keys = [2 * _lattice(z) if math.isfinite(z) else None for z in zeros.tolist()]
    reach = max(1.0, float(np.max(np.abs(zeros))))
    ends = [2 * _lattice(t) if math.isfinite(t) else None
            for t in (zeros[0] - reach, zeros[-1] + reach)]
    points = [t if t is not None and _sign(image, t) == s else None
              for t, s in zip(ends, signs[::n])]
    points[1:1] = [_between(image, a, b, s) if None not in (a, b) else None
                   for a, b, s in zip(keys, keys[1:], signs[1:])]
    for i, key in enumerate(keys):
        if None not in (key, points[i], points[i + 1]):
            zeta = _rounded(image, key, points[i], points[i + 1], signs[i + 1])
            step = _newton_step(image, zeta)
            if math.isfinite(step):
                zeros[i], rest[i] = zeta, step
    return zeros, rest


# ---------------------------------------------------------------------------
# canonical three-term chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTtrr:
    """Monic canonical form of a terminating three-term recurrence.

    Attributes:
        centre: the exact centre r of the ODE variable, z = r + w, at which
            the chain was read off; 0 is the model's own variable.
        d: diagonal terms ``d_1 .. d_{n+1}`` of the canonical chain.
        lam: products ``lam_1 .. lam_{n+1}``, all strictly positive.
            ``lam[0]`` is 1.0 by convention and multiplies nothing.
        scale: map back to the physical scan variable, ``scan = scale * y``.
        constraint_image: ``ConstraintChain.constraint_image``, the exact
            constraint in the scan variable, which certifies the roots.
    """

    centre: Fraction
    d: tuple
    lam: tuple
    scale: float
    constraint_image: tuple


@dataclass(frozen=True)
class RootSet:
    """Real simple roots of a constraint polynomial, ascending."""

    roots: tuple


def to_canonical_ttrr(system):
    """Reduce a baseline recurrence to canonical monic form.

    ``system`` is a :class:`~qespectra.recurrence.BaselineSystem` (any
    hashable object with ``n``, ``sigma0`` and ``centres`` attributes works,
    each centre's table offering exact ``multiplicators(k) -> (F1, F0, Fm1)``
    at scan value 0).
    Writing the grade-0 multiplicator as ``F0(k) + sigma * x``, the raw
    members are rescaled to be monic in ``y = sigma * x``, which turns the
    recurrence into the canonical chain with

        d_k   = -F0(n + 1 - k)
        lam_k = Fm1(n + 2 - k) * F1(n + 1 - k)

    for ``k = 1 .. n+1``.  The terminal member (one step past the last
    regular slice) is proportional to the constraint polynomial, so its
    roots are exactly the admissible scan values.  The multiplicators are
    taken at the first of the system's centres whose products are all
    positive; F1 and sigma are the same at every centre, and so are the
    constraint's roots.  The exact constraint comes from the cached
    :func:`~qespectra.recurrence.exact_chain` of ``system``.

    Raises:
        SigmaZero: the scan variable is absent from the recurrence.
        DivisionByZeroMultiplicator: ``F1`` vanishes before the last step.
        NonPositiveLambda: no centre gives all-positive products.
        OverflowError: 1 / sigma, or a multiplicator, lies beyond the float range.
    """
    from . import recurrence  # recurrence imports this module

    n = system.n
    sigma = system.sigma0
    if sigma == 0:
        raise SigmaZero("grade-0 multiplicator has no scan-variable term")
    scale = 1.0 / float(sigma) if float(sigma) else math.inf
    if math.isinf(scale):
        raise OverflowError("the scan-variable scale 1 / sigma lies beyond the float range")
    for centre, ode in system.centres:
        F1, F0, Fm1 = zip(*map(ode.multiplicators, range(n + 2)))
        if 0 in F1[:n]:
            raise DivisionByZeroMultiplicator(
                f"leading multiplicator vanishes at slice {F1.index(0)} < n={n}"
            )
        lam = [1.0]
        for k in range(2, n + 2):
            lam.append(float(Fm1[n + 2 - k]) * float(F1[n + 1 - k]))
        if all(v > 0 for v in lam):
            return CanonicalTtrr(
                centre=centre,
                d=tuple(-float(F0[n + 1 - k]) for k in range(1, n + 2)),
                lam=tuple(lam),
                scale=scale,
                constraint_image=recurrence.exact_chain(system).constraint_image,
            )
    tried = ", ".join(str(centre) for centre, _ in system.centres)
    raise NonPositiveLambda(
        f"the chain products are not all positive at any centre (tried {tried}); "
        "no symmetric tridiagonal eigenproblem represents this chain"
    )


def real_roots(ttrr):
    """All roots of the constraint, seeded by a symmetric eigensolve and
    certified in exact arithmetic, ascending.

    The eigenvalues of the symmetric Jacobi matrix (``numpy.linalg.eigvalsh``
    on at most ~100 rows) times ``scale`` seed :func:`certified_zeros` on
    ``ttrr.constraint_image``: each root is the float nearest its exact
    root, whatever the seeds' last bits.  A root whose certificate fails
    (on dshg's doublets that share a float, from n = 20) is its
    Newton-stepped seed, not merged, and a :class:`SimplicityWarning` says
    that the set is not certified; the other roots are still rounded.

    Raises:
        NonPositiveLambda: a chain product is not positive.
        EigensolveFailure: the eigensolve fails, or gives a root that is
            not finite.
    """
    if any(l <= 0 for l in ttrr.lam):
        raise NonPositiveLambda("canonical chain products must be positive")
    # eigvalsh reads the lower triangle alone; the subdiagonal is written in
    # place, not added, so that a -0.0 entry of d keeps its sign
    jacobi = np.diag(np.asarray(ttrr.d, dtype=float))
    np.fill_diagonal(jacobi[1:], np.sqrt(np.asarray(ttrr.lam[1:], dtype=float)))
    try:
        ys = np.linalg.eigvalsh(jacobi)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigensolveFailure(f"symmetric eigensolve failed: {exc}") from exc
    roots, rest = certified_zeros(ttrr.constraint_image, ttrr.scale * ys)
    if not np.all(np.isfinite(roots)):
        raise EigensolveFailure("the eigensolve gave roots that are not finite")
    if not np.isfinite(rest).all():
        warnings.warn(
            f"{np.isnan(rest).sum()} of the {len(roots)} roots could not be certified "
            "real and simple, and some may share a float; reporting them uncertified "
            "rather than merging",
            SimplicityWarning,
            stacklevel=2,
        )
    return RootSet(roots=tuple(roots.tolist()))
