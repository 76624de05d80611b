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
symmetric eigensolve delivers them to machine precision, after which a
Newton polish through the recurrence itself restores the last bits.  The
products depend on where the ODE variable is centred, so the canonical form
is taken at the first candidate centre where they are all positive.
:func:`real_roots` is the one root finder.
"""

from __future__ import annotations

import math
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

# Roots closer than this fraction of the root span trigger SimplicityWarning.
_SIMPLE_RTOL = 1e-10

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
    must already be exact (ints or Fractions) — float coefficients carry
    rounding noise that makes almost every pair coprime, which is why the
    "do these two chain members share a zero?" question is answered on the
    exact chain, never on float images of it.

    Returns ascending monic coefficients; gcd(0, 0) is the empty list.
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
    """

    centre: Fraction
    d: tuple
    lam: tuple
    scale: float


@dataclass(frozen=True)
class RootSet:
    """Real simple roots of a constraint polynomial, ascending."""

    roots: tuple


def to_canonical_ttrr(system):
    """Reduce a baseline recurrence to canonical monic form.

    ``system`` is a :class:`~qespectra.recurrence.BaselineSystem` (any object
    with ``n``, ``sigma0`` and ``centres`` attributes works, each centre's
    table offering ``multiplicators(k) -> (F1, F0, Fm1)`` at scan value 0).
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
    constraint's roots.

    Raises:
        SigmaZero: the scan variable is absent from the recurrence.
        DivisionByZeroMultiplicator: ``F1`` vanishes before the last step.
        NonPositiveLambda: no centre gives all-positive products.
        OverflowError: 1 / sigma, or a multiplicator, lies beyond the float range.
    """
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
            )
    tried = ", ".join(str(centre) for centre, _ in system.centres)
    raise NonPositiveLambda(
        f"the chain products are not all positive at any centre (tried {tried}); "
        "no symmetric tridiagonal eigenproblem represents this chain"
    )


def ttrr_terminal(ttrr, y):
    """Terminal chain member at ``y``: value and derivative."""
    p_prev, p = 0.0, 1.0
    dp_prev, dp = 0.0, 0.0
    for dk, lk in zip(ttrr.d, ttrr.lam):
        lin = y - dk
        p_new = lin * p - lk * p_prev
        dp_new = p + lin * dp - lk * dp_prev
        p_prev, p = p, p_new
        dp_prev, dp = dp, dp_new
    return p, dp


def real_roots(ttrr):
    """All roots of the terminal canonical member, by symmetric eigensolve.

    The eigenvalues of the symmetric Jacobi matrix (real and simple by
    construction), from ``numpy.linalg.eigvalsh`` on the dense matrix of
    at most ~100 rows, are polished through the chain recurrence and
    returned in the physical scan variable, ascending.  Roots closer than
    a tiny fraction of the span are reported anyway, with a
    :class:`SimplicityWarning`, rather than merged.

    Raises:
        EigensolveFailure: the eigensolve fails, or the chain recurrence
            overflows at some root, which leaves that root unpolished.
    """
    if any(l <= 0 for l in ttrr.lam):
        raise NonPositiveLambda("canonical chain products must be positive")
    # eigvalsh reads the lower triangle alone; the subdiagonal is written in
    # place, not added, so that a -0.0 entry of d keeps its sign
    jacobi = np.diag(np.asarray(ttrr.d, dtype=float))
    np.fill_diagonal(jacobi[1:], np.sqrt(np.asarray(ttrr.lam[1:], dtype=float)))
    try:
        ys = np.linalg.eigvalsh(jacobi)  # ascending; 1x1 exactly
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigensolveFailure(f"symmetric eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(ys)):
        raise EigensolveFailure("eigensolve produced non-finite values")

    # Damped Newton polish: each root moves at most 0.4 of the gap to its
    # nearest neighbour, so the polish can never reorder or merge them.
    gaps = np.concatenate(([math.inf], np.diff(ys), [math.inf]))
    caps = 0.4 * np.minimum(gaps[:-1], gaps[1:])
    polished = np.empty_like(ys)
    unpolished = 0
    for i, (y, cap) in enumerate(zip(ys.tolist(), caps.tolist())):
        # Python floats overflow quietly; the check below reports it
        v, dv = ttrr_terminal(ttrr, y)
        best_y, best_v = y, abs(v)
        for _ in range(12):
            if dv == 0.0 or not math.isfinite(v):
                break
            step = -v / dv
            if abs(step) > cap:
                step = math.copysign(cap, step)
            y += step
            v, dv = ttrr_terminal(ttrr, y)
            if abs(v) < best_v:
                best_y, best_v = y, abs(v)
            if abs(step) <= 1e-16 * (1.0 + abs(y)):
                break
        polished[i] = best_y
        unpolished += not math.isfinite(best_v)
    if unpolished:
        # the float chain overflowed there, so those roots are raw seeds
        raise EigensolveFailure(
            f"{unpolished} of {len(ys)} roots could not be polished: "
            "the canonical chain is not finite there"
        )

    # a negative scale reverses the order
    xs = np.sort(ttrr.scale * polished)
    gap = float(np.diff(xs).min(initial=math.inf))
    span = float(xs[-1] - xs[0])
    if span > 0 and gap < _SIMPLE_RTOL * span:
        warnings.warn(
            f"two roots are only {gap:.3g} apart (span {span:.3g}); "
            "reporting both rather than merging",
            SimplicityWarning,
            stacklevel=2,
        )
    return RootSet(roots=tuple(float(x) for x in xs))
