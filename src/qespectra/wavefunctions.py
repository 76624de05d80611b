"""Assembly and classification of the algebraic bound-state wavefunctions.

A solved root gives a monic polynomial S(z); the physical wavefunction is
``psi(x) = Q(x) * S(z(x))`` with the model's prefactor Q and coordinate map
z.  This module samples psi on a grid, normalizes it, fixes the overall
sign (first interior extremum positive), counts nodes with a dead band so
that grazing near-zeros are not miscounted, and classifies parity on
symmetric grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import recurrence
from .errors import AsymmetricGrid, DegenerateGrid

# Samples within this fraction of max|psi| count as zero for node purposes.
_NODE_BAND = 1e-10
# Relative mismatch allowed when calling a sampled function symmetric.
_PARITY_TOL = 1e-8


@dataclass(frozen=True)
class WavefunctionGrid:
    """A normalized wavefunction sampled on a grid.

    ``parity`` is "even", "odd", or None (not symmetric / not classifiable);
    ``norm`` is the trapezoid L2 norm *before* normalization, recorded so
    callers can undo it.
    """

    xs: np.ndarray
    psi: np.ndarray
    norm: float
    node_count: int
    parity: object


def decay_halfwidth(model, degree, cutoff=1e-12, xmax=60.0):
    """Half-width beyond which the state is numerically negligible.

    Scans the positive axis for the point where ``|Q(x)| * max(1, |z|)^deg``
    has fallen below ``cutoff`` times its peak; the polynomial factor is
    bounded by the coordinate power, so this dominates any root choice.
    Falls back to ``xmax`` when the envelope never decays (non-normalizable
    parameter ranges).
    """
    xs = np.linspace(0.05, xmax, 1200)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = np.abs(model.prefactor(xs))
        z = np.abs(np.asarray(model.coordinate(xs), dtype=float))
        env = q * np.maximum(1.0, z) ** degree
    # At extreme x the product can hit 0 * inf: a dead prefactor wins for
    # normalizable states (underflow at 1e-308 is far past any cutoff),
    # while a live prefactor with an overflowed coordinate power means the
    # envelope really is growing there.
    env = np.where(q == 0.0, 0.0, env)
    env = np.where(np.isnan(env), np.inf, env)
    finite = np.isfinite(env)
    if not np.any(finite) or np.max(env[finite]) == 0.0:
        return xmax
    peak = float(np.max(env[finite]))
    peak_idx = int(np.argmax(np.where(finite, env, -1.0)))
    below = np.nonzero(env[peak_idx:] < cutoff * peak)[0]
    if len(below) == 0:
        return xmax
    return min(xmax, 1.1 * xs[peak_idx + below[0]] + 0.5)


def default_grid(model, degree, points=2001, halfwidth=None):
    """Sampling grid suited to the model's domain.

    Full-line models get a symmetric closed grid; half-line models get a
    half-offset open grid on (0, L] that avoids the origin singularity and
    matches the verifier's radial discretization.
    """
    if points < 16:
        raise DegenerateGrid(f"need at least 16 grid points, got {points}")
    L = float(halfwidth if halfwidth is not None else decay_halfwidth(model, degree))
    if not 0 < L < math.inf:
        raise DegenerateGrid(f"grid half-width must be positive and finite, got {L}")
    if model.half_line:
        h = L / points
        return (np.arange(points) + 0.5) * h
    return np.linspace(-L, L, points)


def node_count(xs, psi):
    """Count sign changes, ignoring samples inside the dead band."""
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        return 0
    live = np.abs(psi) > _NODE_BAND * peak
    signs = np.sign(psi[live])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def parity_classify(grid):
    """Classify a sampled function as even, odd, or neither.

    Raises:
        AsymmetricGrid: the sample points are not mirror-symmetric.
    """
    xs = np.asarray(grid.xs, dtype=float)
    psi = np.asarray(grid.psi, dtype=float)
    span = float(np.max(np.abs(xs))) or 1.0
    if np.max(np.abs(xs + xs[::-1])) > 1e-12 * span:
        raise AsymmetricGrid("parity needs a grid symmetric about the origin")
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        return None
    rev = psi[::-1]
    if float(np.max(np.abs(psi - rev))) < _PARITY_TOL * peak:
        return "even"
    if float(np.max(np.abs(psi + rev))) < _PARITY_TOL * peak:
        return "odd"
    return None


def _eval_poly_extended(coeffs, z):
    """Horner evaluation in 80-bit extended precision.

    A deep-well solution polynomial cancels pointwise by up to ~1e6 on the
    physical interval (its values sit that far below its coefficients), and
    verification second-differences the samples, dividing any pointwise
    noise by h^2.  float64 Horner cannot absorb both; extended-precision
    accumulation over double-double images of the exact coefficients keeps
    the pointwise relative error near 1e-13 in the worst catalog case.
    """
    zl = z.astype(np.longdouble)
    acc = np.zeros(zl.shape, dtype=np.longdouble)
    for c in reversed(coeffs):
        num, den = Fraction(c).as_integer_ratio()
        # int / int rounds correctly, as float(Fraction) does, and raises
        # OverflowError past the float range
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        acc = acc * zl + (np.longdouble(hi) + np.longdouble(lo))
    with np.errstate(over="ignore"):
        return acc.astype(float)


def _first_peak_sign(psi):
    """Sign of psi at its first significant interior extremum."""
    mag = np.abs(psi)
    peak = float(mag.max())
    threshold = 0.01 * peak
    rising = False
    for i in range(1, len(psi)):
        if mag[i] < threshold:
            continue
        if mag[i] >= mag[i - 1]:
            rising = True
        elif rising:
            return 1.0 if psi[i - 1] > 0 else -1.0
    return 1.0 if psi[int(np.argmax(mag))] > 0 else -1.0


def sample(model, root, xs=None, chain=None):
    """Sample the normalized wavefunction of one constraint root.

    Assembles the polynomial part at ``root`` on ``chain`` (the model's
    coefficient chain from :func:`~qespectra.recurrence.run_ttrr`; built
    here when not given), multiplies by the prefactor on ``xs`` (default:
    :func:`default_grid`) and normalizes by the trapezoid rule.  The
    returned wavefunction is positive at its first interior extremum.

    Raises:
        NotARoot: ``root`` does not identify a root of the constraint.
    """
    if chain is None:
        chain = recurrence.run_ttrr(recurrence.build_baseline(model))
    coeffs = recurrence.assemble_solution(chain, root)
    if xs is None:
        xs = default_grid(model, model.n)
    else:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or len(xs) < 16 or np.any(np.diff(xs) <= 0):
            raise DegenerateGrid("explicit grids must be 1-d, increasing, >= 16 points")

    z = np.asarray(model.coordinate(xs), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        q = model.prefactor(xs)
        psi = q * _eval_poly_extended(coeffs, z)
    # 0 * inf in the dead tail: the underflowed prefactor wins.
    psi = np.where(q == 0.0, 0.0, psi)
    if not np.all(np.isfinite(psi)):
        raise DegenerateGrid("wavefunction overflowed on this grid; shrink it")

    # Square at unit peak: psi * psi overflows for long chains while the norm
    # itself fits.  Scaling by a power of two is exact, so the norm is the
    # same number wherever the unscaled square neither overflows nor
    # underflows.
    peak_exp = math.frexp(float(np.max(np.abs(psi))))[1]
    unit = np.ldexp(psi, -peak_exp)
    norm = math.ldexp(float(np.sqrt(np.trapezoid(unit * unit, xs))), peak_exp)
    if norm == 0.0:
        raise DegenerateGrid("wavefunction is identically zero on this grid")
    psi = psi / norm
    psi = psi * _first_peak_sign(psi)

    parity = None
    if not model.half_line:
        span = float(np.max(np.abs(xs))) or 1.0
        if np.max(np.abs(xs + xs[::-1])) <= 1e-12 * span:
            grid = WavefunctionGrid(xs, psi, norm, 0, None)
            parity = parity_classify(grid)
    return WavefunctionGrid(
        xs=xs,
        psi=psi,
        norm=norm,
        node_count=node_count(xs, psi),
        parity=parity,
    )
