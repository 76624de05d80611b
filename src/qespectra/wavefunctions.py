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

import numpy as np

from . import recurrence
from .errors import AsymmetricGrid, DegenerateGrid

# Samples within this fraction of max|psi| count as zero for node purposes.
_NODE_BAND = 1e-10
# Relative mismatch allowed when calling a sampled function symmetric.
_PARITY_TOL = 1e-8
# decay_halfwidth: the envelope's negligible fraction of its peak, and the
# half-width scanned (the fallback when the envelope never decays).
_DECAY_CUTOFF, _DECAY_XMAX = 1e-12, 60.0
# Rows a block of sampling: of the 80-bit Horner evaluation, and on an
# explicit grid of the coordinate, the prefactor and the norm's terms too,
# so that their temporaries stay this size whatever the grid.
_HORNER_ROWS = 16384
# Finer grid steps are refused: no state is resolved on them, and the
# normalized samples grow like step^-1/2 past any physical scale.  The
# finite-difference oracle refuses the same steps.
_MIN_STEP = 1e-30


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


def decay_halfwidth(model, degree):
    """Half-width beyond which the state is numerically negligible.

    Scans (0, _DECAY_XMAX] for the point where ``|Q(x)| * max(1, |z|)^deg``
    has fallen below _DECAY_CUTOFF of its peak; the polynomial factor is
    bounded by the coordinate power, so this dominates any root choice.
    Falls back to _DECAY_XMAX when the envelope never decays.
    """
    xs = np.linspace(0.05, _DECAY_XMAX, 1200)
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
        return _DECAY_XMAX
    peak = float(np.max(env[finite]))
    peak_idx = int(np.argmax(np.where(finite, env, -1.0)))
    below = np.nonzero(env[peak_idx:] < _DECAY_CUTOFF * peak)[0]
    if len(below) == 0:
        return _DECAY_XMAX
    return min(_DECAY_XMAX, 1.1 * xs[peak_idx + below[0]] + 0.5)


def default_grid(model, degree, points=2001, halfwidth=None):
    """Sampling grid suited to the model's domain.

    A step below ``_MIN_STEP`` raises :class:`DegenerateGrid`.  Full-line
    models get a closed grid on [-L, L] that mirrors exactly:
    the right half is that of ``np.linspace(-L, L, points)``, the left half
    its negation, and the middle point of an odd count is 0.0, so
    ``xs == -xs[::-1]`` bit for bit (linspace alone misses by an ulp at many
    points).  Half-line models get a half-offset open grid on (0, L] that
    avoids the origin singularity and matches the verifier's radial
    discretization.
    """
    if points < 16:
        raise DegenerateGrid(f"need at least 16 grid points, got {points}")
    L = float(halfwidth if halfwidth is not None else decay_halfwidth(model, degree))
    if not 0 < L < math.inf:
        raise DegenerateGrid(f"grid half-width must be positive and finite, got {L}")
    h = L / points if model.half_line else 2.0 * L / (points - 1)
    if not h >= _MIN_STEP:
        raise DegenerateGrid(f"grid steps below {_MIN_STEP:g} cannot support sampling")
    if model.half_line:
        return (np.arange(points) + 0.5) * h
    right = np.linspace(-L, L, points)[(points + 1) // 2:]
    middle = [0.0] if points % 2 else []
    return np.concatenate((-right[::-1], middle, right))


def node_count(xs, psi):
    """Count sign changes, ignoring samples inside the dead band."""
    mag = np.abs(psi)
    peak = float(mag.max())
    if peak == 0.0:
        return 0
    live = mag > _NODE_BAND * peak
    del mag
    signs = psi[live]
    np.sign(signs, out=signs)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _is_symmetric(xs):
    """Whether the sample points mirror about the origin."""
    span = float(np.max(np.abs(xs))) or 1.0
    return bool(np.max(np.abs(xs + xs[::-1])) <= 1e-12 * span)


def _parity(psi):
    """"even", "odd" or None for samples on a mirror-symmetric grid."""
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        return None
    rev = psi[::-1]
    if float(np.max(np.abs(psi - rev))) < _PARITY_TOL * peak:
        return "even"
    if float(np.max(np.abs(psi + rev))) < _PARITY_TOL * peak:
        return "odd"
    return None


def parity_classify(grid):
    """Classify a sampled function as even, odd, or neither.

    Raises:
        AsymmetricGrid: the sample points are not mirror-symmetric.
    """
    if not _is_symmetric(np.asarray(grid.xs, dtype=float)):
        raise AsymmetricGrid("parity needs a grid symmetric about the origin")
    return _parity(np.asarray(grid.psi, dtype=float))


def _split(image):
    """Each coefficient num / den of an integer image as a sum hi + lo of floats.

    hi is the float nearest num / den and lo the float nearest the rest:
    int / int rounds correctly, reduced or not, as float(Fraction) does,
    and raises OverflowError past the float range.  The power of two in den
    is taken out once, so hi * den is a small product shifted, and no
    full-size product is formed.
    """
    nums, den = image
    e = (den & -den).bit_length() - 1
    odd = den >> e
    his, los = [], []
    for num in nums:
        hi = num / den
        m, q = hi.as_integer_ratio()
        # hi * den = m * odd * 2^shift, with q = 2^k
        shift = e - q.bit_length() + 1
        if shift >= 0:
            lo = (num - (m * odd << shift)) / den
        else:
            lo = ((num << -shift) - m * odd) / (den << -shift)
        his.append(hi)
        los.append(lo)
    return his, los


def _coefficients(image):
    """The coefficients of an integer image in 80 bits, each the sum hi + lo of :func:`_split`."""
    his, los = _split(image)
    return np.array(his, dtype=np.longdouble) + np.array(los, dtype=np.longdouble)


def _horner_block(coeffs, z, out):
    """S(z) at one block of float64 ``z``, accumulated in 80 bits, into ``out``.

    A monic image (leading coefficient exactly 1, as every assembled state
    is) starts at z + c_(n-1): the step it skips multiplies by 1, exactly.
    """
    zl = z.astype(np.longdouble)
    if len(coeffs) > 1 and coeffs[-1] == 1:
        acc, rest = zl + coeffs[-2], coeffs[-3::-1]
    else:
        acc, rest = np.full(zl.shape, coeffs[-1], dtype=np.longdouble), coeffs[-2::-1]
    for c in rest:
        acc *= zl
        acc += c
    with np.errstate(over="ignore"):
        out[...] = acc


def _eval_poly_extended(image, z):
    """Horner evaluation in 80-bit extended precision of an integer image.

    A deep-well solution polynomial cancels pointwise by up to ~1e6 on the
    physical interval (its values sit that far below its coefficients), and
    verification second-differences the samples, dividing any pointwise
    noise by h^2.  float64 Horner cannot absorb both; extended-precision
    accumulation over double-double images of the exact coefficients keeps
    the pointwise relative error near 1e-13 in the worst catalog case.

    ``z`` is a 1-d array; each block of _HORNER_ROWS points is widened to
    80 bits, evaluated and rounded to float64 on its own.  Horner runs
    elementwise, so the values are those of one pass over all of ``z``.
    """
    coeffs = _coefficients(image)
    z = np.asarray(z)
    values = np.empty(z.shape)
    for start in range(0, len(z), _HORNER_ROWS):
        stop = start + _HORNER_ROWS
        _horner_block(coeffs, z[start:stop], values[start:stop])
    return values


def _first_peak_sign(psi):
    """Sign of psi at its first significant interior extremum.

    Of the samples at or above 1% of the peak, the first to fall after one
    that did not fall ends it, at its predecessor; else the sign at the peak.
    """
    mag = np.abs(psi)
    peak = float(mag.max())
    live = mag[1:] >= 0.01 * peak
    up = mag[1:] >= mag[:-1]
    del mag
    rises = live & up
    if rises.any():
        start = int(rises.argmax())  # the first True
        falls = live[start:] & ~up[start:]
        if falls.any():
            return 1.0 if psi[start + int(falls.argmax())] > 0 else -1.0
    return 1.0 if psi[int(np.argmax(np.abs(psi)))] > 0 else -1.0


@dataclass(frozen=True)
class _Frame:
    """What sampling needs of a grid and a model, whatever the root.

    ``z`` is the float64 coordinate at the points the polynomial is
    evaluated on (:func:`_eval_poly_extended` widens it to 80 bits a block
    at a time): the first ceil(N/2) points, then those of
    the second half whose float64 coordinate differs from that of their
    mirror point, N - 1 - i for point i.  A point whose coordinate equals
    its mirror's, bit for bit, takes its mirror's value: ``source`` maps
    each point to its value among the evaluated ones, or is None when every
    point is evaluated in order.  On an exactly mirrored grid with an even
    chart that is half the points; on a grid that misses a mirror by an ulp
    here and there, such as ``np.linspace``'s, it is every pair whose
    coordinate rounds alike.  ``q`` is the prefactor and ``dead`` its
    underflowed tail (q == 0); ``symmetric`` says whether parity is
    classified (full line, mirrored grid).
    """

    xs: np.ndarray
    z: np.ndarray
    source: np.ndarray | None
    q: np.ndarray
    dead: np.ndarray
    symmetric: bool


def _frame(model, xs):
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.asarray(model.coordinate(xs), dtype=float)
        q = np.asarray(model.prefactor(xs), dtype=float)
    evaluated = z != z[::-1]
    evaluated[: (len(z) + 1) // 2] = True
    source = None
    if not evaluated.all():
        source = np.cumsum(evaluated) - 1
        source[~evaluated] = source[::-1][~evaluated]
        z = z[evaluated]
    # a view: the radial chart's coordinate is ``xs`` itself, which the
    # caller keeps writable
    z = z.view()
    dead = q == 0.0
    for owned in (z, source, q, dead):
        if owned is not None:
            owned.setflags(write=False)
    symmetric = not model.half_line and _is_symmetric(xs)
    return _Frame(xs, z, source, q, dead, symmetric)


def _frame_values(frame, image):
    """S(z) at every point of the frame, from one evaluation per mirror pair.

    Horner runs elementwise, so a point whose coordinate is its mirror's,
    bit for bit, gets bit for bit what evaluating it would give.
    """
    values = _eval_poly_extended(image, frame.z)
    if frame.source is not None:
        values = values[frame.source]
    return values


# The frame of the last model sampled on its default grid, and that model.
# Keyed by the object itself (``is``), so an equal model built afresh gets
# a frame of its own.
_last_default = (None, None)


def _default_frame(model):
    global _last_default
    cached, frame = _last_default
    if cached is not model:
        xs = default_grid(model, model.n)
        xs.setflags(write=False)
        frame = _frame(model, xs)
        _last_default = (model, frame)
    return frame


def sample(model, root, xs=None, chain=None):
    """Sample the normalized wavefunction of one constraint root.

    Assembles the polynomial part at ``root`` on ``chain`` (the model's
    exact chain, :func:`~qespectra.recurrence.exact_chain`; built here when
    not given), multiplies by the prefactor on ``xs`` (default:
    :func:`default_grid`) and normalizes by the trapezoid rule.  The
    returned wavefunction is positive at its first interior extremum.

    All roots of one model object sampled on the default grid share one
    read-only ``xs``: the grid, and the coordinate and prefactor on it, are
    built once for that model and kept until another model is sampled.
    There the polynomial is evaluated once for each pair of mirror points,
    i and N - 1 - i, whose coordinates are equal, bit for bit, and the
    value serves both; the result is byte-identical to evaluating it
    everywhere.  Where the coordinate is even on the whole grid (the
    tanh^2, -sinh^2, cosh^2 and sinh^2 charts) that is half the points, and
    with a prefactor of the sector's parity psi is exactly even or odd.

    An explicit ``xs``, such as the verifier's nodes of up to 900,000
    points, is evaluated at every point, a block at a time, with the
    coordinate and the prefactor taken per block; so psi, and the
    trapezoid terms of the norm, are the only arrays of its length made.

    Raises:
        NotARoot: ``root`` does not identify a root of the constraint.
        DegenerateGrid: an explicit ``xs`` is not 1-d, finite, increasing
            and at least 16 points long, or the state overflows on it.
    """
    if chain is None:
        chain = recurrence.exact_chain(recurrence.build_baseline(model))
    image = recurrence.assemble_solution(chain, root)
    if xs is None:
        frame = _default_frame(model)
        xs, symmetric = frame.xs, frame.symmetric
        psi = _frame_values(frame, image)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(frame.q, psi, out=psi)
        # 0 * inf in the dead tail: the underflowed prefactor wins.
        psi[frame.dead] = 0.0
        del frame
    else:
        xs = np.asarray(xs, dtype=float)
        # NaN compares false, so it would pass the ordering test below
        if not np.all(np.isfinite(xs)):
            raise DegenerateGrid("explicit grids must hold finite points only")
        if xs.ndim != 1 or len(xs) < 16 or np.any(np.diff(xs) <= 0):
            raise DegenerateGrid("explicit grids must be 1-d, increasing, >= 16 points")
        symmetric = not model.half_line and _is_symmetric(xs)
        psi = _explicit_values(model, image, xs)
    if not np.all(np.isfinite(psi)):
        raise DegenerateGrid("wavefunction overflowed on this grid; shrink it")
    norm = _norm(xs, psi)
    if norm == 0.0:
        raise DegenerateGrid("wavefunction is identically zero on this grid")
    psi /= norm
    psi *= _first_peak_sign(psi)
    return WavefunctionGrid(
        xs=xs,
        psi=psi,
        norm=norm,
        node_count=node_count(xs, psi),
        parity=_parity(psi) if symmetric else None,
    )


def _explicit_values(model, image, xs):
    """Q(x) S(z(x)) at every point of an explicit grid, a block of
    _HORNER_ROWS points at a time: the coordinate, the prefactor and the
    80-bit Horner live for one block only, so psi is the one array of N
    rows made here."""
    coeffs = _coefficients(image)
    psi = np.empty(len(xs))
    for start in range(0, len(xs), _HORNER_ROWS):
        x = xs[start:start + _HORNER_ROWS]
        block = psi[start:start + _HORNER_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.asarray(model.coordinate(x), dtype=float)
            q = np.asarray(model.prefactor(x), dtype=float)
        _horner_block(coeffs, z, block)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(q, block, out=block)
        # 0 * inf in the dead tail: the underflowed prefactor wins.
        block[q == 0.0] = 0.0
    return psi


def _norm(xs, psi):
    """The trapezoid L2 norm of psi on ``xs``.

    Square at unit peak: psi * psi overflows for long chains while the norm
    itself fits.  Scaling by a power of two is exact, so the norm is the
    same number wherever the unscaled square neither overflows nor
    underflows.  The trapezoid sum is np.trapezoid's own,
    add.reduce(diff(xs) * (y[1:] + y[:-1]) / 2): its terms are taken a
    block of _HORNER_ROWS at a time, each step in place, and summed whole,
    in np.add.reduce's own order.
    """
    peak_exp = math.frexp(max(float(psi.max()), -float(psi.min())))[1]
    area = np.empty(len(psi) - 1)
    for start in range(0, len(area), _HORNER_ROWS):
        stop = min(start + _HORNER_ROWS, len(area))
        y = np.ldexp(psi[start:stop + 1], -peak_exp)
        y *= y
        terms = np.add(y[1:], y[:-1], out=area[start:stop])
        terms *= np.subtract(xs[start + 1:stop + 1], xs[start:stop], out=y[:-1])
        terms /= 2.0
    return math.ldexp(float(np.sqrt(np.add.reduce(area))), peak_exp)
