"""Assembly and classification of the algebraic bound-state wavefunctions.

A solved root gives a monic polynomial S(z); the physical wavefunction is
``psi(x) = Q(x) * S(z(x))`` with the model's prefactor Q and coordinate map
z.  This module samples psi on a grid, normalizes it, fixes the overall
sign (first interior extremum positive), counts nodes with a dead band so
that grazing near-zeros are not miscounted, and classifies parity on
symmetric grids.  S is evaluated by an 80-bit Horner, or, on the
finite-difference oracle's grids, as the product over its zeros, the
unknowns of the functional Bethe Ansatz, where they certify real and
simple: seeded by the Jacobi matrix of S's Sturm sequence and certified
by ``polynomials.certified_zeros``, as the constraint's roots are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import polynomials, recurrence
from .errors import DegenerateGrid

# Samples within this fraction of max|psi| count as zero for node purposes.
_NODE_BAND = 1e-10
# Relative mismatch allowed when calling a sampled function symmetric.
_PARITY_TOL = 1e-8
# decay_halfwidth: the envelope's negligible fraction of its peak, and the
# half-width scanned (the fallback when the envelope never decays).
_DECAY_CUTOFF, _DECAY_XMAX = 1e-12, 60.0
# Rows a block of sampling: of the coordinate, the prefactor, the
# evaluation of S and the norm's terms, so that their temporaries stay
# this size whatever the grid.  On the full line a block and its mirror
# rows are sampled together.
_HORNER_ROWS = 16384
# Finer grid steps are refused: no state is resolved on them, and the
# normalized samples grow like step^-1/2 past any physical scale.  The
# finite-difference oracle refuses the same steps.
_MIN_STEP = 1e-30
# The most points of any grid: the oracle's default grids stop here, and
# the command line refuses more grid points or --range steps.
_MAX_POINTS = 900_000


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
    """Whether the sample points mirror about the origin.

    The end points decide first, so a grid whose ends do not mirror, such
    as a half line, is refused with no temporary of its length.
    """
    tol = 1e-12 * (max(float(xs.max()), -float(xs.min())) or 1.0)
    if not abs(xs[0] + xs[-1]) <= tol:
        return False
    gap = xs + xs[::-1]
    return bool(np.max(np.abs(gap, out=gap)) <= tol)


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

    A deep-well solution polynomial cancels pointwise by up to ~1e6 on the
    physical interval (its values sit that far below its coefficients), and
    verification second-differences the samples, dividing any pointwise
    noise by h^2.  float64 Horner cannot absorb both; extended-precision
    accumulation over double-double images of the exact coefficients keeps
    the pointwise relative error near 1e-13 in the worst catalog case.

    Horner runs elementwise, so a point's value does not depend on the
    block it is evaluated in.  A monic image (leading coefficient exactly
    1, as every assembled state is) starts at z + c_(n-1): the step it
    skips multiplies by 1, exactly.
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


def _product_block(zeros, z, out):
    """S(z) = prod_j (z - zeta_j) at one block of float64 ``z``, into ``out``.

    ``zeros`` is :func:`_zeros`'s pair (hi, lo): each zeta_j = hi_j + lo_j to
    far below an ulp of hi_j.  Each factor is (z - hi_j) - lo_j, two float64
    subtractions, the first exact near the zero (Sterbenz), so it carries an
    ulp or so of itself even where z nears zeta_j; each step is one product.
    So a point's value carries about 3n roundings of its own, with no
    cancellation across terms.
    """
    out[...] = 1.0
    factor = np.empty_like(z)
    for hi, lo in zip(*zeros):
        np.subtract(z, hi, out=factor)
        factor -= lo
        out *= factor


def _jacobi_seeds(coeffs):
    """Seeds of the zeros of the monic S, by its Sturm sequence in 80 bits.

    p_0 = S and p_1 = S' / n, then p_(k-1) = (z - a_k) p_k - b_k p_(k+1), each
    p_k monic of degree n - k.  Where every b_k > 0 (S has n real, simple
    zeros; Sturm), S is the characteristic polynomial of the Jacobi matrix
    with diagonal a and off-diagonal sqrt(b), and its eigenvalues
    (``polynomials.jacobi_eigenvalues``, as for the constraint's roots) are
    the seeds; else None, as where rounding breaks the sequence.  On the deep
    states they lie within 1.3e-14 of the largest zero, where the companion
    eigenvalues (``np.roots``) lie within 6.8e-11, and they need no
    nonsymmetric eigensolver (LAPACK's dgeev adds ~0.6 MB to a verify
    process).
    """
    n = len(coeffs) - 1
    prev, cur = coeffs, np.arange(1, n + 1) * coeffs[1:] / n
    diag, off = [], []
    while True:
        a = (cur[-2] if len(cur) > 1 else 0) - prev[-2]
        diag.append(a)
        if len(cur) == 1:
            break
        # the remainder p_(k-1) - (z - a) p_k, of degree n - k - 1
        rest = (prev - np.concatenate(([0], cur)) + np.append(a * cur, 0))[:len(cur) - 1]
        if not -rest[-1] > 0:
            return None
        off.append(-rest[-1])
        prev, cur = cur, rest / rest[-1]
    diag, off = np.array(diag, dtype=float), np.sqrt(np.array(off, dtype=float))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        return None
    try:
        return polynomials.jacobi_eigenvalues(diag, off)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure path
        return None


def _zeros(image, coeffs):
    """The n zeros zeta_j of the monic S of degree n as a pair of float
    arrays (hi, lo), hi each zeta_j correctly rounded and hi + lo nearer
    still, from ``polynomials.certified_zeros`` on ``image`` and the
    :func:`_jacobi_seeds` of its :func:`_coefficients` ``coeffs``; None
    where the certificate fails, as on dshg's states with non-real zeros.
    """
    with np.errstate(all="ignore"):
        seeds = _jacobi_seeds(coeffs) if len(coeffs) > 1 else np.empty(0)
    if seeds is None:
        return None
    zeros, rest = polynomials.certified_zeros(image, seeds)
    return (zeros, rest) if np.isfinite(rest).all() else None


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


def _chart(model, x):
    """The float64 coordinate and prefactor at the points ``x``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.asarray(model.coordinate(x), dtype=float),
                np.asarray(model.prefactor(x), dtype=float))


# The last model sampled on its default grid, and (xs, z, q, symmetric,
# halfwidth): that grid, read-only, the coordinate and the prefactor on it,
# whether parity is classified there, and its half-width L, the model's
# decay_halfwidth.  Keyed by the object itself (``is``), so an equal model
# built afresh gets a grid of its own.
_last_default = (None, None)


def _default_inputs(model):
    global _last_default
    cached, inputs = _last_default
    if cached is not model:
        halfwidth = decay_halfwidth(model, model.n)
        xs = default_grid(model, model.n, halfwidth=halfwidth)
        z, q = _chart(model, xs)
        for owned in (xs, z, q):
            owned.setflags(write=False)
        inputs = (xs, z, q, not model.half_line and _is_symmetric(xs), halfwidth)
        _last_default = (model, inputs)
    return inputs


def solution(model, root, chain=None, *, product=False):
    """S at ``root`` as ``evaluate(z, out)``, which writes S at a block of
    float64 coordinates into ``out``, point by point (see :func:`sample`).

    Assembles S on ``chain`` (built here when not given), and evaluates it
    by the 80-bit Horner (:func:`_horner_block`), or, with ``product``, as
    the float64 product over its zeros (:func:`_product_block`) wherever
    they certify (:func:`_zeros`).  So S is assembled, and its zeros
    certified, once for every grid it samples.

    Raises:
        NotARoot: ``root`` does not identify a root of the constraint.
    """
    if chain is None:
        chain = recurrence.exact_chain(recurrence.build_baseline(model))
    image = recurrence.assemble_solution(chain, root)
    coeffs = _coefficients(image)
    zeros = _zeros(image, coeffs) if product else None
    if zeros is None:
        return partial(_horner_block, coeffs)
    return partial(_product_block, zeros)


def default_values(model, evaluate):
    """(xs, Q(x) S(z(x))) on the model's shared default grid, with S the
    ``evaluate`` of :func:`solution`: unnormalized, and NaN or inf wherever
    the samples leave the float range."""
    xs, z, q, _, _ = _default_inputs(model)
    return xs, _values(evaluate, len(xs), lambda a, b: (z[a:b], q[a:b]), model.half_line)


def sample(model, root, xs=None, chain=None, *, _solution=None):
    """Sample the normalized wavefunction of one constraint root.

    Assembles the polynomial part at ``root`` on ``chain`` (the model's
    exact chain, :func:`~qespectra.recurrence.exact_chain`; built here when
    not given), multiplies by the prefactor on ``xs`` (default:
    :func:`default_grid`) and normalizes by the trapezoid rule.  The
    returned wavefunction is positive at its first interior extremum.

    All roots of one model object sampled on the default grid share one
    read-only ``xs``: the grid, and the coordinate and prefactor on it, are
    built once for that model and kept until another model is sampled.  On
    an explicit ``xs``, such as the verifier's nodes of up to 900,000
    points, the coordinate and the prefactor are taken a block at a time.
    Either way :func:`_values` samples the grid in blocks, evaluating the
    polynomial once for each pair of mirror blocks whose coordinates are
    equal, bit for bit; the result is byte-identical to evaluating it at
    every point.  Where the coordinate is even on an exact mirror (the
    default grid, with the tanh^2, -sinh^2, cosh^2 and sinh^2 charts) that
    is half the points, and with a prefactor of the sector's parity psi is
    exactly even or odd.  psi, and the trapezoid terms of the norm, are
    the only arrays of the grid's length made for a root.

    The polynomial is S evaluated by the 80-bit Horner (:func:`_horner_block`).
    ``_solution``, which the finite-difference oracle alone passes, is S at
    ``root`` as :func:`solution` gives it, already assembled: with
    ``product`` it is the float64 product over the zeros of S wherever they
    certify (Jacobi seeds, one exact Newton step each, exact signs), and
    the Horner, the same bytes as without it, where they do not.

    Raises:
        NotARoot: ``root`` does not identify a root of the constraint.
        DegenerateGrid: an explicit ``xs`` is not 1-d, finite, increasing
            and at least 16 points long, or the state overflows on it.
    """
    evaluate = solution(model, root, chain) if _solution is None else _solution
    if xs is None:
        xs, z, q, symmetric, _ = _default_inputs(model)

        def rows(a, b):
            return z[a:b], q[a:b]
    else:
        xs = np.asarray(xs, dtype=float)
        # NaN compares false, so it would pass the ordering test below
        if not np.all(np.isfinite(xs)):
            raise DegenerateGrid("explicit grids must hold finite points only")
        if xs.ndim != 1 or len(xs) < 16 or np.any(np.diff(xs) <= 0):
            raise DegenerateGrid("explicit grids must be 1-d, increasing, >= 16 points")
        symmetric = not model.half_line and _is_symmetric(xs)

        def rows(a, b):
            return _chart(model, xs[a:b])
    psi = _values(evaluate, len(xs), rows, model.half_line)
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


def _values(evaluate, count, rows, half_line):
    """Q(x) S(z(x)) at the ``count`` rows of a grid; ``rows(a, b)`` gives the
    float64 coordinate and the prefactor at rows [a, b), and
    ``evaluate(z, out)`` writes S at a block of coordinates into ``out``,
    point by point.

    The first ceil(N/2) rows (all N on the half line) are walked a block of
    _HORNER_ROWS at a time, so the coordinate, the prefactor and the
    evaluation live for one block and its mirror only, and psi is the one
    array of N rows made here.  On the full line each block [a, b) is
    paired with its mirror rows [N - b, N - a), less an odd count's middle
    row, which is the block's own.  Where their coordinate is the block's
    reversed, bit for bit, the block's values serve them, as evaluating
    them would give anyway; else they are evaluated too.
    """
    psi = np.empty(count)
    stop = count if half_line else (count + 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, stop, _HORNER_ROWS):
            b = min(a + _HORNER_ROWS, stop)
            z, q = rows(a, b)
            evaluate(z, psi[a:b])
            if not half_line:
                lo, hi = max(count - b, b), count - a
                zm, qm = rows(lo, hi)
                if np.array_equal(zm, z[:hi - lo][::-1]):
                    psi[lo:hi] = psi[a:a + hi - lo][::-1]
                else:
                    evaluate(zm, psi[lo:hi])
                _times(qm, psi[lo:hi])
            _times(q, psi[a:b])
    return psi


def _times(q, block):
    """Multiply ``block`` by the prefactor ``q`` in place."""
    np.multiply(q, block, out=block)
    # 0 * inf in the dead tail: the underflowed prefactor wins.
    block[q == 0.0] = 0.0


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
