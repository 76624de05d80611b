"""Independent finite-difference check of the algebraic spectra.

The verifier discretizes H = -d^2/dx^2 + V with second-order central
differences and Dirichlet walls, finds the FD eigenvalue nearest each
algebraic energy, and reports the gap together with a discrete residual
||H psi - E psi|| / ||psi|| of the *algebraic* wavefunction on the same
grid.  The nearest eigenvalue is found by O(N) shift-and-invert solves.
When they settle, one Sturm count of the window of twice the gap about
the energy both certifies it and says it is not ambiguous (no second
eigenvalue that near), unless a second eigenvalue lies there; then a
bisection query of the disc nearer than the estimate settles it.  So very
fine grids stay cheap.

A Sturm count says how many eigenvalues lie in a window; it is the count
LAPACK's dstebz takes before it bisects (see :func:`_sturm_count`), taken
by dstebz's own kernel dlaebz through the pointer scipy.linalg.cython_lapack
exports.  It allocates e^2 alone, 8 bytes a row.  The bisection query goes
through ``sla.eigvalsh_tridiagonal``.

Convergence is attested on the grid with half the step: the gap shrinks
like h^2, so that grid must hold an eigenvalue within a third of the gap
(or within the noise floor) of the energy.  One Sturm count of that
window decides it; the refined grid is never solved.  On the full and the
half line every other node of the refined grid is a node of the first,
bit for bit, and keeps the potential already taken there.

Three discretizations are used:

* parity sectors (every model that declares ``parity`` "even" or "odd":
  xie, chen, razavy and perturbed-dshg at beta in {0, 1}): the half line
  only, at the nodes i h of a symmetric box [-L, L] with the full line's
  step h = 2L / (points + 1), up to i = M = points // 2 and a wall at
  (M + 1) h.  An odd state has a Dirichlet wall at 0 (i >= 1).  An even
  state has a node at 0, whose row folds in its mirror node, -2/h^2 on
  psi_1; a diagonal similarity makes that row symmetric, with -sqrt(2)/h^2
  off the diagonal.  This operator has exactly the eigenvalues of the
  state's parity of the full-line operator on the mirrored nodes i h,
  |i| <= M, so the other sector's levels are never the nearest.  The
  residual's stencil extends psi across 0 by its parity and counts every
  node but 0 twice, so it is the full-line residual;
* other full-line models (dshg, whose chart holds both parities): interior
  nodes of a uniform grid, walls at +-L;
* the radial Coulomb model: the plain 3-point stencil cannot see the correct
  x -> 0 behaviour through the inverse-square term (for exponents around
  1/2 it converges too slowly to pass a factor-3 halving test), so the
  substitution u = x**lam * v is discretized instead, in conservation form

      -(w v')' / w + U v = E v,     w = x**(2 lam),  U = x^2/4 - beta/x

  on half-offset nodes x_i = (i - 1/2) h.  The flux through x = 0 carries
  weight w(0) = 0, which encodes the regularity condition with no boundary
  fudging, and a diagonal similarity reduces the problem to a symmetric
  tridiagonal one.

No other half-line model (fractional-beta perturbed-dshg) has one; checking
it raises :class:`InvalidParams`.  Neither does a parity sector in a box
that is not symmetric about 0.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.linalg import cython_lapack

from . import wavefunctions
from .errors import DegenerateGrid, InvalidParams
from .models import CoulombOscillator

# The gap is "converged" when the grid with half the step has an eigenvalue
# within gap / _SHRINK of the energy, or within the noise floor.
_SHRINK = 3.0
_GAP_FLOOR = 1e-9
# Nearest-eigenvalue query: inverse-iteration solves at the target, then at
# most this many Rayleigh-quotient steps; the FD matrix's rounding floor is
# _FLOOR_EPS * eps * ||T||.
_INVERSE_SOLVES = 2
_RQ_STEPS = 3
_FLOOR_EPS = 8.0
# Step-size rule for default grids: h = _H_SCALE / max(1, E - min V).
_H_SCALE = 0.07
_MIN_POINTS = 4000
_MAX_POINTS = 900_000
# Finer steps are refused: the residual's sums grow like h^-5 and leave the
# float range near h = 1e-61, far below any step a bound state needs.
_MIN_STEP = 1e-30
# Rows a step of the chunked O(N) scans that prepare a Sturm count, so that
# e^2 is the only array of N rows a count allocates.
_STURM_ROWS = 4096
# LAPACK's safe minimum and relative precision, dlamch("S") and dlamch("P").
_SAFEMIN = np.finfo(float).tiny
_ULP = np.finfo(float).eps
# dstebz widens each block's Gershgorin interval by FUDGE * (||T|| ulp N + PIVMIN).
_FUDGE = 2.1


def _lapack_function(name, *argtypes):
    """The LAPACK routine ``name`` that scipy.linalg.cython_lapack exports, via ctypes."""
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = capsule_pointer(capsule, capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_INT_P = ctypes.POINTER(ctypes.c_int)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
# DLAEBZ(IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL, RELTOL, PIVMIN, D, E, E2,
#        NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO): the bisection kernel of
# dstebz.  IJOB = 1 only counts: NAB(i) = how many eigenvalues lie at or
# below AB(i), by the Sturm sequence of the pivots of T - AB(i).
_dlaebz = _lapack_function(
    "dlaebz", *[_INT_P] * 6, *[_DOUBLE_P] * 6, _INT_P, _DOUBLE_P, _DOUBLE_P,
    _INT_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P,
)


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference grid: Dirichlet box [xmin, xmax] with interior points.

    A parity sector takes the half line of a symmetric box, at the full
    line's step: the nodes i h, i <= points // 2, of one side.
    """

    xmin: float
    xmax: float
    points: int = 4000

    def __post_init__(self):
        if not (math.isfinite(self.xmin) and math.isfinite(self.xmax)):
            raise DegenerateGrid("grid endpoints must be finite")
        if not self.xmax > self.xmin:
            raise DegenerateGrid("xmax must exceed xmin")
        if self.points < 100:
            raise DegenerateGrid("fewer than 100 points cannot support verification")
        if not (self.xmax - self.xmin) / (self.points + 1) >= _MIN_STEP:
            raise DegenerateGrid(f"grid steps below {_MIN_STEP:g} cannot support verification")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one algebraic energy against the FD operator."""

    algebraic_energy: float
    nearest_fd_energy: float
    abs_gap: float
    residual: float
    converged: bool
    ambiguous: bool
    # of the algebraic wavefunction on the residual grid; for a parity
    # sector, on the mirrored full line: 2c (even) or 2c + 1 (odd), where c
    # is the count on the half-line nodes
    node_count: int


def _is_radial(model):
    """Whether the model takes the radial discretization (Coulomb alone)."""
    if isinstance(model, CoulombOscillator):
        return True
    if model.half_line:
        raise InvalidParams(f"no finite-difference discretization for a half-line "
                            f"{type(model).__name__}; only Coulomb has a radial one")
    return False


def _kind(model):
    """The model's discretization: "radial", "even", "odd" or "full"."""
    if _is_radial(model):
        return "radial"
    parity = getattr(model, "parity", None)
    return parity if parity in ("even", "odd") else "full"


def _uniform_nodes(cfg):
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    xs = cfg.xmin + h * np.arange(1, cfg.points + 1)
    return xs, h


def _half_nodes(cfg, parity):
    """Nodes i h of the half line: 0 <= i <= M for even states, 1 <= i <= M for odd.

    h is the full line's step in the box, and M = points // 2 numbers the
    last node inside it.  The refined box's step is h / 2, exactly, so its
    even-numbered nodes are these, bit for bit.
    """
    if cfg.xmin != -cfg.xmax:
        raise InvalidParams(f"a parity sector is checked on the half line, so its box "
                            f"must be symmetric: xmin = -xmax, got [{cfg.xmin}, {cfg.xmax}]")
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    xs = h * np.arange(1 if parity == "odd" else 0, cfg.points // 2 + 1)
    return xs, h


def _offset_nodes(cfg):
    h = (cfg.xmax - cfg.xmin) / cfg.points
    xs = cfg.xmin + (np.arange(cfg.points) + 0.5) * h
    return xs, h


def _nodes(model, cfg):
    """(xs, h): the nodes of ``cfg`` in the model's discretization, and the step."""
    kind = _kind(model)
    if kind == "radial":
        return _offset_nodes(cfg)
    if kind == "full":
        return _uniform_nodes(cfg)
    return _half_nodes(cfg, kind)


def grid_nodes(model, cfg):
    """The sampling nodes verify_root expects wavefunctions on."""
    return _nodes(model, cfg)[0]


def _potential(model, xs, scan):
    """V at ``xs``; a box on which it leaves the float range is refused here."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.asarray(model.potential(xs, scan), dtype=float)
    if not np.isfinite(v).all():
        raise DegenerateGrid("the potential overflows on this box")
    return v


def _tridiag_line(v, h, kind):
    """The 3-point operator on the nodes of ``kind`` with potential ``v`` there.

    The full line and the odd half line have Dirichlet walls at both ends;
    the even half line's first row, symmetrized, couples node 0 to node 1
    by -sqrt(2)/h^2.
    """
    diag = 2.0 / (h * h) + v
    off = np.full(len(v) - 1, -1.0 / (h * h))
    if kind == "even":
        off[0] = -math.sqrt(2.0) / (h * h)
    return diag, off


def _radial_weight(model, x, out=None):
    """The weight w = x**(2 lam) of the radial conservation form, at ``x``."""
    return np.power(x, 2 * float(model.lam), out=out)


def _tridiag_radial(model, scan, cfg, xs, h):
    """Symmetric reduction of the weighted conservation-form operator."""
    if cfg.xmin != 0.0:
        raise InvalidParams("the radial discretization anchors the box at xmin = 0")
    w_left = _radial_weight(model, np.maximum(xs - 0.5 * h, 0.0))
    w_right = _radial_weight(model, xs + 0.5 * h)
    w_mid = _radial_weight(model, xs)
    u_pot = 0.25 * xs * xs - float(scan) / xs
    diag = (w_left + w_right) / (h * h * w_mid) + u_pot
    # Dirichlet at the outer wall: the right flux of the last node leaves.
    off = -w_right[:-1] / (h * h * np.sqrt(w_mid[:-1] * w_mid[1:]))
    return diag, off


def _tridiag(model, scan, cfg):
    xs, h = _nodes(model, cfg)
    kind = _kind(model)
    if kind == "radial":
        return _tridiag_radial(model, scan, cfg, xs, h)
    return _tridiag_line(_potential(model, xs, scan), h, kind)


def _start_vector(n):
    """Fixed, zero-mean start for inverse iteration.

    Pseudo-random entries overlap every eigenvector, whatever its parity.
    """
    x = np.random.default_rng(0).random(n)
    x -= 0.5
    x /= np.linalg.norm(x)
    return x


def _nearest(diag, off, energy):
    """The eigenvalue of T = (diag, off) nearest ``energy``, and its ambiguity.

    Returns (nearest, ambiguous), where ambiguous says that a second
    eigenvalue lies within twice the gap |nearest - E| of E, as
    :func:`_ambiguous` counts it.

    Find: factor T - E once, take two inverse-iteration solves from a fixed
    start, then Rayleigh-quotient steps (an LU solve at the current estimate
    each) until one moves the estimate lam by no more than the rounding
    floor 8 eps ||T||.  An exactly singular T - E makes E itself the answer.

    Certify: the residual r of the final pair puts an eigenvalue within r of
    lam.  If the steps settled (r at most twice the floor) and lam lies
    farther than max(r, floor) from E, that eigenvalue lies within
    |lam - E| + r < 2 |lam - E| of E, and one Sturm count of the window
    |mu - E| <= 2 |lam - E| answers both questions: a count of at most one
    means nothing lies nearer, so lam stands and is not ambiguous.  Past
    that, one bisection query on the disc |mu - E| < |lam - E| - max(r,
    floor) settles it.  An empty disc certifies lam, and the count says it
    is ambiguous; any eigenvalue inside is bisected to full precision by the
    same call and the nearest replaces lam.  It is ambiguous if twice its
    gap still reaches the eigenvalue near the old lam; else its own window
    is counted.  If the steps stalled (r above twice the floor, as for E
    midway between two eigenvalues), the disc grows to |lam - E| + r
    instead, which holds at least one eigenvalue, and ambiguity takes a
    count of its own.
    """
    lapack = sla.lapack
    tnorm = max(diag.max(), -diag.min()) + 2.0 * max(
        off.max(initial=0.0), -off.min(initial=0.0)
    )
    floor = _FLOOR_EPS * np.finfo(float).eps * tnorm
    dl, d, du, du2, ipiv, info = lapack.dgttrf(
        off.copy(), diag - energy, off.copy(),
        overwrite_dl=1, overwrite_d=1, overwrite_du=1,
    )
    if info > 0:
        return float(energy), False
    x = _start_vector(len(diag))
    lam = energy
    for _ in range(_INVERSE_SOLVES):
        y = lapack.dgttrs(dl, d, du, du2, ipiv, x)[0]
        lam = energy + (x @ y) / (y @ y)
        y /= np.linalg.norm(y)
        x = y
    del du2, ipiv
    for _ in range(_RQ_STEPS):
        shift = lam
        np.subtract(diag, shift, out=d)
        dl[:] = off
        du[:] = off
        y, info = lapack.dgtsv(
            dl, d, du, x, overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )[3:]
        if info > 0:  # exactly singular: the shift is an eigenvalue
            break
        lam = shift + (x @ y) / (y @ y)
        y /= np.linalg.norm(y)
        x = y
        if abs(lam - shift) <= floor:
            break
    # r = (T - lam) x, in the factorization's buffers
    r = np.subtract(diag, lam, out=d)
    r *= x
    r[:-1] += np.multiply(off, x[1:], out=dl)
    r[1:] += np.multiply(off, x[:-1], out=du)
    resid = float(np.linalg.norm(r))
    del x, y, r, d, dl, du

    dist = abs(lam - energy)
    settled = resid <= 2.0 * floor
    radius = dist - max(resid, floor) if settled else dist + resid
    count = None
    if settled and radius > 0.0:
        count = _count_within(diag, off, energy, 2.0 * dist)
    if radius > 0.0 and (count is None or count >= 2):
        inside = sla.eigvalsh_tridiagonal(
            diag, off, select="v", select_range=(energy - radius, energy + radius)
        )
        if len(inside):
            lam = inside[np.argmin(np.abs(inside - energy))]
            # The old estimate's eigenvalue lies within dist + max(r, floor)
            # of E; unless twice the new gap clears that, count afresh.
            if 2.0 * abs(lam - energy) <= dist + max(resid, floor) + floor:
                count = None
    nearest = float(lam)
    if count is None:
        return nearest, _ambiguous(diag, off, energy, abs(nearest - energy))
    return nearest, count >= 2


def _count_within(diag, off, centre, radius):
    """How many eigenvalues of T = (diag, off) lie within ``radius`` of ``centre``.

    A Sturm count (see :func:`_sturm_count`) counts the half-open window
    (vl, vu], so vl is taken one float below centre - radius to close it.
    """
    lower = np.nextafter(centre - radius, -np.inf)
    return _sturm_count(diag, off, lower, centre + radius)


def _sturm_count(diag, off, lower, upper):
    """How many eigenvalues of T = (diag, off) lie in (lower, upper], as dstebz counts them.

    LAPACK's dstebz (``sla.eigvalsh_tridiagonal(select="v")``) counts the
    window before it bisects anything: two Sturm counts on each unreduced
    block of T, taken by its kernel dlaebz.  Here dlaebz takes the same two
    counts on the same inputs, so the number is the one dstebz returns:

    * e^2, zeroed where dstebz splits T: |d_j d_(j+1)| ulp^2 + safemin > e_j^2;
    * dstebz's PIVMIN, safemin max(1, e_j^2) over the e_j it keeps;
    * the window clipped to each block's Gershgorin interval, widened by
      2.1 (||block|| ulp rows + PIVMIN); a block of one row holds its
      diagonal entry less PIVMIN.

    e^2 is the one array of N rows it allocates, 8 bytes a row; the split
    test and the Gershgorin scan run over chunks of _STURM_ROWS rows.  (The
    f2py dstebz allocates and zero-fills 60 bytes a row of workspace.)
    """
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    if diag.ndim != 1 or off.shape != (len(diag) - 1,):
        raise ValueError("a tridiagonal matrix of N rows takes N - 1 off-diagonal entries")
    # as eigvalsh_tridiagonal does: a potential that overflows on the box
    # must not pass for a count
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    e2 = off * off
    splits = []
    # a product past the float range is inf, and splits, as in LAPACK
    with np.errstate(over="ignore"):
        for start in range(0, len(e2), _STURM_ROWS):
            stop = min(start + _STURM_ROWS, len(e2))
            test = np.multiply(diag[start + 1:stop + 1], diag[start:stop])
            np.abs(test, out=test)
            test *= _ULP * _ULP
            test += _SAFEMIN
            split = start + np.flatnonzero(test > e2[start:stop])
            e2[split] = 0.0
            splits.append(split)
    pivmin = max(1.0, float(e2.max(initial=0.0))) * _SAFEMIN
    count, begin = 0, 0
    for end in np.concatenate(splits + [[len(diag) - 1]]) + 1:
        count += _block_count(diag, off, e2, int(begin), int(end), lower, upper, pivmin)
        begin = end
    return count


def _block_count(diag, off, e2, begin, end, lower, upper, pivmin):
    """dstebz's count in (lower, upper] for the unreduced block of rows begin..end-1."""
    rows = end - begin
    if rows == 1:
        return int(lower < diag[begin] - pivmin <= upper)
    gl, gu = _gershgorin(diag, off, begin, end)
    bnorm = max(abs(gl), abs(gu))
    gl = gl - _FUDGE * bnorm * _ULP * rows - _FUDGE * pivmin
    gu = gu + _FUDGE * bnorm * _ULP * rows + _FUDGE * pivmin
    if gu < lower:
        return 0
    gl, gu = max(gl, lower), min(gu, upper)
    if gl >= gu:
        return 0
    d, e, e_sq = diag[begin:end], off[begin:end - 1], e2[begin:end - 1]
    one, zero, n = ctypes.c_int(1), ctypes.c_int(0), ctypes.c_int(rows)
    tol, piv = ctypes.c_double(0.0), ctypes.c_double(pivmin)
    ab, scratch = (ctypes.c_double * 2)(gl, gu), (ctypes.c_double * 1)()
    nab, iscratch = (ctypes.c_int * 2)(), (ctypes.c_int * 1)()
    mout, info = ctypes.c_int(), ctypes.c_int()
    _dlaebz(
        one, zero, n, one, one, zero, tol, tol, piv,
        d.ctypes.data_as(_DOUBLE_P), e.ctypes.data_as(_DOUBLE_P),
        e_sq.ctypes.data_as(_DOUBLE_P), iscratch, ab, scratch, mout, nab,
        scratch, iscratch, info,
    )
    return mout.value


def _gershgorin(diag, off, begin, end):
    """dstebz's Gershgorin interval of the block of rows begin..end-1, unwidened.

    Row j spans (d_j -+ |e_(j-1)|) -+ |e_j|, with no e beyond the block's
    ends, summed in dstebz's order.
    """
    gl, gu = math.inf, -math.inf
    for start in range(begin, end, _STURM_ROWS):
        stop = min(start + _STURM_ROWS, end)
        # a[k] = |e| left of row start + k, a[k + 1] = |e| right of it
        a = np.zeros(stop - start + 1)
        lo, hi = max(start - 1, begin), min(stop, end - 1)
        np.abs(off[lo:hi], out=a[lo - start + 1:hi - start + 1])
        d = diag[start:stop]
        bound = d + a[:-1]
        bound += a[1:]
        gu = max(gu, float(bound.max()))
        np.subtract(d, a[:-1], out=bound)
        bound -= a[1:]
        gl = min(gl, float(bound.min()))
    return gl, gu


def _ambiguous(diag, off, energy, gap):
    """Whether a second eigenvalue lies within 2 ``gap`` of ``energy``."""
    return gap > 0.0 and _count_within(diag, off, energy, 2.0 * gap) >= 2


def _residual_full_line(v, h, psi, energy):
    """Discrete action residual ||(H - E) psi||_2 / ||psi||_2.

    ``psi`` and the potential ``v`` are sampled on uniform nodes of step h.

    The Laplacian uses the five-point fourth-order stencil away from the
    walls and the three-point one beside them (the state has decayed to
    ~1e-12 of its peak there), so the reported number reflects the analytic
    pair rather than the second-order truncation of the eigenvalue mesh.
    """
    lap = np.zeros_like(psi)
    lap[2:-2] = (
        -psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]
    ) / 12.0
    lap[1] = psi[0] - 2.0 * psi[1] + psi[2]
    lap[-2] = psi[-3] - 2.0 * psi[-2] + psi[-1]
    lap[0] = -2.0 * psi[0] + psi[1]
    lap[-1] = psi[-2] - 2.0 * psi[-1]
    r = -lap / (h * h) + (v - energy) * psi
    return float(np.linalg.norm(r) / np.linalg.norm(psi))


def _residual_half_line(v, h, psi, energy, parity):
    """The full-line residual of psi extended by its parity, on the half line.

    ``psi`` and ``v`` are sampled on the half-line nodes of ``parity``.  The
    mirror nodes -2 and -1 (even) or -1 and 0 (odd) take +-psi there, so the
    stencil rows at and next to 0 are the full line's; the outer wall's rows
    are those of :func:`_residual_full_line`.  Each node other than 0
    stands for itself and its mirror, so it counts twice in both norms, and
    the ratio is the full-line one; an odd state's row 0 vanishes.
    """
    ghosts = psi[2:0:-1] if parity == "even" else [-psi[0], 0.0]
    ext = np.concatenate((ghosts, psi))
    lap = np.empty_like(psi)
    lap[:-2] = (
        -ext[:-4] + 16.0 * ext[1:-3] - 30.0 * ext[2:-2] + 16.0 * ext[3:-1] - ext[4:]
    ) / 12.0
    lap[-2] = psi[-3] - 2.0 * psi[-2] + psi[-1]
    lap[-1] = psi[-2] - 2.0 * psi[-1]
    r = -lap / (h * h) + (v - energy) * psi
    num, den = r @ r, psi @ psi
    if parity == "even":  # node 0 once, the others twice
        num, den = 2.0 * num - r[0] * r[0], 2.0 * den - psi[0] * psi[0]
    return float(math.sqrt(num / den))


def _residual_radial(model, scan, cfg, xs, h, psi, energy):
    """Weighted-norm residual of the conservation-form operator.

    The algebraic wavefunction u is converted to v = u / x**lam; the
    residual is measured in the L2(w dx) norm in which the operator is
    self-adjoint, so the truncated first node carries its proper (vanishing)
    weight.

    Face gradients and the conservative divergence both use the staggered
    fourth-order pair 27(f_{1/2} - f_{-1/2}) - (f_{3/2} - f_{-3/2}) where
    that stencil fits.  The origin end cannot be left at second order: its
    h^2 truncation survives the vanishing-weight dilution in the norm ratio
    and caps the whole measurement, so face 1 and row 0 use the one-sided
    four-point stencil (-23, 21, 3, -1)/24 instead (the exact F(0) = 0 flux
    anchors row 0).  The outer-wall rows stay at second order; the state has
    decayed to nothing there.  ``psi`` is sampled on the nodes ``xs`` of
    ``cfg``, of step h.
    """
    m = len(xs)
    v = np.power(xs, float(model.lam))
    np.divide(psi, v, out=v)
    # Four buffers of ~m rows, each value computed as in the plain formulas
    # (noted beside each step): the face weights become the fluxes, the
    # gradients the divergence, then the potential and the weight w_mid.
    flux = np.arange(m + 1, dtype=float)
    flux *= h
    flux += cfg.xmin
    _radial_weight(model, flux, out=flux)  # w at the faces xmin + h i
    tmp = np.empty(m)
    grad = np.empty(m + 1)
    # grad[2:-2] = (27 (v[2:-1] - v[1:-2]) - (v[3:] - v[:-3])) / (24 h)
    inner = np.subtract(v[2:-1], v[1:-2], out=grad[2:-2])
    inner *= 27.0
    inner -= np.subtract(v[3:], v[:-3], out=tmp[:m - 3])
    inner /= 24.0 * h
    grad[0] = 0.0
    grad[1] = (-23.0 * v[0] + 21.0 * v[1] + 3.0 * v[2] - v[3]) / (24.0 * h)
    grad[-2] = (v[-1] - v[-2]) / h
    grad[-1] = (0.0 - v[-1]) / h  # Dirichlet outer wall
    flux *= grad
    flux[0] = 0.0  # weight w(0) = 0 closes the origin end
    div = grad[:m]
    # div[1:-2] = (27 (flux[2:-2] - flux[1:-3]) - (flux[3:-1] - flux[:-4])) / (24 h)
    inner = np.subtract(flux[2:-2], flux[1:-3], out=div[1:-2])
    inner *= 27.0
    inner -= np.subtract(flux[3:-1], flux[:-4], out=tmp[:m - 3])
    inner /= 24.0 * h
    div[0] = (21.0 * flux[1] + 3.0 * flux[2] - flux[3]) / (24.0 * h)
    div[-2:] = (flux[-2:] - flux[-3:-1]) / h
    # (u_pot - energy) v, u_pot = 0.25 x x - scan / x
    pot = np.multiply(0.25, xs, out=tmp)
    pot *= xs
    pot -= np.divide(float(scan), xs, out=flux[:m])
    pot -= energy
    pot *= v
    w_mid = _radial_weight(model, xs, out=flux[:m])
    # r = -div / w_mid + (u_pot - energy) v
    r = np.negative(div, out=div)
    r /= w_mid
    r += pot
    # sqrt(sum(w_mid * r * r)) / sqrt(sum(w_mid * v * v))
    np.multiply(w_mid, r, out=tmp)
    num = float(np.sqrt(np.sum(np.multiply(tmp, r, out=tmp))))
    np.multiply(w_mid, v, out=tmp)
    den = float(np.sqrt(np.sum(np.multiply(tmp, v, out=tmp))))
    return num / den


def default_verify_config(model, root):
    """Pick a box and step so the FD gap sits well inside tolerance.

    The box extends past the sampled decay width of the state; the step
    follows the local-error estimate h^2 (E - min V)^2 / 12, clamped to a
    sane point range.  The energy scales of the deepest catalog wells push
    the defaults far beyond 4000 points; O(N) nearest-eigenvalue queries
    keep that cheap.
    """
    scan = root
    energy = model.energy(root)
    halfwidth = wavefunctions.decay_halfwidth(model, model.n)
    if _is_radial(model):
        xmin, xmax = 0.0, 1.15 * halfwidth + 2.0
        probe = np.linspace(0.3, xmax, 1500)
    else:
        xmax = 1.15 * halfwidth + 2.0
        xmin = -xmax
        probe = np.linspace(xmin, xmax, 3001)
    vmin = float(np.min(model.potential(probe, scan)))
    k2 = max(1.0, energy - vmin)
    h = _H_SCALE / k2
    points = int(np.clip((xmax - xmin) / h, _MIN_POINTS, _MAX_POINTS))
    return FdConfig(xmin=xmin, xmax=xmax, points=points)


def _radial_residual_config(model, scan, cfg):
    """Mesh for the radial residual alone (it never feeds an eigensolve).

    The fourth-order stencil leaves two error sources.  Truncation peaks at
    the Coulomb core, where the state varies on the hydrogenic scale
    (2 lam + 1) / |scan| that the energy-scale step rule never sees (the
    eigenvalue is variational and barely notices the core).  Rounding noise
    pulls the other way: the second difference amplifies float64 jitter by
    1/h^2, so refining *past* the truncation point makes the measured
    residual grow again.  Stepping at ~1.5e-3 of the core scale keeps the
    truncation orders below the tolerances while staying clear of the noise
    regime.
    """
    k_core = 1.0 + abs(float(scan)) / (2.0 * float(model.lam) + 1.0)
    span = cfg.xmax - cfg.xmin
    points = int(min(max(cfg.points, span * k_core / 1.5e-3), _MAX_POINTS))
    return FdConfig(cfg.xmin, cfg.xmax, points)


def _doubled(model, cfg):
    if _is_radial(model):
        return FdConfig(cfg.xmin, cfg.xmax, 2 * cfg.points)
    # 2N+1 interior points exactly halve the interior step.
    return FdConfig(cfg.xmin, cfg.xmax, 2 * cfg.points + 1)


def _refined(model, scan, cfg, v):
    """The 3-point operator on the line grid with half the step of ``cfg``.

    ``v`` is the potential on the nodes of ``cfg``.  The refined grid halves
    the step exactly, in floats too (h / 2 is exact), so every other one of
    its nodes is a node of ``cfg`` bit for bit and keeps its potential from
    ``v``: on the full line and the odd half line the odd-numbered nodes
    [1::2], on the even half line the even-numbered ones [0::2].  The
    model's potential is taken only at the others, the new nodes.
    """
    kind = _kind(model)
    xs, h = _nodes(model, _doubled(model, cfg))
    old, new = slice(1, None, 2), slice(0, None, 2)
    if kind == "even":
        old, new = new, old
    v_fine = np.empty(len(xs))
    v_fine[new] = _potential(model, xs[new], scan)
    v_fine[old] = v
    return _tridiag_line(v_fine, h, kind)


def verify_root(model, root, energy=None, cfg=None, chain=None):
    """Check one algebraic (root, energy) pair against the FD operator.

    The wavefunction is sampled here, on :func:`grid_nodes` of ``cfg``; when
    ``cfg`` is the default, the radial residual gets its own finer mesh.
    A state with no second eigenvalue within twice its gap takes two
    eigenvalue queries: one Sturm count certifies the nearest eigenvalue
    and says it is not ambiguous (see :func:`_nearest`), and one more on
    the grid with half the step decides convergence.  On the full and the
    half line the potential is taken once on the nodes of ``cfg`` and
    serves the residual, the operator and every other node of the refined
    operator.  A parity sector is sampled on the half-line nodes alone, so
    each point is evaluated once.
    """
    energy = model.energy(root) if energy is None else float(energy)
    scan = root
    res_cfg = cfg
    if cfg is None:
        cfg = res_cfg = default_verify_config(model, root)
        if _is_radial(model):
            res_cfg = _radial_residual_config(model, scan, cfg)
    # The residual's nodes; on the line they are the operator's too, and so
    # is the potential on them, which the refined operator reuses.
    xs, h = _nodes(model, res_cfg)
    grid = wavefunctions.sample(model, root, xs=xs, chain=chain)
    psi = np.asarray(grid.psi, dtype=float)
    node_count = int(grid.node_count)
    del grid

    kind = _kind(model)
    if kind == "radial":
        residual = _residual_radial(model, scan, res_cfg, xs, h, psi, energy)
        del xs, psi
        diag, off = _tridiag(model, scan, cfg)
        nearest, ambiguous = _nearest(diag, off, energy)
        del diag, off
        diag, off = _tridiag(model, scan, _doubled(model, cfg))
    else:
        v = _potential(model, xs, scan)
        if kind == "full":
            residual = _residual_full_line(v, h, psi, energy)
        else:
            residual = _residual_half_line(v, h, psi, energy, kind)
            # the mirror image doubles each node; an odd state adds one at 0
            node_count = 2 * node_count + (kind == "odd")
        del xs, psi
        diag, off = _tridiag_line(v, h, kind)
        nearest, ambiguous = _nearest(diag, off, energy)
        del diag, off
        diag, off = _refined(model, scan, cfg, v)
        del v
    gap = abs(nearest - energy)
    reach = max(gap / _SHRINK, _GAP_FLOOR * max(1.0, abs(energy)))
    converged = _count_within(diag, off, energy, reach) > 0
    return VerificationReport(
        algebraic_energy=energy,
        nearest_fd_energy=nearest,
        abs_gap=gap,
        residual=residual,
        converged=converged,
        ambiguous=ambiguous,
        node_count=node_count,
    )
