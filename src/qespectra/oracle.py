"""Independent finite-difference check of the algebraic spectra.

The verifier discretizes H = -d^2/dx^2 + V with second-order central
differences and Dirichlet walls, pairs each algebraic state with the FD
level k of its node count (by the discrete oscillation theorem, Gantmacher
and Krein, the eigenvector of level k of a Jacobi matrix has exactly k
sign changes), and reports the gap together with a discrete residual
||H psi - E psi|| / ||psi|| of the *algebraic* wavefunction on the same
grid.  Level k is found by O(N) Rayleigh-quotient solves from that
wavefunction, certified by one Sturm count or else bisected (see
:func:`_nearest`).  So very fine grids stay cheap.

One kernel counts and locates levels: dstebz's Sturm count, LAPACK's
dlaebz, through the pointer scipy.linalg.cython_lapack exports, on dstebz's
inputs (:func:`_sturm`).  It counts a window (:func:`_count_within`) and
bisects a level to neighbouring floats (:func:`_bisect`) in e^2, 8 bytes a
row, and the diagonal where the operator holds only the potential.

Convergence is attested by Richardson's h^2 rule (L. F. Richardson, Phil.
Trans. R. Soc. A 210 (1911) 307) on the grid's own subgrid of step 2h:
level k is taken there too, from the grid's own eigenvector, and the
extrapolation E_R = E_h + (E_h - E_2h) / 3 must lie within a tenth of the
shift |E_h - E_2h| (or within the noise floor) of the energy.  On the
half line the subgrid is every other node, bit for bit, and keeps the
potential already taken there; no grid finer than the first is built.

Two discretizations are used:

* the half line of a parity sector, for every line model: at the nodes
  i h of a symmetric box [-L, L] with the full line's step
  h = 2L / (points + 1), up to i = M = points // 2 and a wall at
  (M + 1) h.  An odd state has a Dirichlet wall at 0 (i >= 1).  An even
  state has a node at 0, whose row folds in its mirror node, -2/h^2 on
  psi_1; a diagonal similarity makes that row symmetric, with -sqrt(2)/h^2
  off the diagonal.  This operator has exactly the eigenvalues of the
  state's parity of the full-line operator on the mirrored nodes i h,
  |i| <= M.  A model that declares ``parity`` "even" or "odd" (xie, chen,
  razavy and perturbed-dshg at beta in {0, 1}) is sampled on its sector's
  nodes alone, and the state's level index is its node count c there,
  before it is doubled for the report.  dshg, whose chart holds both
  parities, is sampled on the mirrored nodes: level k of the mirrored
  line has k sign changes, so its parity is that of k, and the state's
  node count k picks its sector.  psi is projected onto that parity on
  the half line, (psi(x) +- psi(-x)) / 2, and its level there is k // 2.
  The residual's stencil extends psi across 0 by its parity and counts
  every node but 0 twice, so it is the full-line residual;
* the radial Coulomb model: the plain 3-point stencil cannot see the correct
  x -> 0 behaviour through the inverse-square term (for exponents around
  1/2 it converges too slowly for the h^2 rule), so the
  substitution u = x**lam * v is discretized instead, in conservation form

      -(w v')' / w + U v = E v,     w = x**(2 lam),  U = x^2/4 - beta/x

  on half-offset nodes x_i = (i - 1/2) h.  The flux through x = 0 carries
  weight w(0) = 0, which encodes the regularity condition with no boundary
  fudging, and a diagonal similarity reduces the problem to a symmetric
  tridiagonal one.

No other half-line model (fractional-beta perturbed-dshg) has one; checking
it raises :class:`InvalidParams`.  Neither does a line model in a box that
is not symmetric about 0.
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

# The gap is "converged" when the Richardson extrapolation from the grid and
# its subgrid of step 2h lies within _SHIFT_SHARE of their shift of the
# energy, or within the noise floor.
_SHIFT_SHARE = 0.1
_GAP_FLOOR = 1e-9
# Level query: at most this many Rayleigh-quotient steps; the FD matrix's
# rounding floor is _FLOOR_EPS * eps * ||T||.
_RQ_STEPS = 3
_FLOOR_EPS = 8.0
# Step rules for default grids: on the line, the gap h^2 <(V - E)^2> / 12
# that the state's own psi predicts is _GAP_TARGET; on the radial line,
# h = _H_SCALE / max(1, E - min V).
_GAP_TARGET = 3e-4
_H_SCALE = 0.091
_MIN_POINTS = 4000
_MAX_POINTS = wavefunctions._MAX_POINTS
# Finer steps are refused, as for sampling: the residual's sums grow like
# h^-5 and leave the float range near h = 1e-61, far below any step a bound
# state needs.
_MIN_STEP = wavefunctions._MIN_STEP
# Rows a block of every per-node stage but the solves and the counts: the
# potential, the residuals, the sums of squares and the split test of a
# Sturm count, so that their temporaries stay this size whatever the grid.
_ROWS = 4096
# LAPACK's safe minimum and relative precision, dlamch("S") and dlamch("P").
_SAFEMIN = np.finfo(float).tiny
_ULP = np.finfo(float).eps
# An off-diagonal entry this large squares to inf in e^2.
_E_MAX = math.sqrt(np.finfo(float).max)
# The largest float's place on the float lattice, which holds every level
# (a float's bits as an integer, negated below 0: neighbours lie one apart).
_LATTICE_END = int(np.finfo(float).max.view(np.int64))


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

    A line model takes the half line of a symmetric box, at the full line's
    step: the nodes i h, i <= points // 2, of one side.
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
    """Outcome of checking one algebraic energy against the FD operator:
    ``nearest_fd_energy`` is the FD level of the state's node index, and
    ``subgrid_fd_energy`` that level with step 2h (NaN where there is none);
    see :func:`verify_root` for their extrapolation and the verdicts."""

    algebraic_energy: float
    nearest_fd_energy: float
    subgrid_fd_energy: float
    richardson_energy: float
    abs_gap: float
    extrapolation_error: float
    residual: float
    converged: bool
    ambiguous: bool
    # of the algebraic wavefunction on the residual grid: on the radial
    # line, or on the mirrored nodes +-i h (dshg); for a parity sector, on
    # the mirrored line too, 2c (even) or 2c + 1 (odd), where c is the count
    # on the half-line nodes
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
    """The model's discretization: "radial", the sector "even" or "odd", or
    None where the chart holds both parities (dshg), and each state takes
    the sector of its node count."""
    if _is_radial(model):
        return "radial"
    return getattr(model, "parity", None)


def _line_nodes(cfg, parity):
    """Nodes i h of the line: 0 <= i <= M for even states, 1 <= i <= M for
    odd ones, and the mirrored nodes |i| <= M where ``parity`` is None.

    h is the full line's step in the box, and M = points // 2 numbers the
    last node inside it.  -i h is -(i h), bit for bit, and j (2h) is (2j) h,
    since 2h is exact: the subgrid of step 2h is every other node.
    """
    if cfg.xmin != -cfg.xmax:
        raise InvalidParams(f"a line model is checked on the half line, so its box "
                            f"must be symmetric: xmin = -xmax, got [{cfg.xmin}, {cfg.xmax}]")
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    last = cfg.points // 2
    xs = np.arange({"even": 0, "odd": 1, None: -last}[parity], last + 1, dtype=float)
    xs *= h
    return xs, h


def _offset_nodes(cfg, start, stop, step=1):
    """The half-offset nodes xmin + (i + 1/2) h of ``cfg`` for start <= i < stop, and h;
    h is ``step`` times the step of ``cfg``."""
    h = step * (cfg.xmax - cfg.xmin) / cfg.points
    xs = np.arange(start, stop, dtype=float)
    xs += 0.5
    xs *= h
    xs += cfg.xmin
    return xs, h


def _nodes(model, cfg):
    """(xs, h): the nodes of ``cfg`` in the model's discretization, and the step."""
    kind = _kind(model)
    if kind == "radial":
        return _offset_nodes(cfg, 0, cfg.points)
    return _line_nodes(cfg, kind)


def grid_nodes(model, cfg):
    """The sampling nodes verify_root expects wavefunctions on."""
    return _nodes(model, cfg)[0]


def _potential(model, xs, scan):
    """V at ``xs``, a block of _ROWS rows at a time; a box on which it
    leaves the float range is refused here."""
    v = np.empty(len(xs))
    for start in range(0, len(xs), _ROWS):
        with np.errstate(over="ignore", invalid="ignore"):
            v[start:start + _ROWS] = model.potential(xs[start:start + _ROWS], scan)
    if not np.isfinite(v).all():
        raise DegenerateGrid("the potential overflows on this box")
    return v


@dataclass(frozen=True)
class _Tridiagonal:
    """A symmetric tridiagonal matrix T of N rows, held as little as it allows.

    Its diagonal is ``base + shift``, or ``base`` itself when shift is 0.0:
    a line operator keeps the potential and adds 2/h^2 wherever the
    diagonal is read, unless it was built in place.  Its off-diagonal is
    ``off``, N - 1 entries, but for row 0, which couples to row 1 by
    ``first`` unless that is None.  On the line ``off`` is one constant, a
    stride-0 view, and ``first`` differs from it on the even half line alone,
    so a line operator holds no array of N rows but ``base``.  ``fill`` and
    ``off_array`` write the off-diagonal whole.
    """

    base: np.ndarray
    shift: float
    off: np.ndarray
    first: float | None

    def diagonal(self):
        """T's diagonal: ``base`` itself, or a new array."""
        return self.base if self.shift == 0.0 else np.add(self.base, self.shift)

    def off_into(self, out):
        """T's off-diagonal into ``out``."""
        out[...] = self.off
        if self.first is not None and len(out):
            out[0] = self.first

    def off_array(self):
        """The off-diagonal as an array of its own."""
        off = np.empty(len(self.off))
        self.off_into(off)
        return off

    def fill(self, d, e):
        """T's diagonal into ``d`` and its off-diagonal into ``e``."""
        if self.shift == 0.0:
            d[...] = self.base
        else:
            np.add(self.base, self.shift, out=d)
        self.off_into(e)


def _held(diag, off):
    """The matrix with the diagonal ``diag`` and the off-diagonal ``off``, as given."""
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    if diag.ndim != 1 or off.shape != (len(diag) - 1,):
        raise ValueError("a tridiagonal matrix of N rows takes N - 1 off-diagonal entries")
    return _Tridiagonal(diag, 0.0, off, None)


def _line(v, h, kind):
    """The 3-point operator on the nodes of ``kind`` with potential ``v`` there.

    The odd half line has Dirichlet walls at both ends, one at 0; the even
    half line's first row, symmetrized, couples node 0 to node 1 by
    -sqrt(2)/h^2.  On the mirrored nodes (``kind`` None) it is the full
    line's operator, which holds both sectors.
    """
    first = -math.sqrt(2.0) / (h * h) if kind == "even" else None
    return _Tridiagonal(v, 2.0 / (h * h), np.broadcast_to(-1.0 / (h * h), (len(v) - 1,)), first)


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
    """(diag, off): the operator of ``cfg`` in the model's discretization, as arrays."""
    xs, h = _nodes(model, cfg)
    kind = _kind(model)
    if kind == "radial":
        return _tridiag_radial(model, scan, cfg, xs, h)
    line = _line(_potential(model, xs, scan), h, kind)
    return line.diagonal(), line.off_array()


def _nearest(op, energy, start, level):
    """Eigenvalue number ``level`` (from 0) of the operator ``op``, and its ambiguity.

    Returns (value, ambiguous), where ambiguous says that a second
    eigenvalue lies within twice the gap |value - E| of E, as
    :func:`_ambiguous` counts it; (NaN, False), with no search, where ``op``
    has no such level.  ``start`` is the first iterate x: the state's own
    wavefunction on the nodes of T, in T's symmetric basis, with ``level``
    sign changes.  The iteration overwrites it, so no vector of N rows is
    copied.  The
    solver's three other buffers are the only arrays of N rows it
    allocates: every step rebuilds T's entries there from ``op``, which
    holds no diagonal of its own on the line.

    Find: Rayleigh-quotient iteration (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4).  The first shift is the Rayleigh quotient of x.  Each
    step solves (T - shift) y = x with dgtsv in x's own buffer, normalises
    y, and moves the estimate lam to the Rayleigh quotient of y (which is
    shift + x.y / y.y), until a step moves lam by no more than the rounding
    floor 8 eps ||T||.  From the state's own wavefunction one solve settles
    most states.  An exactly singular T - shift makes the shift an
    eigenvalue, to rounding; the solve has then spoilt x, and the residual
    counts as 0, below the floor that the certificate takes instead.

    Certify: the residual r of the final pair puts an eigenvalue within r of
    lam, so within gap + max(gap, r, floor) of E, gap = |lam - E|; that is
    twice the gap unless lam lies within max(r, floor) of E.  If the steps
    settled (r at most twice the floor), one Sturm count of that window
    settles which level lam is and its ambiguity: when it finds the
    ``level`` lowest eigenvalues below the window and one inside, that one
    is level ``level``, lam stands, and nothing else lies within twice the gap.
    Otherwise (the steps stalled on a start that mixes two levels, settled
    on another level, or a second level lies that near) one bisection on
    Sturm counts (:func:`_bisect`) takes level ``level`` to neighbouring
    floats, and ambiguity takes a count of its own.  The count, the
    bisection and the recount share one Sturm set-up (:func:`_sturm`).  So
    the start sets the cost, never the answer.
    """
    rows = len(op.base)
    if level >= rows:  # no level of this index: a shortfall
        return math.nan, False
    lapack = sla.lapack
    x = start
    d, dl, du = np.empty(rows), np.empty(rows - 1), np.empty(rows - 1)
    op.fill(d, dl)
    tnorm = max(d.max(), -d.min()) + 2.0 * max(dl.max(initial=0.0), -dl.min(initial=0.0))
    floor = _FLOOR_EPS * np.finfo(float).eps * tnorm
    lam = _rayleigh_quotient(op, x, d, dl, du)
    resid = None
    for _ in range(_RQ_STEPS):
        shift = lam
        op.fill(d, dl)
        d -= shift
        du[:] = dl
        info = lapack.dgtsv(
            dl, d, du, x, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
        )[-1]
        if info > 0:  # exactly singular: the shift is an eigenvalue
            resid = 0.0
            break
        x /= math.sqrt(_sum_squares(x))
        lam = _rayleigh_quotient(op, x, d, dl, du)
        if abs(lam - shift) <= floor:
            break
    if resid is None:
        # r = (T - lam) x, in the solver's buffers
        op.fill(d, dl)
        du[:] = dl
        r = d
        r -= lam
        r *= x
        r[:-1] += np.multiply(dl, x[1:], out=dl)
        r[1:] += np.multiply(du, x[:-1], out=du)
        resid = math.sqrt(_sum_squares(r))
        del r
    del x, d, dl, du

    gap = abs(lam - energy)
    sturm = _sturm(op)
    if resid <= 2.0 * floor:
        if _count_within(sturm, energy, gap + max(gap, resid, floor)) == (level, 1):
            return float(lam), False
    lam = _bisect(sturm, level)
    return lam, _ambiguous(sturm, energy, abs(lam - energy))


def _rayleigh_quotient(op, x, d, e, f):
    """x.T x / x.x for T = ``op``, the terms taken in the buffers d, e and f.

    x.T x is summed as sum((diag_i + off_(i-1) + off_i) x_i^2) -
    sum(off_i (x_(i+1) - x_i)^2).  Where the entries of T are large (~1/h^2)
    and x is smooth, the row sums and the differences are small, so neither
    sum cancels; diag.x^2 + 2 off.(x_i x_(i+1)) cancels to ~eps ||T||.
    """
    op.fill(d, f)
    d[1:] += f
    d[:-1] += f
    d *= x
    d *= x
    np.subtract(x[1:], x[:-1], out=e)
    e *= e
    e *= f
    return (np.add.reduce(d) - np.add.reduce(e)) / _sum_squares(x)


def _sum_squares(x):
    """sum(x_i^2), the same float whatever the BLAS thread count: ``x @ x``
    and ``np.linalg.norm`` sum in an order that follows the threads, where
    numpy's pairwise ``np.add.reduce`` sums each block of _ROWS rows and
    ``math.fsum`` adds the block sums, correctly rounded."""
    return math.fsum(np.add.reduce(np.square(x[i:i + _ROWS])) for i in range(0, len(x), _ROWS))


def _sturm(op):
    """(d, e2, pivmin) of T = ``op``, as dstebz hands them to dlaebz to
    search the whole matrix: e^2 zeroed where dstebz splits T, |d_j d_(j+1)|
    ulp^2 + safemin > e_j^2, so that each block's pivots start afresh, and
    PIVMIN, safemin max(1, e_j^2) over the e_j kept.  e^2 is the one array
    of N rows made, besides T's diagonal where ``op`` holds none (a line
    operator keeps the potential); the split test runs in chunks of _ROWS.
    """
    diag = op.diagonal()
    # as scipy's dstebz wrapper does: a potential that overflows on the box
    # must not pass for a count, nor an e whose e^2 overflows PIVMIN to
    # inf.  NaN fails every comparison; min/max read a stride-0 e in place.
    first = 0.0 if op.first is None else abs(op.first)
    if not (np.isfinite(diag).all() and first < _E_MAX
            and -_E_MAX < op.off.min(initial=0.0) and op.off.max(initial=0.0) < _E_MAX):
        raise ValueError("array must not contain infs or NaNs")
    e2 = np.multiply(op.off, op.off)
    if op.first is not None and len(e2):
        e2[0] = op.first * op.first
    # a product past the float range is inf, and splits, as in LAPACK
    with np.errstate(over="ignore"):
        for start in range(0, len(e2), _ROWS):
            stop = min(start + _ROWS, len(e2))
            test = np.multiply(diag[start + 1:stop + 1], diag[start:stop])
            np.abs(test, out=test)
            test *= _ULP * _ULP
            test += _SAFEMIN
            e2[start:stop][test > e2[start:stop]] = 0.0
    return diag, e2, max(1.0, float(e2.max(initial=0.0))) * _SAFEMIN


def _counts(sturm, lower, upper):
    """How many eigenvalues of ``sturm`` (:func:`_sturm`) lie at or below
    ``lower``, and at or below ``upper``: one dlaebz call.  With IJOB = 1 it
    reads d and e2 alone, never e, so e2 goes in e's place.
    """
    d, e2, pivmin = sturm
    one, zero, tol = ctypes.c_int(1), ctypes.c_int(0), ctypes.c_double(0.0)
    ab, scratch = (ctypes.c_double * 2)(lower, upper), (ctypes.c_double * 1)()
    nab, iscratch = (ctypes.c_int * 2)(), (ctypes.c_int * 1)()
    e2_p = e2.ctypes.data_as(_DOUBLE_P)
    _dlaebz(one, zero, ctypes.c_int(len(d)), one, one, zero, tol, tol, ctypes.c_double(pivmin),
            d.ctypes.data_as(_DOUBLE_P), e2_p, e2_p, iscratch, ab, scratch, ctypes.c_int(),
            nab, scratch, iscratch, ctypes.c_int())
    return nab[0], nab[1]


def _count_within(sturm, centre, radius):
    """(below, inside): how many eigenvalues of ``sturm`` (:func:`_sturm`)
    lie below the closed window of ``radius`` about ``centre``, and how
    many in it: the two counts dstebz takes of (vl, vu] before it bisects,
    vl one float below centre - radius to close the window.
    """
    lower, upper = np.nextafter(centre - radius, -np.inf), centre + radius
    below, upto = _counts(sturm, lower, upper)
    return below, upto - below


def _bisect(sturm, level):
    """Eigenvalue number ``level`` (from 0) of ``sturm`` (:func:`_sturm`), to
    neighbouring floats: the least float at which the Sturm count exceeds
    ``level``.

    Bisection on Sturm counts (Barth, Martin and Wilkinson, Numer. Math. 9
    (1967) 386), monotone in IEEE arithmetic (Demmel, Dhillon and Ren, ETNA
    3, 1995), over the float lattice (``_LATTICE_END``), whatever
    the scale of T.  Each dlaebz call counts two floats, which cut the
    bracket in thirds: 41 calls from the whole lattice, 2^64 floats.
    """
    # count(lo) <= level < count(hi), as lattice positions
    lo, hi = -_LATTICE_END, _LATTICE_END
    while hi - lo > 1:
        third = max((hi - lo) // 3, 1)
        a, b = lo + third, hi - third
        at_a, at_b = _counts(sturm, _unlattice(a), _unlattice(b))
        lo, hi = (lo, a) if at_a > level else (a, b) if at_b > level else (b, hi)
    return _unlattice(hi)


def _unlattice(key):
    """The float at the place ``key`` of the float lattice (``_LATTICE_END``)."""
    return float(np.int64(key if key >= 0 else (-key) | -0x8000_0000_0000_0000).view(np.float64))


def _ambiguous(sturm, energy, gap):
    """Whether a second eigenvalue of ``sturm`` (:func:`_sturm`) lies within
    2 ``gap`` of ``energy``."""
    return gap > 0.0 and _count_within(sturm, energy, 2.0 * gap)[1] >= 2


def _residual_half_line(v, h, psi, energy, parity):
    """The full-line residual ||(H - E) psi|| / ||psi|| of psi extended by
    its parity, on the half line.

    ``psi`` and ``v`` are sampled on the half-line nodes of ``parity``.  The
    Laplacian is the five-point fourth-order one up to the last two rows,
    beside the outer wall, which take the three-point one (the state has
    decayed to ~1e-12 of its peak there), so the number reflects the
    analytic pair rather than the second-order truncation of the
    eigenvalue mesh.  The mirror nodes -2 and -1 (even) or -1 and 0 (odd)
    take +-psi there, so the stencil rows at and next to 0 are the full
    line's.  Each node other than 0 stands for itself and its mirror, so it
    counts twice in both norms, and the ratio is the full-line one; an odd
    state's row 0 vanishes.  r = -lap psi / h^2 + (v - E) psi is taken a
    block at a time, each reading psi two rows past its ends, and is the
    one array of N rows made here.
    """
    m = len(psi)
    r = np.empty(m)
    ghosts = psi[2:0:-1] if parity == "even" else [-psi[0], 0.0]
    for start in range(0, m - 2, _ROWS):
        stop = min(start + _ROWS, m - 2)
        ext = psi[start - 2:stop + 2] if start else np.concatenate((ghosts, psi[:stop + 2]))
        lap = (
            -ext[:-4] + 16.0 * ext[1:-3] - 30.0 * ext[2:-2] + 16.0 * ext[3:-1] - ext[4:]
        ) / 12.0
        r[start:stop] = -lap / (h * h) + (v[start:stop] - energy) * psi[start:stop]
    for i, lap in ((m - 2, psi[-3] - 2.0 * psi[-2] + psi[-1]), (m - 1, psi[-2] - 2.0 * psi[-1])):
        r[i] = -lap / (h * h) + (v[i] - energy) * psi[i]
    num, den = _sum_squares(r), _sum_squares(psi)
    if parity == "even":  # node 0 once, the others twice
        num, den = 2.0 * num - r[0] * r[0], 2.0 * den - psi[0] * psi[0]
    return float(math.sqrt(num / den))


def _residual_radial(model, scan, cfg, evaluate, norm, energy):
    """Weighted-norm residual of the conservation-form operator on the nodes of ``cfg``.

    The algebraic wavefunction u = Q S / ``norm`` is evaluated on the nodes
    here, S by ``evaluate`` (:func:`_solution`), and converted to
    v = u / x**lam; the residual is measured in the L2(w dx) norm in which
    the operator is self-adjoint, so the truncated first node carries its
    proper (vanishing) weight.  ``norm``, psi's norm on the operator's
    nodes, keeps the sums in range.  u is not given sampling's sign: every
    step is odd in u, and rounding to nearest is symmetric, so the ratio
    is the same to the last bit either way.

    Face gradients and the conservative divergence both use the staggered
    fourth-order pair 27(f_{1/2} - f_{-1/2}) - (f_{3/2} - f_{-3/2}) where
    that stencil fits.  The origin end cannot be left at second order: its
    h^2 truncation survives the vanishing-weight dilution in the norm ratio
    and caps the whole measurement, so face 1 and row 0 use the one-sided
    four-point stencil (-23, 21, 3, -1)/24 instead (the exact F(0) = 0 flux
    anchors row 0).  The outer-wall rows stay at second order; the state has
    decayed to nothing there.

    One pass over blocks of _ROWS rows: a block of rows takes the
    fluxes at its faces and one beyond, which take u three nodes past its
    ends (four above it), each value computed as in the plain formulas
    noted beside each step.  Each block sums its terms w r^2 and w v^2 by
    np.add.reduce and ``math.fsum`` adds the block sums, as
    :func:`_sum_squares` does, so no array of the mesh's length is made.
    A u that leaves the float range raises :class:`DegenerateGrid`, as
    sampling does.
    """
    m = cfg.points
    lam = float(model.lam)
    sums_r, sums_v = [], []
    for start in range(0, m, _ROWS):
        stop = min(start + _ROWS, m)
        # v at the nodes n0 <= i < n1, and the fluxes at the faces xmin + h f,
        # f0 <= f < f1, that the rows start..stop-1 read
        n0, n1 = max(start - 3, 0), min(stop + 4, m)
        f0, f1 = max(start - 1, 0), min(stop + 3, m + 1)
        xs, h = _offset_nodes(cfg, n0, n1)
        z, q = wavefunctions._chart(model, xs)
        v = np.empty(n1 - n0)
        with np.errstate(over="ignore", invalid="ignore"):
            evaluate(z, v)
            wavefunctions._times(q, v)
            v /= norm
        if not np.isfinite(v).all():
            raise DegenerateGrid("wavefunction overflowed on this grid; shrink it")
        v /= np.power(xs, lam)  # v = u / x**lam
        grad = np.empty(f1 - f0)
        # grad[f] = (27 (v[f] - v[f-1]) - (v[f+1] - v[f-2])) / (24 h), 2 <= f <= m - 2
        a, b = max(f0, 2) - n0, min(f1, m - 1) - n0
        if a < b:
            inner = np.subtract(v[a:b], v[a - 1:b - 1], out=grad[a + n0 - f0:b + n0 - f0])
            inner *= 27.0
            inner -= v[a + 1:b + 1] - v[a - 2:b - 2]
            inner /= 24.0 * h
        if f0 == 0:
            grad[0] = 0.0
            grad[1] = (-23.0 * v[0] + 21.0 * v[1] + 3.0 * v[2] - v[3]) / (24.0 * h)
        if f0 <= m - 1 < f1:
            grad[m - 1 - f0] = (v[-1] - v[-2]) / h
        if m < f1:
            grad[m - f0] = (0.0 - v[-1]) / h  # Dirichlet outer wall
        flux = np.arange(f0, f1, dtype=float)
        flux *= h
        flux += cfg.xmin
        _radial_weight(model, flux, out=flux)  # w at the faces
        flux *= grad
        if f0 == 0:
            flux[0] = 0.0  # weight w(0) = 0 closes the origin end
        div = grad[:stop - start]
        # div[i] = (27 (flux[i+1] - flux[i]) - (flux[i+2] - flux[i-1])) / (24 h), 1 <= i <= m - 3
        a, b = max(start, 1) - f0, min(stop, m - 2) - f0
        if a < b:
            inner = np.subtract(flux[a + 1:b + 1], flux[a:b], out=div[a + f0 - start:b + f0 - start])
            inner *= 27.0
            inner -= flux[a + 2:b + 2] - flux[a - 1:b - 1]
            inner /= 24.0 * h
        if start == 0:
            div[0] = (21.0 * flux[1] + 3.0 * flux[2] - flux[3]) / (24.0 * h)
        for i in range(max(start, m - 2), stop):
            div[i - start] = (flux[i + 1 - f0] - flux[i - f0]) / h
        # (u_pot - energy) v, u_pot = 0.25 x x - scan / x
        x, v = xs[start - n0:stop - n0], v[start - n0:stop - n0]
        pot = np.multiply(0.25, x)
        pot *= x
        pot -= np.divide(float(scan), x)
        pot -= energy
        pot *= v
        w_mid = _radial_weight(model, x)
        # r = -div / w_mid + (u_pot - energy) v
        r = np.negative(div, out=div)
        r /= w_mid
        r += pot
        # this block's terms of sum(w_mid * r * r) and sum(w_mid * v * v)
        terms = np.multiply(w_mid, r, out=pot)
        terms *= r
        sums_r.append(np.add.reduce(terms))
        np.multiply(w_mid, v, out=terms)
        terms *= v
        sums_v.append(np.add.reduce(terms))
    return math.sqrt(math.fsum(sums_r)) / math.sqrt(math.fsum(sums_v))


def default_box(model):
    """(xmin, xmax): the default box of every root of ``model``, 1.15 L + 2
    past the half-width L of its default sampling grid (the state's decay
    width, ``wavefunctions.decay_halfwidth``): [-xmax, xmax] on the line,
    [0, xmax] on the radial one.  L is taken once per model object, with
    that grid."""
    xmax = 1.15 * wavefunctions._default_inputs(model)[-1] + 2.0
    return (0.0 if _is_radial(model) else -xmax), xmax


def default_verify_config(model, root):
    """The default grid of one root: :func:`default_box`, and the step
    that puts the FD gap well inside tolerance.

    On the line the state predicts its own gap.  The 3-point Laplacian
    takes psi'' with the error (h^2 / 12) psi^(4), so first-order
    perturbation theory puts the level at E_h - E = -(h^2 / 12) <psi,
    psi^(4)> / <psi, psi> = -(h^2 / 12) ||(V - E) psi||^2 / ||psi||^2, since
    psi'' = (V - E) psi holds exactly for the algebraic state.  So the step
    is h = sqrt(12 _GAP_TARGET / m2), m2 = sum psi^2 (V - E)^2 / sum psi^2
    over the model's default sampling grid, psi sampled as on the FD nodes
    (see :func:`verify_root`): the predicted gap is _GAP_TARGET, 3e-4,
    under the 1e-3 gate, and the deep wells' actual gaps agree with it to
    about three digits.

    The radial line keeps the worst-case bound h = _H_SCALE / max(1, E -
    min V), which never looks at where psi lives: its conservation-form
    operator in v = u / x^lam has an error term of its own, and for
    lam = 1/2 <(V - E)^2> diverges at the origin, where psi^2 ~ x while
    V ~ -1 / (4 x^2).

    The points are clamped to a sane range; the energy scales of the
    deepest catalog wells push them far beyond 4000, and O(N) level
    queries keep that cheap.  A state that is not normalizable takes the
    floor, _MIN_POINTS: no grid can pass it.
    """
    return _default_config(model, root, None if _is_radial(model) else _solution(model, root))


def _solution(model, root, chain=None):
    """S at ``root`` as the oracle samples it (``wavefunctions.solution``):
    the product over its certified zeros, but for dshg, whose low states
    have non-real zeros, and any state whose zeros do not certify: those
    take the 80-bit Horner."""
    return wavefunctions.solution(model, root, chain, product=_kind(model) is not None)


def _default_config(model, root, s):
    """:func:`default_verify_config`, with S at ``root`` already assembled
    as ``s`` (:func:`_solution`), which sizes a line grid; the radial rule
    reads no S."""
    xmin, xmax = default_box(model)
    energy = model.energy(root)
    if not model.normalizable(root):
        # psi grows toward the box's ends, so no grid passes it: the fewest
        # points find that soonest
        h = math.inf
    elif _is_radial(model):
        probe = np.linspace(0.3, xmax, 1500)
        h = _H_SCALE / max(1.0, energy - float(np.min(model.potential(probe, root))))
    else:
        xs, psi = wavefunctions.default_values(model, s)
        with np.errstate(all="ignore"):
            psi = psi / np.max(np.abs(psi))  # psi^2 stays in range
            m2 = _sum_squares((model.potential(xs, root) - energy) * psi) / _sum_squares(psi)
        # NaN or inf where psi or V left the float range: the state overflows
        # on the FD nodes too, and the fewest points find that soonest
        h = math.sqrt(12.0 * _GAP_TARGET / m2) if 0.0 < m2 < math.inf else math.inf
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


def verify_root(model, root, energy=None, cfg=None, chain=None):
    """Check one algebraic (root, energy) pair against the FD operator.

    The wavefunction is sampled here, on :func:`grid_nodes` of ``cfg``.
    Once the residual has read it, it starts the search for the FD level
    whose index is its node count (see :func:`_nearest`).  When ``cfg`` is
    the default, the radial residual takes a finer mesh of its own, on
    which psi is evaluated from the same S a block at a time, at the scale
    of its norm on ``cfg`` (:func:`_residual_radial`).  A line model is
    checked on the half line of a parity sector: its own, or for dshg the
    parity of the node count k on the mirrored nodes, onto which psi is
    projected, (psi(x) +- psi(-x)) / 2; its level there is k // 2, and
    ``node_count`` stays k.  ``ambiguous`` says a second level lies within
    twice the gap.  The same level is then searched on the subgrid of step
    2h, from the first search's last iterate at the subgrid's nodes (on the
    radial line, which lie midway between two of the grid's, their mean).
    ``converged`` says that Richardson's extrapolation E_R = E_h + (E_h -
    E_2h) / 3 lies within a tenth of the shift |E_h - E_2h| of the energy,
    or within the noise floor, and never holds where either grid has no
    level of that index.  A state whose steps settle on both grids, with no
    second level within twice its gap, takes two eigenvalue queries, one
    Sturm count on each; any other takes a bisection more, and a count more
    where the steps settled.  On the half line the potential is taken once,
    on the nodes of ``cfg``, and serves the residual and both operators; a
    parity sector is sampled there alone.  psi is sampled as a product over
    the certified zeros of S, but for dshg, whose low states have non-real
    zeros, and any state whose zeros do not certify: those take the 80-bit
    Horner (:func:`_solution`).  S is assembled, and its zeros certified,
    once: a default line grid is sized from the same S, sampled on the
    model's default sampling grid (:func:`default_verify_config`).

    Memory: no phase holds more than five arrays of N rows (N the grid's):
    the potential and the four buffers of the search's dgtsv solves, whose
    operator is the potential and h alone (a :class:`_Tridiagonal`).  The
    subgrid's search and count hold the potential and four arrays of N / 2
    rows.  Every other per-node stage, from sampling to the residuals, runs
    in blocks; the radial residual's own mesh holds no array of its
    length.  dshg's sampling holds its mirrored nodes and psi, about 2N
    rows each, until the projection.
    """
    energy = model.energy(root) if energy is None else float(energy)
    scan = root
    kind = _kind(model)
    s = _solution(model, root, chain)
    res_cfg = cfg
    if cfg is None:
        cfg = res_cfg = _default_config(model, root, s)
        if kind == "radial":
            res_cfg = _radial_residual_config(model, scan, cfg)
    # The operator's nodes (for dshg the mirrored nodes, then its half
    # line); on the line they are the residual's too, and the potential
    # taken there serves the subgrid's operator.
    xs, h = _nodes(model, cfg)
    grid = wavefunctions.sample(model, root, xs=xs, chain=chain, _solution=s)
    psi, norm = np.asarray(grid.psi, dtype=float), grid.norm
    level = node_count = int(grid.node_count)
    del grid

    if kind == "radial":
        del xs
        residual = _residual_radial(model, scan, res_cfg, s, norm, energy)
        nearest, ambiguous = _nearest(_held(*_tridiag(model, scan, cfg)), energy, psi, level)
        # the subgrid's node (j + 1/2) 2h lies midway between nodes 2j and 2j + 1
        half = cfg.points // 2
        start = np.add(psi[:2 * half:2], psi[1:2 * half:2])
        del psi
        sub = _held(*_tridiag_radial(model, scan, cfg, *_offset_nodes(cfg, 0, half, 2)))
    else:
        if kind is None:  # the sector of the node count, on the mirrored nodes
            odd = node_count % 2
            kind = ("even", "odd")[odd]
            middle = len(psi) // 2
            right, left = psi[middle + odd:], psi[middle - odd::-1]  # psi(x), psi(-x)
            psi = np.subtract(right, left) if odd else np.add(right, left)
            psi *= 0.5
            xs = xs[middle + odd:]
            del right, left
        else:
            # the mirror image doubles each node; an odd state adds one at 0
            node_count = 2 * node_count + (kind == "odd")
        level = node_count // 2
        v = _potential(model, xs, scan)
        del xs
        residual = _residual_half_line(v, h, psi, energy, kind)
        if kind == "even":  # the similarity that symmetrizes row 0
            psi[0] /= math.sqrt(2.0)
        nearest, ambiguous = _nearest(_line(v, h, kind), energy, psi, level)
        # the nodes 2j h: [0::2] of the even half line, [1::2] of the odd one
        every_other = slice(int(kind == "odd"), None, 2)
        start = psi[every_other].copy()
        del psi
        sub = _line(v[every_other], 2.0 * h, kind)
    nearest_2h, _ = _nearest(sub, energy, start, level)
    richardson = nearest + (nearest - nearest_2h) / 3.0
    error = abs(richardson - energy)
    converged = error <= _SHIFT_SHARE * abs(nearest - nearest_2h) + _GAP_FLOOR * max(1.0, abs(energy))
    return VerificationReport(
        algebraic_energy=energy,
        nearest_fd_energy=nearest,
        subgrid_fd_energy=nearest_2h,
        richardson_energy=richardson,
        abs_gap=abs(nearest - energy),
        extrapolation_error=error,
        residual=residual,
        converged=converged,
        ambiguous=ambiguous,
        node_count=node_count,
    )
