"""Independent finite-difference check of the algebraic spectra.

The verifier discretizes H = -d^2/dx^2 + V with second-order central
differences and Dirichlet walls, finds the FD eigenvalue nearest each
algebraic energy, and reports the gap together with a discrete residual
||H psi - E psi|| / ||psi|| of the *algebraic* wavefunction on the same
grid.  Convergence is attested by halving h and requiring the gap to
shrink like h^2 (a factor >= 3 in practice, or hitting the noise floor).

Two discretizations are used:

* full-line models: interior nodes of a uniform grid, walls at +-L;
* the radial Coulomb model: the plain 3-point stencil cannot see the correct
  x -> 0 behaviour through the inverse-square term (for exponents around
  1/2 it converges too slowly to pass a factor-3 halving test), so the
  substitution u = x**lam * v is discretized instead, in conservation form

      -(w v')' / w + U v = E v,     w = x**(2 lam),  U = x^2/4 - beta/x

  on half-offset nodes x_i = (i - 1/2) h.  The flux through x = 0 carries
  weight w(0) = 0, which encodes the regularity condition with no boundary
  fudging, and a diagonal similarity reduces the problem to a symmetric
  tridiagonal one.  The nearest eigenvalue is found by O(N) shift-and-invert
  solves and certified by one bisection query that is two Sturm counts when
  nothing lies nearer, so very fine grids stay cheap.

No other half-line model (fractional-beta perturbed-dshg) has one; checking
it raises :class:`InvalidParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import wavefunctions
from .errors import DegenerateGrid, InvalidParams
from .models import CoulombOscillator

# The gap is "converged" when halving the step shrinks it by at least this
# factor, or it is already at the noise floor.
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


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference grid: Dirichlet box [xmin, xmax] with interior points."""

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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one algebraic energy against the FD operator."""

    algebraic_energy: float
    nearest_fd_energy: float
    abs_gap: float
    residual: float
    converged: bool
    ambiguous: bool
    node_count: int  # of the algebraic wavefunction on the residual grid


def _is_radial(model):
    """Whether the model takes the radial discretization (Coulomb alone)."""
    if isinstance(model, CoulombOscillator):
        return True
    if model.half_line:
        raise InvalidParams(f"no finite-difference discretization for a half-line "
                            f"{type(model).__name__}; only Coulomb has a radial one")
    return False


def _uniform_nodes(cfg):
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    xs = cfg.xmin + h * np.arange(1, cfg.points + 1)
    return xs, h


def _offset_nodes(cfg):
    h = (cfg.xmax - cfg.xmin) / cfg.points
    xs = cfg.xmin + (np.arange(cfg.points) + 0.5) * h
    return xs, h


def grid_nodes(model, cfg):
    """The sampling nodes verify_root expects wavefunctions on."""
    if _is_radial(model):
        return _offset_nodes(cfg)[0]
    return _uniform_nodes(cfg)[0]


def _tridiag_full_line(model, scan, cfg):
    xs, h = _uniform_nodes(cfg)
    v = np.asarray(model.potential(xs, scan), dtype=float)
    diag = 2.0 / (h * h) + v
    off = np.full(cfg.points - 1, -1.0 / (h * h))
    return diag, off


def _radial_weights(model, xs, h):
    lam = float(model.lam)
    faces_left = xs - 0.5 * h
    faces_right = xs + 0.5 * h
    w_left = np.power(np.maximum(faces_left, 0.0), 2 * lam)
    w_right = np.power(faces_right, 2 * lam)
    w_mid = np.power(xs, 2 * lam)
    return w_left, w_right, w_mid


def _tridiag_radial(model, scan, cfg):
    """Symmetric reduction of the weighted conservation-form operator."""
    xs, h = _offset_nodes(cfg)
    if cfg.xmin != 0.0:
        raise InvalidParams("the radial discretization anchors the box at xmin = 0")
    w_left, w_right, w_mid = _radial_weights(model, xs, h)
    u_pot = 0.25 * xs * xs - float(scan) / xs
    diag = (w_left + w_right) / (h * h * w_mid) + u_pot
    # Dirichlet at the outer wall: the right flux of the last node leaves.
    off = -w_right[:-1] / (h * h * np.sqrt(w_mid[:-1] * w_mid[1:]))
    return diag, off


def _tridiag(model, scan, cfg):
    if _is_radial(model):
        return _tridiag_radial(model, scan, cfg)
    return _tridiag_full_line(model, scan, cfg)


def fd_spectrum(model, scan, cfg, count=12):
    """Lowest ``count`` finite-difference eigenvalues."""
    diag, off = _tridiag(model, scan, cfg)
    count = min(count, len(diag))
    return sla.eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1)
    )


def _start_vector(n):
    """Fixed, zero-mean start for inverse iteration.

    Pseudo-random entries overlap every eigenvector, whatever its parity.
    """
    x = np.random.default_rng(0).random(n)
    x -= 0.5
    x /= np.linalg.norm(x)
    return x


def _nearest(diag, off, energy):
    """The eigenvalue of the tridiagonal T = (diag, off) nearest ``energy``.

    Find: factor T - E once, take two inverse-iteration solves from a fixed
    start, then Rayleigh-quotient steps (an LU solve at the current estimate
    each) until one moves the estimate lam by no more than the rounding
    floor 8 eps ||T||.  An exactly singular T - E makes E itself the answer.

    Certify: the residual r of the final pair puts an eigenvalue within r of
    lam, so one bisection query on the disc |mu - E| < |lam - E| - max(r,
    floor) settles it.  An empty disc costs two Sturm counts and certifies
    lam; any eigenvalue inside is bisected to full precision by the same
    call and the nearest replaces lam.  If the steps stalled (r above twice
    the floor, as for E midway between two eigenvalues), the disc grows to
    |lam - E| + r instead, which holds at least one eigenvalue.
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
        return float(energy)
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
    radius = dist - max(resid, floor) if resid <= 2.0 * floor else dist + resid
    if radius > 0.0:
        inside = sla.eigvalsh_tridiagonal(
            diag, off, select="v", select_range=(energy - radius, energy + radius)
        )
        if len(inside):
            lam = inside[np.argmin(np.abs(inside - energy))]
    return float(lam)


def _ambiguous(diag, off, energy, gap):
    """Whether a second eigenvalue lies within 2 ``gap`` of ``energy``.

    A Sturm count of [E - 2 gap, E + 2 gap]: the query's tolerance is wider
    than its window, so no eigenvalue in it is bisected.
    """
    if gap <= 0.0:
        return False
    found = sla.eigvalsh_tridiagonal(
        diag, off, select="v",
        select_range=(energy - 2.0 * gap, energy + 2.0 * gap), tol=8.0 * gap,
    )
    return len(found) >= 2


def _residual_full_line(model, scan, cfg, psi, energy):
    """Discrete action residual ||(H - E) psi||_2 / ||psi||_2.

    The Laplacian uses the five-point fourth-order stencil away from the
    walls and the three-point one beside them (the state has decayed to
    ~1e-12 of its peak there), so the reported number reflects the analytic
    pair rather than the second-order truncation of the eigenvalue mesh.
    """
    xs, h = _uniform_nodes(cfg)
    v = np.asarray(model.potential(xs, scan), dtype=float)
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


def _residual_radial(model, scan, cfg, psi, energy):
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
    decayed to nothing there.
    """
    xs, h = _offset_nodes(cfg)
    w_mid = _radial_weights(model, xs, h)[2]
    u_pot = 0.25 * xs * xs - float(scan) / xs
    v = psi / np.power(xs, float(model.lam))
    m = len(v)
    faces = cfg.xmin + h * np.arange(m + 1)
    w_face = np.power(faces, 2 * float(model.lam))
    grad = np.zeros(m + 1)
    grad[2:-2] = (27.0 * (v[2:-1] - v[1:-2]) - (v[3:] - v[:-3])) / (24.0 * h)
    grad[1] = (-23.0 * v[0] + 21.0 * v[1] + 3.0 * v[2] - v[3]) / (24.0 * h)
    grad[-2] = (v[-1] - v[-2]) / h
    grad[-1] = (0.0 - v[-1]) / h  # Dirichlet outer wall
    flux = w_face * grad
    flux[0] = 0.0  # weight w(0) = 0 closes the origin end
    div = np.empty(m)
    div[1:-2] = (
        27.0 * (flux[2:-2] - flux[1:-3]) - (flux[3:-1] - flux[:-4])
    ) / (24.0 * h)
    div[0] = (21.0 * flux[1] + 3.0 * flux[2] - flux[3]) / (24.0 * h)
    div[-2:] = (flux[-2:] - flux[-3:-1]) / h
    r = -div / w_mid + (u_pot - energy) * v
    num = float(np.sqrt(np.sum(w_mid * r * r)))
    den = float(np.sqrt(np.sum(w_mid * v * v)))
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


def verify_root(model, root, energy=None, cfg=None, chain=None):
    """Check one algebraic (root, energy) pair against the FD operator.

    The wavefunction is sampled here, on :func:`grid_nodes` of ``cfg``; when
    ``cfg`` is the default, the radial residual gets its own finer mesh.
    """
    energy = model.energy(root) if energy is None else float(energy)
    scan = root
    res_cfg = cfg
    if cfg is None:
        cfg = res_cfg = default_verify_config(model, root)
        if _is_radial(model):
            res_cfg = _radial_residual_config(model, scan, cfg)
    grid = wavefunctions.sample(
        model, root, xs=grid_nodes(model, res_cfg), chain=chain
    )
    psi = np.asarray(grid.psi, dtype=float)
    node_count = int(grid.node_count)

    if _is_radial(model):
        residual = _residual_radial(model, scan, res_cfg, psi, energy)
    else:
        residual = _residual_full_line(model, scan, res_cfg, psi, energy)
    del grid, psi

    diag, off = _tridiag(model, scan, cfg)
    nearest = _nearest(diag, off, energy)
    gap = abs(nearest - energy)
    ambiguous = _ambiguous(diag, off, energy, gap)
    del diag, off

    diag, off = _tridiag(model, scan, _doubled(model, cfg))
    gap2 = abs(_nearest(diag, off, energy) - energy)

    floor = _GAP_FLOOR * max(1.0, abs(energy))
    converged = (gap2 * _SHRINK <= gap) or (gap2 <= floor)
    return VerificationReport(
        algebraic_energy=energy,
        nearest_fd_energy=nearest,
        abs_gap=gap,
        residual=residual,
        converged=converged,
        ambiguous=ambiguous,
        node_count=node_count,
    )
