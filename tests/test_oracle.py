"""Unit tests for the independent finite-difference verifier."""

import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import solved
from qespectra import models, oracle, solve, wavefunctions
from qespectra.errors import DegenerateGrid, InvalidParams


@dataclass(frozen=True)
class _QuadraticWell:
    """Stub full-line model: V = x^2, exact levels 2k + 1."""

    n: int = 0
    half_line: bool = False

    def potential(self, x, scan):
        return np.asarray(x, dtype=float) ** 2


# ---------------------------------------------------------------------------
# grid config plumbing
# ---------------------------------------------------------------------------

def test_fd_config_validation():
    with pytest.raises(DegenerateGrid):
        oracle.FdConfig(1.0, 1.0, 1000)
    with pytest.raises(DegenerateGrid):
        oracle.FdConfig(0.0, 1.0, 10)
    with pytest.raises(DegenerateGrid):
        oracle.FdConfig(math.inf, 1.0, 1000)


def test_radial_grid_must_anchor_at_zero():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    with pytest.raises(InvalidParams):
        oracle.fd_spectrum(model, 1.0, oracle.FdConfig(1.0, 20.0, 1000))


def test_grid_nodes_match_discretization():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 10.0, 1000)
    xs = oracle.grid_nodes(model, cfg)
    assert len(xs) == 1000
    assert xs[0] == pytest.approx(0.005)   # half-offset open grid
    full = models.make("dshg", 1, {"xi": 1})
    cfg = oracle.FdConfig(-5.0, 5.0, 999)
    xs = oracle.grid_nodes(full, cfg)
    assert len(xs) == 999
    assert xs[0] == pytest.approx(-5.0 + 10.0 / 1000)  # interior uniform grid


# ---------------------------------------------------------------------------
# eigenvalue oracles with known spectra
# ---------------------------------------------------------------------------

def test_fd_spectrum_harmonic_oscillator_levels():
    cfg = oracle.FdConfig(-10.0, 10.0, 8000)
    levels = oracle.fd_spectrum(_QuadraticWell(), 0.0, cfg, count=5)
    np.testing.assert_allclose(levels, [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-4)


def test_fd_spectrum_radial_oscillator_levels():
    # beta = 0 removes the Coulomb term: exact levels lam + 1/2 + 2m
    model = models.make("coulomb", 0, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 20.0, 8000)
    levels = oracle.fd_spectrum(model, 0.0, cfg, count=4)
    lam = 0.5
    expect = [lam + 0.5 + 2 * m for m in range(4)]
    np.testing.assert_allclose(levels, expect, atol=5e-5)


# ---------------------------------------------------------------------------
# nearest-eigenvalue query against a full spectrum
# ---------------------------------------------------------------------------

def _double_well(points=301):
    """FD matrix of -d2/dx2 + 0.6 (x^2 - 9)^2 on [-5, 5], Dirichlet walls.

    Its lowest doublet is split by about 1e-10 and its next by about 3e-8;
    from level 11 to level 280 the levels are more than a unit apart.
    """
    xs = np.linspace(-5.0, 5.0, points + 2)[1:-1]
    h = xs[1] - xs[0]
    diag = 2.0 / (h * h) + 0.6 * (xs * xs - 9.0) ** 2
    off = np.full(points - 1, -1.0 / (h * h))
    return diag, off


def _floor(diag, off):
    """The query's rounding floor, 8 eps ||T||."""
    return 8.0 * np.finfo(float).eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())


class _RecordingLinalg:
    """scipy.linalg with its eigenvalue queries recorded."""

    def __init__(self):
        self.queries = []  # (select_range, returned values)

    def eigvalsh_tridiagonal(self, diag, off, **kwargs):
        found = sla.eigvalsh_tridiagonal(diag, off, **kwargs)
        self.queries.append((kwargs.get("select_range"), found))
        return found

    def __getattr__(self, name):
        return getattr(sla, name)


def test_double_well_has_a_doublet_split_by_about_1e_10():
    spectrum = sla.eigvalsh_tridiagonal(*_double_well())
    assert 5e-11 < spectrum[1] - spectrum[0] < 2e-10
    assert np.diff(spectrum)[11:280].min() > 1.0


@pytest.mark.parametrize("where", [
    "below", "above", "midpoint", "beside-doublet-above", "beside-doublet-below",
    "inside-doublet", "isolated", "high",
])
def test_nearest_matches_the_full_spectrum(where):
    diag, off = _double_well()
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    energy = {
        "below": spectrum[0] - 50.0,
        "above": spectrum[-1] + 50.0,
        "midpoint": 0.5 * (spectrum[20] + spectrum[21]),
        "beside-doublet-above": spectrum[1] + 3e-10,
        "beside-doublet-below": spectrum[0] - 3e-10,
        "inside-doublet": spectrum[0] + 0.4 * (spectrum[1] - spectrum[0]),
        "isolated": spectrum[12] + 1e-4,
        "high": spectrum[250] - 0.3,
    }[where]
    dist = np.sort(np.abs(spectrum - energy))
    got = oracle._nearest(diag, off, energy)
    # an eigenvalue, and no other lies nearer (a tie may go either way)
    assert np.abs(spectrum - got).min() <= floor
    assert abs(got - energy) <= dist[0] + floor
    if dist[1] - dist[0] > 2.0 * floor:
        assert abs(got - spectrum[np.argmin(np.abs(spectrum - energy))]) <= floor
    gap = abs(got - energy)
    assert oracle._ambiguous(diag, off, energy, gap) == (dist[1] < 2.0 * dist[0])


def test_ambiguity_is_read_both_ways():
    diag, off = _double_well()
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    # beside the 1e-10 doublet the partner sits within twice the gap
    energy = spectrum[1] + 3e-10
    assert oracle._ambiguous(diag, off, energy, abs(spectrum[1] - energy))
    # beside an isolated level it does not
    energy = spectrum[12] + 1e-4
    assert not oracle._ambiguous(diag, off, energy, abs(spectrum[12] - energy))
    assert not oracle._ambiguous(diag, off, spectrum[12], 0.0)


def test_nearest_on_an_exact_eigenvalue_returns_the_shift():
    # tridiag(-1, 2, -1) of odd order has the eigenvalue 2 exactly, and
    # elimination of T - 2 I runs in exact small integers to a zero pivot
    diag, off = np.full(201, 2.0), np.full(200, -1.0)
    assert sla.lapack.dgttrf(off.copy(), diag - 2.0, off.copy())[-1] > 0
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    assert np.abs(spectrum - 2.0).min() < 1e-14
    assert oracle._nearest(diag, off, 2.0) == 2.0


def test_certificate_replaces_a_farther_eigenvalue(monkeypatch):
    """Rayleigh steps that settle on the farther of two levels are caught.

    Between two adjacent levels, inverse iteration barely separates them,
    so the Rayleigh steps settle on the level the fixed start vector weights
    more.  Put the target just on the side of the other one: the steps land
    on the farther level, and the certificate's disc must hold the nearer.
    """
    diag, off = _double_well()
    spectrum, vectors = sla.eigh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    weight = np.abs(vectors.T @ oracle._start_vector(len(diag)))
    k = next(k for k in range(12, 200) if max(weight[k], weight[k + 1])
             > 4.0 * min(weight[k], weight[k + 1]))
    near, far = (k, k + 1) if weight[k] < weight[k + 1] else (k + 1, k)
    energy = 0.5 * (spectrum[k] + spectrum[k + 1])
    energy += 1e-3 * (spectrum[near] - energy)
    recorder = _RecordingLinalg()
    monkeypatch.setattr(oracle, "sla", recorder)
    got = oracle._nearest(diag, off, energy)
    assert abs(got - spectrum[near]) <= floor
    # one query: its disc reached up to the farther level and held the nearer
    ((lo, hi), found), = recorder.queries
    assert abs(0.5 * (hi - lo) - abs(spectrum[far] - energy)) <= 2.0 * floor
    assert len(found) == 1


# ---------------------------------------------------------------------------
# verify_root end to end
# ---------------------------------------------------------------------------

def test_verify_root_coulomb_small():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    report = oracle.verify_root(model, 1.0)
    assert report.algebraic_energy == pytest.approx(2.0)
    assert report.abs_gap < 1e-4
    assert report.residual < 1e-6
    assert report.converged
    assert not report.ambiguous


def test_verify_root_dshg_ground_state():
    model, _, chain, _, roots = solved("dshg")
    report = oracle.verify_root(model, roots.roots[0], chain=chain)
    assert report.abs_gap < 1e-3
    assert report.residual < 1e-4
    assert report.converged


def test_verify_root_negative_control():
    # an energy 1.0 off a true level must be loudly wrong on both meters
    model = models.make("dshg", 0, {"xi": 1})
    # n = 0: single root at the exact ground energy
    _, chain, _, roots = solve(model)
    root = roots.roots[0]
    report = oracle.verify_root(model, root, energy=root + 1.0, chain=chain)
    assert report.abs_gap > 0.1
    assert report.residual > 1e-2


def test_verify_root_accepts_matching_presampled_grid():
    # with an explicit configuration the oracle samples on its grid nodes:
    # the state it checks is the one presampled there
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 25.0, 6000)
    grid = wavefunctions.sample(model, 1.0, xs=oracle.grid_nodes(model, cfg))
    report = oracle.verify_root(model, 1.0, cfg=cfg)
    assert report.node_count == grid.node_count
    assert report.abs_gap < 1e-4
    assert report.residual < 1e-5


def test_default_verify_config_scales_with_energy():
    model, _, _, _, roots = solved("razavy")
    lo = oracle.default_verify_config(model, roots.roots[0])
    hi = oracle.default_verify_config(model, roots.roots[-1])
    assert lo.points >= 4000
    # the step rule follows E - min(V): the highest state needs the finest
    # mesh (the razavy well bottoms out far below even the deepest root)
    assert hi.points > lo.points
    assert lo.xmin == -lo.xmax


def test_radial_residual_mesh_tracks_the_coulomb_core():
    # stronger Coulomb coupling contracts the core scale and the residual
    # mesh must refine accordingly
    model = models.make("coulomb", 10, {"lambda": Fraction(1, 2)})
    cfg = oracle.default_verify_config(model, 24.85)
    weak = oracle._radial_residual_config(model, 3.5, cfg)
    strong = oracle._radial_residual_config(model, 24.85, cfg)
    assert strong.points > weak.points
    assert strong.points <= 900_000


def test_residual_full_line_converges_at_high_order():
    # the 5-point scheme on an analytic state: doubling the mesh must
    # shrink the residual by far more than the 2nd-order factor of 4
    model = models.make("dshg", 1, {"xi": 1})
    _, chain, _, roots = solve(model)
    root = roots.roots[0]

    def residual_at(points):
        cfg = oracle.FdConfig(-7.0, 7.0, points)
        return oracle.verify_root(model, root, cfg=cfg).residual

    coarse = residual_at(999)
    fine = residual_at(1999)
    assert fine < coarse / 8.0


def test_verify_root_peak_memory_on_the_largest_deep_grid():
    """xie-odd root 10 verifies on 325,427 coarse points, 650,855 doubled.

    The coarse grid's arrays are freed before the doubled grid is built, and
    the peak is the bisection workspace of the one certificate query on the
    doubled grid.  The bisection on an expanding window peaked above 62 MB.
    """
    model, _, chain, _, roots = solved("xie-odd")
    root = roots.roots[10]
    assert oracle.default_verify_config(model, root).points == 325_427
    tracemalloc.start()
    try:
        report = oracle.verify_root(model, root, chain=chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 62e6
