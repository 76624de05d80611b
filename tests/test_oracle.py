"""Unit tests for the independent finite-difference verifier."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import solved
from qespectra import models, oracle, solve, wavefunctions
from qespectra.errors import DegenerateGrid, GridMismatch, InvalidParams


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


def test_verify_root_explicit_grid_must_match_nodes():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 25.0, 4000)
    xs_wrong = np.linspace(0.01, 25.0, 500)
    grid = wavefunctions.sample(model, 1.0, xs=xs_wrong)
    with pytest.raises(GridMismatch):
        oracle.verify_root(model, 1.0, grid=grid, cfg=cfg)


def test_verify_root_accepts_matching_presampled_grid():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 25.0, 6000)
    xs = oracle.grid_nodes(model, cfg)
    grid = wavefunctions.sample(model, 1.0, xs=xs)
    report = oracle.verify_root(model, 1.0, grid=grid, cfg=cfg)
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
        xs = oracle.grid_nodes(model, cfg)
        grid = wavefunctions.sample(model, root, xs=xs)
        report = oracle.verify_root(model, root, grid=grid, cfg=cfg)
        return report.residual

    coarse = residual_at(999)
    fine = residual_at(1999)
    assert fine < coarse / 8.0
