"""Unit tests for wavefunction sampling, node counting and parity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import solved
from qespectra import models, recurrence, solve, wavefunctions
from qespectra.errors import AsymmetricGrid, DegenerateGrid


# ---------------------------------------------------------------------------
# node counting and parity on synthetic data
# ---------------------------------------------------------------------------

def test_node_count_ignores_grazing_zeros():
    xs = np.linspace(-1, 1, 2001)
    psi = xs ** 2 - 0.25            # two genuine crossings
    assert wavefunctions.node_count(xs, psi) == 2
    grazing = (xs ** 2) * (xs - 0.5)  # touches zero at 0, crosses at 0.5
    assert wavefunctions.node_count(xs, grazing) == 1
    assert wavefunctions.node_count(xs, np.zeros_like(xs)) == 0


def test_parity_classify_even_odd_neither():
    xs = np.linspace(-2, 2, 401)
    even = wavefunctions.WavefunctionGrid(xs, np.cosh(xs), 1.0, 0, None)
    odd = wavefunctions.WavefunctionGrid(xs, np.sinh(xs), 1.0, 0, None)
    skew = wavefunctions.WavefunctionGrid(xs, np.exp(xs), 1.0, 0, None)
    assert wavefunctions.parity_classify(even) == "even"
    assert wavefunctions.parity_classify(odd) == "odd"
    assert wavefunctions.parity_classify(skew) is None


def test_parity_requires_symmetric_grid():
    xs = np.linspace(-1, 2, 100)
    grid = wavefunctions.WavefunctionGrid(xs, np.cos(xs), 1.0, 0, None)
    with pytest.raises(AsymmetricGrid):
        wavefunctions.parity_classify(grid)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_default_grid_full_line_symmetric():
    model = models.make("razavy", 2, {"xi": 1, "alpha": 0, "beta": 0})
    xs = wavefunctions.default_grid(model, 2, points=257)
    assert len(xs) == 257
    np.testing.assert_allclose(xs + xs[::-1], 0.0, atol=1e-12)


def test_default_grid_half_line_open_offset():
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    xs = wavefunctions.default_grid(model, 2, points=200)
    assert len(xs) == 200
    assert xs[0] > 0.0
    h = xs[1] - xs[0]
    assert xs[0] == pytest.approx(0.5 * h)


def test_default_grid_validation():
    model = models.make("dshg", 1, {"xi": 1})
    with pytest.raises(DegenerateGrid):
        wavefunctions.default_grid(model, 1, points=4)
    for halfwidth in (-1.0, math.nan, math.inf):
        with pytest.raises(DegenerateGrid):
            wavefunctions.default_grid(model, 1, points=100, halfwidth=halfwidth)


def test_decay_halfwidth_is_finite_and_covers_the_state():
    model = models.make("dshg", 11, {"xi": 2})
    L = wavefunctions.decay_halfwidth(model, 11)
    assert 0.5 < L < 60.0
    # the prefactor alone at L is already tiny for this double well
    assert abs(float(model.prefactor(np.array([L]))[0])) < 1e-6


def test_decay_halfwidth_overflow_safety():
    # a huge degree forces the envelope through inf; the scan must not crash
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    L = wavefunctions.decay_halfwidth(model, 400)
    assert 0.0 < L <= 60.0


def _fraction_split_horner(coeffs, z):
    """Extended Horner with each coefficient split into hi + lo by Fractions."""
    zl = z.astype(np.longdouble)
    acc = np.zeros(zl.shape, dtype=np.longdouble)
    for c in reversed(coeffs):
        hi = float(Fraction(c))
        lo = float(Fraction(c) - Fraction(hi))
        acc = acc * zl + (np.longdouble(hi) + np.longdouble(lo))
    with np.errstate(over="ignore"):
        return acc.astype(float)


def test_extended_horner_splits_as_fractions_do():
    model = models.make("razavy-sinh2", 40, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1})
    _, chain, _, roots = solve(model)
    z = np.linspace(-3.0, 3.0, 97)
    for root in roots.roots[::4]:
        coeffs = recurrence.assemble_solution(chain, root)
        np.testing.assert_array_equal(
            wavefunctions._eval_poly_extended(coeffs, z),
            _fraction_split_horner(coeffs, z),
        )
    with pytest.raises(OverflowError):
        wavefunctions._eval_poly_extended([Fraction(10**400, 3)], z)


# ---------------------------------------------------------------------------
# sampling whole wavefunctions
# ---------------------------------------------------------------------------

def test_sample_coulomb_n1_node_at_plus_one():
    # S(z) = z - 1 at the beta = +1 root: exactly one node, at x = 1
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    xs = wavefunctions.default_grid(model, 1, points=4001)
    grid = wavefunctions.sample(model, 1.0, xs=xs)
    assert grid.node_count == 1
    sign_flips = np.nonzero(np.diff(np.sign(grid.psi)))[0]
    crossing = grid.xs[sign_flips[0]]
    assert crossing == pytest.approx(1.0, abs=2 * (grid.xs[1] - grid.xs[0]))
    # half-line model: no parity classification
    assert grid.parity is None


def test_sample_is_normalized_and_sign_fixed():
    # the deep razavy case is the beta = 1 (odd) sector: its lowest state
    # has exactly one node, at the origin
    model, _, chain, _, roots = solved("razavy")
    grid = wavefunctions.sample(model, roots.roots[0], chain=chain)
    norm = np.trapezoid(grid.psi ** 2, grid.xs)
    assert norm == pytest.approx(1.0, rel=1e-8)
    assert grid.node_count == 1
    assert grid.parity == "odd"
    # sign convention: the first interior extremum (the x < 0 lobe) is
    # positive; an odd function's global argmax could land on either lobe
    half = len(grid.xs) // 2
    first_lobe = int(np.argmax(np.abs(grid.psi[:half])))
    assert grid.psi[first_lobe] > 0


def test_sample_node_counts_are_the_full_ladder():
    model, _, chain, _, roots = solved("dshg")
    counts = [
        wavefunctions.sample(model, r, chain=chain).node_count
        for r in roots.roots
    ]
    assert counts == list(range(12))


def test_sample_parity_alternates_for_symmetric_double_well():
    model, _, chain, _, roots = solved("dshg")
    parities = [
        wavefunctions.sample(model, r, chain=chain).parity for r in roots.roots
    ]
    assert parities[0] == "even"
    assert all(
        p == ("even" if i % 2 == 0 else "odd") for i, p in enumerate(parities)
    )


# Constraints with a root at scan value 0, which the float eigensolve returns
# as a tiny nonzero (coulomb: -6.2e-33).
ROOT_AT_ZERO = [
    ("coulomb", 4, {"lambda": 1}),
    ("razavy", 2, {"xi": 3, "alpha": 1, "beta": 0}),
    ("razavy-sinh2", 1, {"xi": 4, "alpha": 1, "beta": 1}),
    ("razavy-sinh2", 2, {"xi": 3, "alpha": 1, "beta": 0}),
]


@pytest.mark.parametrize("model_id,n,params", ROOT_AT_ZERO)
def test_sample_accepts_a_root_at_scan_value_zero(model_id, n, params):
    model = models.make(model_id, n, params)
    _, chain, _, roots = solve(model)
    assert min(abs(r) for r in roots.roots) < 1e-15
    counts = [
        wavefunctions.sample(model, r, chain=chain).node_count
        for r in roots.roots
    ]
    assert all(b > a for a, b in zip(counts, counts[1:])), counts


def test_sample_norm_survives_an_overflowing_square():
    # max|psi| is ~1e162 before normalization, so psi * psi overflows.  The
    # root is the sixth eigenvalue seed of this chain: real_roots refuses the
    # chain, whose float recurrence overflows at its nine lowest roots, and
    # sample polishes the seed on the exact constraint.
    model = models.make(
        "razavy-sinh2", 80, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1}
    )
    grid = wavefunctions.sample(model, -22801.06722039855)
    assert math.isfinite(grid.norm)
    assert np.trapezoid(grid.psi ** 2, grid.xs) == pytest.approx(1.0, rel=1e-8)
    assert grid.node_count == 11
    assert grid.parity == "odd"


def test_sample_explicit_grid_validation():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    with pytest.raises(DegenerateGrid):
        wavefunctions.sample(model, 1.0, xs=np.array([0.1, 0.2, 0.3]))
    decreasing = np.linspace(2.0, 0.1, 50)
    with pytest.raises(DegenerateGrid):
        wavefunctions.sample(model, 1.0, xs=decreasing)


def test_sample_rejects_non_roots():
    from qespectra.errors import NotARoot

    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    with pytest.raises(NotARoot):
        wavefunctions.sample(model, 0.37)
