"""Unit tests for dense polynomial arithmetic and root extraction."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    certified_roots,
    degree,
    dyadic,
    eval_image,
    integer_image,
    poly_deriv,
    poly_eval,
    poly_mul,
    rational_horner,
)
from qespectra import models, recurrence, solve
from qespectra import polynomials as P
from qespectra.errors import (
    EigensolveFailure,
    NonPositiveLambda,
    SigmaZero,
    SimplicityWarning,
)


# ---------------------------------------------------------------------------
# coefficient arithmetic
# ---------------------------------------------------------------------------

def test_trim_and_degree():
    assert P.trim([1, 2, 0, 0]) == [1, 2]
    assert P.trim([0, 0]) == []
    assert degree([]) == -1
    assert degree([5]) == 0
    assert degree([0, 0, 3, 0]) == 2


def test_add_scale_mul_roundtrip():
    p = [1, -3, 2]          # 1 - 3x + 2x^2
    q = [0, 4]              # 4x
    assert P.poly_add(p, q) == [1, 1, 2]
    assert P.poly_scale(p, -2) == [-2, 6, -4]
    assert poly_mul(p, q) == [0, 4, -12, 8]
    assert P.poly_mul_linear(p, 0, 4) == poly_mul(p, q)
    assert poly_mul(p, []) == []


def test_mul_linear_matches_general_product_on_fractions():
    p = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    a0, a1 = Fraction(2, 5), Fraction(-3)
    assert P.poly_mul_linear(p, a0, a1) == poly_mul(p, [a0, a1])


def test_deriv_and_eval():
    p = [5, 0, -1, 2]       # 5 - x^2 + 2x^3
    assert poly_deriv(p) == [0, -2, 6]
    assert poly_eval(p, 2) == 5 - 4 + 16
    assert poly_eval([], 3.0) == 0


def test_integer_image_evaluates_as_fraction_horner():
    p = [Fraction(3, 4), 0, Fraction(-5, 6), 7, Fraction(1, 10**20)]
    nums, den = integer_image(p)
    assert den == 3 * 10**20 and all(type(a) is int for a in nums)
    slope = poly_deriv(p)
    for x in (Fraction(1, 3), Fraction(-7, 2), 0, 2, -1.5, 0.1, 1e300):
        assert eval_image((nums, den), x) == poly_eval(p, Fraction(x))
        # the same homogeneous Horner carries the slope, over den * q^d / q
        q = Fraction(x).denominator
        _, b, d = rational_horner((nums, den), Fraction(x).numerator, q)
        assert Fraction(b * q, d) == poly_eval(slope, Fraction(x))
        if q & (q - 1) == 0:
            # a dyadic point: image_horner gives the very same integers
            assert P.image_horner((nums, den), *dyadic(x)) == rational_horner(
                (nums, den), Fraction(x).numerator, q
            )
    assert eval_image(integer_image([]), Fraction(1, 3)) == 0
    assert eval_image(integer_image([5]), 0.25) == 5


@pytest.mark.parametrize("seed", range(4))
def test_image_value_is_image_horner_without_the_slope(seed):
    rng = random.Random(seed)
    for _ in range(50):
        degree_ = rng.randrange(0, 30)
        nums = tuple(rng.randrange(-2**200, 2**200) for _ in range(degree_ + 1))
        image = (nums, rng.randrange(1, 2**100))
        p, k = rng.randrange(-2**60, 2**60), rng.randrange(0, 300)
        assert P.image_value(image, p, k) == P.image_horner(image, p, k)[0::2]
    assert P.image_value(((), 7), 3, 2) == P.image_horner(((), 7), 3, 2)[0::2] == (0, 7)


# ---------------------------------------------------------------------------
# exact rational GCD
# ---------------------------------------------------------------------------

def test_exact_gcd_shared_linear_factor():
    # (x - 2) and (x - 2)(x - 1) share exactly (x - 2)
    g = P.exact_gcd([-2, 1], [2, -3, 1])
    assert g == [Fraction(-2), Fraction(1)]


def test_exact_gcd_coprime_is_constant_one():
    assert P.exact_gcd([1, 1], [2, 1]) == [Fraction(1)]


def test_exact_gcd_zero_cases():
    assert P.exact_gcd([], []) == []
    # gcd(p, 0) is monic p
    assert P.exact_gcd([2, 4], []) == [Fraction(1, 2), Fraction(1)]


def test_exact_gcd_divides_both_inputs():
    m = [Fraction(1), Fraction(-1, 3), Fraction(1)]   # common factor
    p = poly_mul(m, [2, 1])
    q = poly_mul(m, [Fraction(-5, 7), 0, 1])
    g = P.exact_gcd(p, q)
    assert degree(g) == degree(m)
    # monic rescale of m
    lead = m[-1]
    assert g == [c / lead for c in m]


# ---------------------------------------------------------------------------
# canonical chain and root extraction
# ---------------------------------------------------------------------------

class _FakeTable:
    """Hand-built multiplicator table: F1(k) = n - k, F0 = 0, Fm1(k) = k."""

    def __init__(self, n, fm1=float):
        self.n = n
        self.fm1 = fm1

    def multiplicators(self, k):
        return float(self.n - k), 0.0, self.fm1(k)


class _FakeSystem:
    def __init__(self, n, fm1=float, sigma0=1.0):
        self.n = n
        self.sigma0 = sigma0
        self.centres = ((0, _FakeTable(n, fm1)),)


def test_canonical_ttrr_hermite_like_chain():
    # d_k = 0, lam_k = Fm1(n+2-k) F1(n+1-k): the chain of the fake table is
    # (a rescaled) Hermite chain whose roots are symmetric about 0.
    sys3 = _FakeSystem(3)
    ttrr = P.to_canonical_ttrr(sys3)
    assert ttrr.centre == 0
    assert len(ttrr.d) == 4
    assert ttrr.lam[0] == 1.0
    assert all(l > 0 for l in ttrr.lam[1:])
    assert ttrr.scale == 1.0
    roots = P.real_roots(ttrr).roots
    # terminal member by hand: m4 = y^4 - 10 y^2 + 9 = (y^2 - 1)(y^2 - 9)
    np.testing.assert_allclose(roots, [-3.0, -1.0, 1.0, 3.0], atol=1e-10)


def test_sigma_zero_raises():
    sys0 = _FakeSystem(2, sigma0=0.0)
    with pytest.raises(SigmaZero):
        P.to_canonical_ttrr(sys0)


@pytest.mark.parametrize("sigma0", [Fraction(1, 10**400), Fraction(-1, 10**320)])
def test_a_scale_past_the_float_range_overflows(sigma0):
    # sigma is exact and nonzero, but 1 / sigma has no float: as a zero
    # float it gave ZeroDivisionError, as a subnormal one an infinite scale
    with pytest.raises(OverflowError, match="1 / sigma"):
        P.to_canonical_ttrr(_FakeSystem(2, sigma0=sigma0))
    # chen-even's sigma is 1 / g times a finite table entry
    model = models.make("chen-even", 0, {"V1": Fraction(9, 100), "V3": 400, "g": 10**400})
    with pytest.raises(OverflowError, match="1 / sigma"):
        solve(model)


def test_mixed_sign_products_raise():
    # flip one trailing multiplicator so products change sign mid-chain
    sys0 = _FakeSystem(3, fm1=lambda k: -float(k) if k == 2 else float(k))
    with pytest.raises(NonPositiveLambda):
        P.to_canonical_ttrr(sys0)


def test_ttrr_terminal_derivative_matches_a_central_difference():
    ttrr = P.to_canonical_ttrr(_FakeSystem(4))
    h = 1e-6
    vp = P.ttrr_terminal(ttrr, 1.0 + h)[0]
    vm = P.ttrr_terminal(ttrr, 1.0 - h)[0]
    assert P.ttrr_terminal(ttrr, 1.0)[1] == pytest.approx((vp - vm) / (2 * h), rel=1e-6)


def test_all_negative_products_without_a_positive_centre_raise():
    # the fake system offers no centre but its own, where every product is
    # negative: no symmetric tridiagonal eigenproblem represents the chain
    sys0 = _FakeSystem(3, fm1=lambda k: -float(k))
    with pytest.raises(NonPositiveLambda, match="tried 0"):
        P.to_canonical_ttrr(sys0)


def test_float_parameters_re_centre_like_their_exact_twins():
    # g = 3.0 is the exact 3 once the model is built, so 1/g is exact and
    # the chain re-centres at z = 1, where its products are all positive
    params = {"V1": 0.09, "V3": 400.0, "g": 3.0}
    spectrum = solve(models.make("chen-even", 20, params))
    assert spectrum.ttrr.centre == 1 and len(spectrum.roots) == 21
    certified_roots(spectrum.chain, spectrum.roots)


def test_real_roots_resolves_a_tight_doublet():
    # dshg n = 5, xi = 0.1 (float): the lowest doublet is tight enough that
    # companion-matrix seeds of the monomial constraint coincide; the
    # canonical route resolves both members, and the exact constraint
    # certifies them
    spectrum = solve(models.make("dshg", 5, {"xi": 0.1}))
    assert min(np.diff(spectrum.roots)) > 0
    certified_roots(spectrum.chain, spectrum.roots)


def test_real_roots_refuses_roots_it_cannot_polish():
    # razavy-sinh2 n = 80: the float chain overflows at the nine lowest
    # roots, which would otherwise come back as raw eigenvalue seeds
    model = models.make(
        "razavy-sinh2", 80, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1}
    )
    ttrr = P.to_canonical_ttrr(recurrence.build_baseline(model))
    # the overflow is reported by the typed error alone, not by a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EigensolveFailure, match="9 of 81 roots"):
            P.real_roots(ttrr)


def test_near_degenerate_pair_warns_not_merges():
    # the terminal member is y (y - 1) (y - 1e12) - (y - 1/2): roots within
    # 1e-12 of 0, 1 and 1e12.  The 0..1 gap is far below 1e-10 of the
    # span, yet each root is perfectly well conditioned
    ttrr = P.CanonicalTtrr(
        centre=Fraction(0), d=(0.5, 0.5, 1e12), lam=(1.0, 0.25, 1.0), scale=1.0
    )
    with pytest.warns(SimplicityWarning) as record:
        rs = P.real_roots(ttrr)
    assert record[0].filename == __file__   # points at the caller
    assert len(rs.roots) == 3
    np.testing.assert_allclose(rs.roots, [0.0, 1.0, 1e12], rtol=1e-12, atol=1e-11)
    assert min(np.diff(rs.roots)) == pytest.approx(1.0, rel=1e-6)


# terminal member (y - 2) ((y - 2)^2 - 1): roots 1, 2, 3
_ONE_TWO_THREE = P.CanonicalTtrr(
    centre=Fraction(0), d=(2.0, 2.0, 2.0), lam=(1.0, 0.5, 0.5), scale=1.0
)


def test_rootset_is_ascending():
    rs = P.real_roots(_ONE_TWO_THREE)
    assert list(rs.roots) == sorted(rs.roots)
    np.testing.assert_allclose(rs.roots, [1.0, 2.0, 3.0], atol=1e-10)
    assert min(np.diff(rs.roots)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", (0.1, -0.0, 0.0, 5e-324, -3.7e200, 2.0**1000 * 1.1))
@pytest.mark.parametrize("scale", (1.0, -0.5))
def test_one_by_one_chain_root_is_its_entry(d, scale):
    # n = 0: the eigensolve of a 1x1 matrix returns its entry exactly, and
    # the polish of y - d at y = d has nothing to do
    ttrr = P.CanonicalTtrr(centre=Fraction(0), d=(d,), lam=(1.0,), scale=scale)
    assert P.real_roots(ttrr).roots == (scale * d,)


def test_negative_scale_roots_are_resorted_ascending():
    # scan = -y, as for a chain whose sigma0 is negative: the polished roots
    # come out descending and are re-sorted
    ttrr = P.CanonicalTtrr(
        centre=Fraction(0), d=(0.5, 0.5, 1e3), lam=(1.0, 0.25, 1.0), scale=1.0
    )
    up = P.real_roots(ttrr)
    down = P.real_roots(dataclasses.replace(ttrr, scale=-1.0))
    assert down.roots == tuple(-x for x in reversed(up.roots))
