"""Unit tests for dense polynomial arithmetic and root extraction."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conftest import (
    CATALOG_PARAMS,
    DEEP_CASES,
    certified_roots,
    degree,
    dyadic,
    eval_image,
    exact_root,
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
    QesError,
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


@pytest.mark.parametrize("root", [-5e-13, 1.0])
def test_exact_root_settles_next_to_zero(root):
    """conftest's exact Newton keeps 330 fractional bits and stops on a step
    under 2**-300 of the root, which near 0 lies below that grain: a root
    of (x + 5e-13)(x - 1) at -5e-13 never took such a step.  It also stops
    where the kept iterate stops moving, and lands on each root to the
    grain."""
    zero = Fraction(-5, 10**13)  # no float
    chain = dataclasses.make_dataclass("Chain", ["constraint_image"])(
        integer_image(poly_mul([-zero, 1], [-1, 1])))
    exact = zero if root < 0 else Fraction(1)
    assert abs(exact_root(chain, root) - exact) <= Fraction(1, 1 << 330)


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
    """Hand-built multiplicator table: F1(k) = n - k, F0 = 0, Fm1(k) = k,
    exact, so that the system carries an exact chain too."""

    def __init__(self, n, fm1=Fraction):
        self.n = n
        self.fm1 = fm1

    def multiplicators(self, k):
        return Fraction(self.n - k), Fraction(0), self.fm1(k)


class _FakeSystem:
    def __init__(self, n, fm1=Fraction, sigma0=Fraction(1)):
        self.n = n
        self.sigma0 = sigma0
        self.centres = ((0, _FakeTable(n, fm1)),)


def _canonical(d, lam, scale=1.0):
    """A hand-built canonical chain, with the exact image of its terminal
    member m(y) in the scan variable x = scale * y: m(x / scale)."""
    prev, cur = [], [Fraction(1)]
    for dk, lk in zip(d, lam):
        prev, cur = cur, P.poly_add(
            P.poly_mul_linear(cur, -Fraction(dk), 1), P.poly_scale(prev, -Fraction(lk)))
    image = integer_image([c / Fraction(scale) ** j for j, c in enumerate(cur)])
    return P.CanonicalTtrr(
        centre=Fraction(0), d=tuple(d), lam=tuple(lam), scale=scale, constraint_image=image)


def _assert_each_rounded(image, roots):
    """Each root is the float nearest an exact root of its own: the
    constraint, evaluated exactly, changes sign between the points halfway
    to the root's float neighbours, and no two such cells overlap."""
    ends = []
    for x in roots:
        ends += [(Fraction(x) + Fraction(np.nextafter(x, t))) / 2 for t in (-math.inf, math.inf)]
    assert ends == sorted(ends), "the half-ulp intervals overlap"
    values = [eval_image(image, t) for t in ends]
    assert all(a * b < 0 for a, b in zip(values[::2], values[1::2]))


def _assert_correctly_rounded(ttrr, roots):
    """The roots are all of the constraint's, real and simple, each the
    float nearest its exact root: each is (:func:`_assert_each_rounded`),
    and there are as many roots as its degree."""
    assert len(roots) == len(ttrr.constraint_image[0]) - 1
    _assert_each_rounded(ttrr.constraint_image, roots)


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
    # terminal member by hand: m4 = y^4 - 10 y^2 + 9 = (y^2 - 1)(y^2 - 9),
    # which the exact chain's constraint is, up to a factor
    nums, _ = ttrr.constraint_image
    assert [Fraction(c, nums[-1]) for c in nums] == [9, 0, -10, 0, 1]
    assert P.real_roots(ttrr).roots == (-3.0, -1.0, 1.0, 3.0)


def test_sigma_zero_raises():
    sys0 = _FakeSystem(2, sigma0=Fraction(0))
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
    sys0 = _FakeSystem(3, fm1=lambda k: Fraction(-k if k == 2 else k))
    with pytest.raises(NonPositiveLambda):
        P.to_canonical_ttrr(sys0)


def test_all_negative_products_without_a_positive_centre_raise():
    # the fake system offers no centre but its own, where every product is
    # negative: no symmetric tridiagonal eigenproblem represents the chain
    sys0 = _FakeSystem(3, fm1=lambda k: Fraction(-k))
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


@pytest.mark.parametrize("model_id", [
    "xie-even", "xie-odd", "chen-even", "chen-odd", "razavy", "razavy-sinh2",
    "perturbed-dshg", "perturbed-dshg-sinh2", "coulomb",
])
def test_the_catalog_certifies_81_roots_at_n_80(model_id):
    # the float chain once overflowed at the lowest roots of eight of these
    # (razavy-sinh2 at the nine lowest), and real_roots raised; the exact
    # image takes any size, and every root certifies, correctly rounded
    model = models.make(model_id, 80, CATALOG_PARAMS[model_id])
    ttrr = P.to_canonical_ttrr(recurrence.build_baseline(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = P.real_roots(ttrr).roots
    assert len(roots) == 81
    _assert_correctly_rounded(ttrr, roots)


def test_a_pair_close_next_to_the_span_certifies_without_a_warning():
    # the terminal member is y (y - 1) (y - 1e12) - (y - 1/2): roots within
    # 1e-12 of 0, 1 and 1e12.  The 0..1 gap is far below 1e-10 of the
    # span, yet each root is perfectly well conditioned, and certifies
    ttrr = _canonical((0.5, 0.5, 1e12), (1.0, 0.25, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = P.real_roots(ttrr)
    assert len(rs.roots) == 3
    np.testing.assert_allclose(rs.roots, [0.0, 1.0, 1e12], rtol=1e-12, atol=1e-11)
    _assert_correctly_rounded(ttrr, rs.roots)


def _dshg_chain(n):
    return P.to_canonical_ttrr(
        recurrence.build_baseline(models.make("dshg", n, CATALOG_PARAMS["dshg"])))


def test_an_uncertified_chain_warns_at_the_caller_and_merges_no_roots():
    # dshg n = 20: roots 0 and 1 both lie within half an ulp of one float,
    # so no point between them isolates the pair; they are the stepped
    # seeds, distinct, and the warning points at the caller
    with pytest.warns(SimplicityWarning, match="2 of the 21 roots") as record:
        roots = P.real_roots(_dshg_chain(20)).roots
    assert record[0].filename == __file__
    assert len(roots) == 21 and len(set(roots)) == 21
    _assert_each_rounded(_dshg_chain(20).constraint_image, roots[2:])


def test_a_failed_isolation_leaves_the_other_roots_certified():
    # dshg n = 40: the doublets of roots 0..15 lie within half an ulp of one
    # float each and stay uncertified.  Roots 16 and 17 lie 0.3 ulp apart,
    # either side of the midpoint of two floats, which isolates them; they
    # and every root above them are the floats nearest their exact roots
    ttrr = _dshg_chain(40)
    with pytest.warns(SimplicityWarning, match="16 of the 41 roots"):
        roots = P.real_roots(ttrr).roots
    assert P._lattice(roots[17]) - P._lattice(roots[16]) == 1
    _assert_each_rounded(ttrr.constraint_image, roots[16:])


# terminal member (y - 2) ((y - 2)^2 - 1): roots 1, 2, 3
_ONE_TWO_THREE = _canonical((2.0, 2.0, 2.0), (1.0, 0.5, 0.5))


def test_rootset_is_ascending():
    assert P.real_roots(_ONE_TWO_THREE).roots == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("d", (0.1, -0.0, 0.0, 5e-324, -3.7e200, 2.0**1000 * 1.1))
@pytest.mark.parametrize("scale", (1.0, -0.5))
def test_one_by_one_chain_root_is_its_entry(d, scale):
    # n = 0: the eigensolve of a 1x1 matrix returns its entry exactly, and
    # the certificate of x / scale - d at scale * d has nothing to do; a
    # root at 0 is +0.0, whatever the sign of the entry
    ttrr = _canonical((d,), (1.0,), scale)
    assert [x.hex() for x in P.real_roots(ttrr).roots] == [(scale * d + 0.0).hex()]


@pytest.mark.parametrize("lam", ((1.0, math.inf, 1.0), (1.0, 1.0, math.inf)))
def test_a_non_finite_chain_raises_the_typed_error(lam):
    # numpy's eigensolve returns NaN seeds on an infinite entry rather than
    # raising; the finiteness check turns them into the typed error
    ttrr = dataclasses.replace(_ONE_TWO_THREE, lam=lam)
    with pytest.raises(EigensolveFailure):
        P.real_roots(ttrr)


_SEED_CASES = [(m, n, p) for m, p in CATALOG_PARAMS.items() for n in range(1, 41)]
_SEED_CASES += [(m, n, dict(p)) for m, n, p in DEEP_CASES.values()]


@lru_cache(maxsize=None)
def _seed_chains():
    """(model id, canonical chain) of every case with a positive centre."""
    chains = []
    for model_id, n, params in _SEED_CASES:
        try:
            chains.append((model_id, P.to_canonical_ttrr(
                recurrence.build_baseline(models.make(model_id, n, params)))))
        except QesError:  # no positive centre: the chain never reaches a seed
            continue
    return chains


def _hex_roots():
    """Each chain's roots as hex, and whether they certified (no warning)."""
    rows = []
    for _, ttrr in _seed_chains():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SimplicityWarning)
            roots = P.real_roots(ttrr).roots
        rows.append(([x.hex() for x in roots], not caught))
    return rows


def test_roots_do_not_depend_on_the_seed_eigensolver(monkeypatch):
    """Seeding from LAPACK's tridiagonal solver in place of numpy's dense
    one gives bit-identical roots (``solve``'s, which are ``real_roots`` of
    this canonical chain) for every catalog id at n = 1..40 and the deep
    wells.  The two solvers' seeds agree bit for bit on these chains, so
    this test alone would not show that the certificate absorbs seed
    differences; the next test moves the seeds themselves."""
    from scipy import linalg as sla

    dense = _hex_roots()
    seeded = []

    def tridiagonal(a):
        seeded.append(len(a))
        return sla.eigvalsh_tridiagonal(np.diag(a).copy(), np.diag(a, -1).copy())

    monkeypatch.setattr(np.linalg, "eigvalsh", tridiagonal)
    assert _hex_roots() == dense
    assert seeded == [len(roots) for roots, _ in dense]
    assert len(_seed_chains()) == len(_SEED_CASES) - 15  # 15 chen chains have no positive centre


def test_certified_roots_do_not_depend_on_the_seeds_last_bits(monkeypatch):
    """Every seed moved by a random 0 to 4 ulp, either way, gives the same
    root bytes on every chain whose roots certify: the certificate, not the
    seeds, fixes every bit.  Only dshg's chains from n = 20 on fail to
    certify from the eigensolve's own seeds, warned of."""
    exact = _hex_roots()
    rng = random.Random(4)
    eigvalsh = np.linalg.eigvalsh

    def jittered(a):
        return np.array([P._unlattice(P._lattice(y) + rng.randint(-4, 4)) for y in eigvalsh(a)])

    monkeypatch.setattr(np.linalg, "eigvalsh", jittered)
    moved = _hex_roots()
    uncertified = sorted({(model_id, len(ttrr.d) - 1)
                          for (model_id, ttrr), (_, ok) in zip(_seed_chains(), exact) if not ok})
    assert uncertified == [("dshg", n) for n in range(20, 41)]
    for (model_id, ttrr), (roots, ok), (again, still) in zip(_seed_chains(), exact, moved):
        if ok and not still:
            # seeds 4 ulp off may cross a doublet at most 8 ulp wide, as
            # dshg's at n = 19 (3 ulp); no other chain may be lost
            xs = [P._lattice(float.fromhex(x)) for x in roots]
            assert model_id == "dshg" and min(np.diff(xs)) <= 8, (model_id, len(ttrr.d) - 1)
        elif ok:
            assert again == roots, (model_id, len(ttrr.d) - 1)


def test_negative_scale_roots_are_resorted_ascending():
    # scan = -y, as for a chain whose sigma0 is negative: the seeds come
    # out descending and are re-sorted
    up = P.real_roots(_canonical((0.5, 0.5, 1e3), (1.0, 0.25, 1.0)))
    down = P.real_roots(_canonical((0.5, 0.5, 1e3), (1.0, 0.25, 1.0), scale=-1.0))
    assert down.roots == tuple(-x for x in reversed(up.roots))
