"""Unit tests for the descending recurrence, chain assembly and exact replay."""

import math
from fractions import Fraction

import pytest

from conftest import float_chain_at, solved
from qespectra import models, polynomials, recurrence
from qespectra.errors import DivisionByZeroMultiplicator, NotARoot


# ---------------------------------------------------------------------------
# multiplicator plumbing
# ---------------------------------------------------------------------------

def test_multiplicators_is_the_quadratic_definition():
    ode = recurrence.OdeCoefficients(
        a3=2, a2=-1, a1=3, b2=5, b1=0, b0=-2, c1=7, c0=11,
    )
    f1, f0, fm1 = ode.multiplicators(3)
    kk = 3 * 2
    assert f1 == kk * 2 + 3 * 5 + 7
    assert f0 == kk * -1 + 3 * 0 + 11
    assert fm1 == kk * 3 + 3 * -2


def test_build_baseline_reads_model_fields():
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    system = recurrence.build_baseline(model)
    assert system.n == 2
    assert model.scan_name == "beta"
    assert model.baseline() == ("epsilon", 2)


_CHEN_DEEP = {"V1": Fraction(9, 100), "V3": 400, "g": Fraction(1, 4)}


def test_candidate_centres_are_the_rational_zeros_of_the_leading_coefficient():
    # chen: a3 z^2 + a2 z + a1 = (z - 1)(z - 1 - 1/g); razavy: 4 z - 4;
    # coulomb: the constant 1, so only its own centre
    chen = models.make("chen-even", 3, _CHEN_DEEP)
    assert [r for r, _ in recurrence.build_baseline(chen).centres[1:]] == [1, 5]
    razavy = models.make("razavy", 3, {"xi": 1, "alpha": 0, "beta": 0})
    assert [r for r, _ in recurrence.build_baseline(razavy).centres[1:]] == [1]
    coulomb = models.make("coulomb", 3, {"lambda": 1})
    assert recurrence.build_baseline(coulomb).centres[1:] == ()


def test_recentre_keeps_the_graded_shape_and_the_lead_multiplicator():
    model = models.make("chen-odd", 4, _CHEN_DEEP)
    ode = model.ode_coefficients(Fraction(-7, 3))
    shifted = recurrence.recentre(ode, 5)
    # A(z) = a3 z^3 + a2 z^2 + a1 z, B and C at z = 5 + w
    for w in (Fraction(-2), Fraction(1, 3), Fraction(4)):
        z = 5 + w
        assert ode.a3 * z**3 + ode.a2 * z**2 + ode.a1 * z == (
            shifted.a3 * w**3 + shifted.a2 * w**2 + shifted.a1 * w
        )
        assert ode.b2 * z**2 + ode.b1 * z + ode.b0 == (
            shifted.b2 * w**2 + shifted.b1 * w + shifted.b0
        )
        assert ode.c1 * z + ode.c0 == shifted.c1 * w + shifted.c0
    for k in range(6):
        assert shifted.multiplicators(k)[0] == ode.multiplicators(k)[0]
    with pytest.raises(ValueError):
        recurrence.recentre(ode, 2)


# ---------------------------------------------------------------------------
# chain construction against hand-solved instances
# ---------------------------------------------------------------------------

def test_coulomb_n1_constraint_by_hand():
    # F1(k) = n - k, F0(k; x) = x, Fm1(k) = k (k + 2 lam - 1):
    # P[1,1] = -x, constraint = 2 lam - x^2; roots +-1 at lam = 1/2.
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    system, chain, ttrr, roots = recurrence.solve(model)
    assert chain.n == 1
    assert list(chain.members[0]) == [1]
    assert [float(c) for c in chain.members[1]] == [0.0, -1.0]
    constraint = [float(c) for c in chain.constraint]
    assert constraint == pytest.approx([1.0, 0.0, -1.0])
    assert roots.roots == pytest.approx([-1.0, 1.0])


def test_coulomb_n2_roots_by_hand():
    # constraint x^3/2 - 3x at lam = 1/2: roots -sqrt(6), 0, sqrt(6)
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    _, _, _, roots = recurrence.solve(model)
    s6 = math.sqrt(6.0)
    assert roots.roots == pytest.approx([-s6, 0.0, s6], abs=1e-12)


def test_constraint_couples_the_last_two_members():
    # The constraint must be Fm1(1) * P[n,n-1] + F0(0; x) * P[n,n]
    # with both members exactly as stored on the chain.
    _, system, chain, _, _ = solved("razavy")
    table = system.centres[0][1]
    lhs = polynomials.poly_add(
        polynomials.poly_scale(
            list(chain.members[chain.n - 1]), table.multiplicators(1)[2]
        ),
        polynomials.poly_mul_linear(
            list(chain.members[chain.n]), table.multiplicators(0)[1], system.sigma0
        ),
    )
    # the chain runs in Fraction arithmetic, so the recombination must
    # match coefficient for coefficient, exactly
    assert list(lhs) == list(chain.constraint)


def test_division_by_zero_multiplicator():
    # F1(k) = k - 1 vanishes at slice 1, before the baseline slice n = 2
    table = recurrence.OdeCoefficients(
        a3=0, a2=0, a1=0, b2=1, b1=0, b0=1, c1=-1, c0=1,
    )
    system = recurrence.BaselineSystem(n=2, sigma0=1, centres=((0, table),))
    with pytest.raises(DivisionByZeroMultiplicator):
        recurrence.run_ttrr(system)


# ---------------------------------------------------------------------------
# exact rational replay
# ---------------------------------------------------------------------------

RATIONAL_INSTANCES = [
    ("coulomb", 4, {"lambda": Fraction(1, 2)}),
    ("xie-even", 4, {"V1": 1, "V2": -6}),
    ("razavy", 4, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1}),
    ("chen-even", 3, {"V1": Fraction(3, 16), "V3": 4, "g": Fraction(1, 3)}),
    ("dshg", 4, {"xi": Fraction(3, 7)}),
    ("perturbed-dshg", 4, {"xi": 2, "alpha": 2, "beta": 0}),
]


@pytest.mark.parametrize("model_id,n,params", RATIONAL_INSTANCES)
def test_exact_replay_matches_float_chain(model_id, n, params):
    """The exact chain agrees with a float chain run off the ODE table."""
    model = models.make(model_id, n, params)
    system = recurrence.build_baseline(model)
    exact = recurrence.exact_chain(system)
    assert recurrence.run_ttrr(system) is exact
    for x in (-1.5, 0.25, 3.0):
        members, constraint = float_chain_at(model, x)
        polys = tuple(exact.members) + (exact.constraint,)
        for poly, (value, mag) in zip(polys, members + [constraint]):
            got = float(polynomials.poly_eval(poly, Fraction(x)))
            assert abs(got - value) <= 1e-12 * mag


def test_exact_chain_members_are_fractions():
    _, system, _, _, _ = solved("dshg")
    exact = recurrence.exact_chain(system)
    assert all(
        isinstance(c, (int, Fraction)) for member in exact.members for c in member
    )
    assert all(isinstance(c, (int, Fraction)) for c in exact.constraint)


# ---------------------------------------------------------------------------
# exact Newton polish / solution assembly
# ---------------------------------------------------------------------------

def test_exact_solution_coulomb_n1_is_z_minus_1():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    system = recurrence.build_baseline(model)
    coeffs = recurrence.exact_solution(system, 1.0)
    assert [float(c) for c in coeffs] == [-1.0, 1.0]
    assert coeffs[-1] == 1  # monic


def test_exact_solution_polishes_a_float_accurate_root():
    # Feed a root perturbed at the float level; the polish must land within
    # 1e-25 of the true value sqrt(6) (far beyond float resolution).
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    system = recurrence.build_baseline(model)
    rough = math.sqrt(6.0)  # correctly rounded double, off by ~1e-17
    coeffs = recurrence.exact_solution(system, rough)
    # S(z) = z^2 - sqrt(6) z + ...: check the linear coefficient against a
    # 50-digit-rational sqrt(6)
    s6 = Fraction(math.isqrt(6 * 10 ** 100), 10 ** 50)
    assert abs(coeffs[1] + s6) < Fraction(1, 10 ** 25)


def test_exact_solution_iterates_stay_coarse_grained():
    # The polish rounds every iterate to 200 fractional bits, so the
    # returned coefficients must keep bounded denominators even for the
    # deepest chain in the suite.
    model, system, _, _, roots = solved("dshg")
    coeffs = recurrence.exact_solution(system, roots.roots[0])
    worst = max(Fraction(c).denominator.bit_length() for c in coeffs)
    assert worst < 5000


def test_exact_solution_rejects_a_non_root():
    _, system, _, _, roots = solved("dshg")
    not_root = roots.roots[0] + 1.0
    with pytest.raises(NotARoot):
        recurrence.exact_solution(system, not_root)


def test_exact_solution_accepts_exact_zero_root_of_n0_chain():
    # n = 0: the constraint is sigma * x; x = 0 is an exact root where both
    # the value and the Horner magnitude vanish — it must not be rejected.
    model = models.make("coulomb", 0, {"lambda": Fraction(1, 2)})
    system = recurrence.build_baseline(model)
    coeffs = recurrence.exact_solution(system, 0.0)
    assert [float(c) for c in coeffs] == [1.0]


def test_assemble_solution_float_path_matches_exact():
    # a float root assembled on the pipeline's chain gives exactly the
    # exact_solution of its baseline system: there is one path
    model, system, chain, _, roots = solved("xie-even")
    root = roots.roots[0]
    assert recurrence.assemble_solution(chain, root) == recurrence.exact_solution(
        system, root
    )


def _fraction_assembly(chain, root):
    """The solution by plain Fraction Horner on the chain's own members.

    The polish schedule of ``assemble_solution`` (Newton on the exact
    constraint, each iterate rounded to 200 fractional bits), then
    ``poly_eval`` of every member at the polished root; no gates.
    """
    grain = recurrence._POLISH_GRAIN
    x = Fraction(root)
    scale = max(Fraction(1), abs(x))
    derivative = polynomials.poly_deriv(chain.constraint)
    for _ in range(recurrence._POLISH_STEPS):
        value = polynomials.poly_eval(chain.constraint, x)
        if value == 0:
            break
        slope = polynomials.poly_eval(derivative, x)
        if slope == 0:
            break
        step = value / slope
        x = Fraction(round((x - step) * grain), grain)
        if abs(step) <= scale / 10**32:
            break
    return [
        polynomials.poly_eval(chain.members[chain.n - j], x)
        for j in range(chain.n + 1)
    ]


# rational parameters for every catalog id, inside its documented range
CATALOG_PARAMS = {
    "xie-even": {"V1": 1, "V2": -50},
    "xie-odd": {"V1": 1, "V2": -50},
    "chen-even": {"V1": Fraction(9, 100), "V3": 400, "g": Fraction(1, 4)},
    "chen-odd": {"V1": Fraction(9, 100), "V3": 400, "g": Fraction(1, 4)},
    "coulomb": {"lambda": Fraction(1, 2)},
    "razavy": {"xi": Fraction(1, 2), "alpha": 0, "beta": 1},
    "razavy-sinh2": {"xi": Fraction(1, 2), "alpha": 0, "beta": 1},
    "dshg": {"xi": 2},
    "perturbed-dshg": {"xi": 2, "alpha": 2, "beta": 0},
    "perturbed-dshg-sinh2": {"xi": 2, "alpha": 2, "beta": 0},
}

EXACTNESS_CASES = (
    [(model_id, n, params) for model_id, params in CATALOG_PARAMS.items() for n in (5, 20)]
    + [
        ("razavy-sinh2", 40, CATALOG_PARAMS["razavy-sinh2"]),
        # roots at scan value 0
        ("coulomb", 4, {"lambda": 1}),
        ("razavy", 2, {"xi": 3, "alpha": 1, "beta": 0}),
    ]
)


@pytest.mark.parametrize("model_id,n,params", EXACTNESS_CASES)
def test_assemble_solution_equals_fraction_horner(model_id, n, params):
    # the integer images are an evaluation shortcut: every coefficient must
    # be the very rational that Fraction Horner gives
    _, chain, _, roots = recurrence.solve(models.make(model_id, n, params))
    for root in roots.roots:
        got = recurrence.assemble_solution(chain, root)
        assert got == _fraction_assembly(chain, root), root
        assert all(type(c) is Fraction for c in got)


def test_assemble_solution_splits_the_dshg_doublets():
    # dshg n = 20, xi = 2 (an exactness case above): the float roots of each
    # doublet lie 7e-15 apart, yet both members polish to their own root
    _, chain, _, roots = recurrence.solve(models.make("dshg", 20, {"xi": 2}))
    assert roots.min_gap < 1e-13
    lowest = [recurrence.assemble_solution(chain, r) for r in roots.roots[:2]]
    assert lowest[0] != lowest[1]


def test_assemble_solution_gates_still_fire():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    chain = recurrence.run_ttrr(recurrence.build_baseline(model))
    # constraint 1 - x^2: from 0.5 Newton walks to the root 1
    with pytest.raises(NotARoot, match="drifted"):
        recurrence.assemble_solution(chain, 0.5)
    # at 0 the slope vanishes, so the polish stops where |P| = 1 = magnitude
    with pytest.raises(NotARoot, match="backward error"):
        recurrence.assemble_solution(chain, 0.0)


def test_exact_chain_cache_clear_drops_the_images():
    # the integer images live on the cached chain only, so clearing the
    # cache (as the benchmark does between rounds) drops them too
    model = models.make("coulomb", 6, {"lambda": Fraction(1, 2)})
    system = recurrence.build_baseline(model)
    first = recurrence.exact_chain(system)
    assert recurrence.exact_chain(system) is first
    recurrence.exact_chain.cache_clear()
    second = recurrence.exact_chain(system)
    assert second is not first
    assert second.member_images is not first.member_images
    assert second.member_images == first.member_images
    assert callable(recurrence.exact_chain.cache_clear)


def test_exact_chain_builds_past_the_float_range():
    # razavy-sinh2 n = 160: the constraint's coefficients pass the float
    # range, which only its float image may refuse, not the exact chain
    model = models.make("razavy-sinh2", 160, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1})
    chain = recurrence.run_ttrr(recurrence.build_baseline(model))
    assert max(abs(c) for c in chain.constraint) > 10**308
    with pytest.raises(OverflowError):
        chain.constraint_float


def test_chain_images_are_the_chain():
    _, _, chain, _, _ = solved("chen-even")
    polys = chain.members + (chain.constraint,)
    images = chain.member_images + (chain.constraint_image,)
    for poly, (nums, den) in zip(polys, images):
        assert [Fraction(a, den) for a in nums] == list(poly)
    nums, den = chain.slope_image
    assert [Fraction(a, den) for a in nums] == polynomials.poly_deriv(chain.constraint)
    assert chain.constraint_float == tuple(float(c) for c in chain.constraint)


# ---------------------------------------------------------------------------
# ODE residual of assembled solutions
# ---------------------------------------------------------------------------

def test_ode_residual_detects_wrong_solution():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    ode = model.ode_coefficients(1.0)
    good = recurrence.exact_solution(recurrence.build_baseline(model), 1.0)
    bad = [c + Fraction(1, 10) for c in good]
    assert recurrence.relative_ode_residual(ode, [float(c) for c in good]) < 1e-14
    assert recurrence.relative_ode_residual(ode, [float(c) for c in bad]) > 1e-3


def test_ode_residual_zero_solution_is_zero():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    ode = model.ode_coefficients(1.0)
    assert recurrence.relative_ode_residual(ode, [0.0, 0.0]) == 0.0
