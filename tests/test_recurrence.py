"""Unit tests for the descending recurrence, chain assembly and exact replay."""

import dataclasses
import fractions
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CATALOG_PARAMS,
    DEEP_CASES,
    as_fractions,
    float_chain_at,
    integer_image,
    poly_deriv,
    poly_eval,
    reference_chain,
    relative_ode_residual,
    solved,
)
from qespectra import models, polynomials, recurrence, wavefunctions
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


def test_gauge_shifts_the_multiplicators_by_mu():
    # phi = z^mu S: the gauged table acts on z^k as the table acts on z^(k+mu),
    # and its grade -1 action on z^0 is the 1/z term the gauge must cancel
    ode = models.make("chen-even", 4, _CHEN_DEEP).ode_coefficients(Fraction(-7, 3))
    half = Fraction(1, 2)
    gauged = recurrence.gauge(ode, half)
    for k in range(6):
        assert gauged.multiplicators(k) == ode.multiplicators(k + half)
    assert ode.multiplicators(half)[2] == 0
    assert recurrence.gauge(ode, 0) == ode


def test_gauge_refuses_a_left_over_1_over_z_term():
    # xie: mu b0 + mu (mu - 1) a1 = -2 mu + 4 mu (1 - mu) vanishes at 0 and 1/2
    # only; mu = 1/3 leaves 2/9
    ode = models.make("xie-even", 3, {"V1": 1, "V2": -50}).ode_coefficients(0)
    with pytest.raises(ValueError, match="1/z term of 2/9"):
        recurrence.gauge(ode, Fraction(1, 3))


# ---------------------------------------------------------------------------
# chain construction against hand-solved instances
# ---------------------------------------------------------------------------

def test_coulomb_n1_constraint_by_hand():
    # F1(k) = n - k, F0(k; x) = x, Fm1(k) = k (k + 2 lam - 1):
    # P[1,1] = -x, constraint = 2 lam - x^2; roots +-1 at lam = 1/2.
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    spectrum = recurrence.solve(model)
    chain = spectrum.chain
    assert chain.n == 1
    members, _, _ = reference_chain(recurrence.build_baseline(model))
    assert members == ((1,), (0, -1))
    assert as_fractions(chain.last_member_image) == [0, -1]
    constraint = [float(c) for c in as_fractions(chain.constraint_image)]
    assert constraint == pytest.approx([1.0, 0.0, -1.0])
    assert spectrum.roots == pytest.approx([-1.0, 1.0])


def test_coulomb_n2_roots_by_hand():
    # constraint x^3/2 - 3x at lam = 1/2: roots -sqrt(6), 0, sqrt(6)
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    roots = recurrence.solve(model).roots
    s6 = math.sqrt(6.0)
    assert roots == pytest.approx([-s6, 0.0, s6], abs=1e-12)


def test_solve_returns_one_frozen_spectrum(monkeypatch):
    # solve looks each stage up on its module, so a wrapper put there (the
    # benchmark's tracer) sees the call, and keeps what the stages return
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    stages = [(recurrence, "build_baseline"), (recurrence, "exact_chain"),
              (polynomials, "to_canonical_ttrr"), (polynomials, "real_roots")]
    returned = []
    for module, name in stages:
        def stage(arg, stage=getattr(module, name)):
            returned.append(stage(arg))
            return returned[-1]
        monkeypatch.setattr(module, name, stage)
    spectrum = recurrence.solve(model)
    # to_canonical_ttrr reads the constraint off the cached chain
    _, chain, again, ttrr, roots = returned
    assert (spectrum.model, spectrum.chain, spectrum.ttrr) == (model, chain, ttrr)
    assert spectrum.chain is chain is again and spectrum.roots is roots.roots
    assert ttrr.constraint_image is chain.constraint_image
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectrum.roots = ()


def test_constraint_couples_the_last_two_members():
    # The constraint must be Fm1(1) * P[n,n-1] + F0(0; x) * P[n,n],
    # with the last member exactly as stored on the chain.
    spectrum = solved("razavy")
    system, chain = recurrence.build_baseline(spectrum.model), spectrum.chain
    table = system.centres[0][1]
    members, _, _ = reference_chain(system)
    lhs = polynomials.poly_add(
        polynomials.poly_scale(members[chain.n - 1], table.multiplicators(1)[2]),
        polynomials.poly_mul_linear(
            as_fractions(chain.last_member_image),
            table.multiplicators(0)[1],
            system.sigma0,
        ),
    )
    # the chain is exact (integers, read here as Fractions), so the recombination must
    # match coefficient for coefficient, exactly
    assert list(lhs) == as_fractions(chain.constraint_image)


def test_division_by_zero_multiplicator():
    # F1(k) = k - 1 vanishes at slice 1, before the baseline slice n = 2
    table = recurrence.OdeCoefficients(
        a3=0, a2=0, a1=0, b2=1, b1=0, b0=1, c1=-1, c0=1,
    )
    system = recurrence.BaselineSystem(n=2, sigma0=1, centres=((0, table),))
    with pytest.raises(DivisionByZeroMultiplicator):
        recurrence.exact_chain(system)


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
    polys = (*reference_chain(system)[0], as_fractions(exact.constraint_image))
    for x in (-1.5, 0.25, 3.0):
        members, constraint = float_chain_at(model, x)
        for poly, (value, mag) in zip(polys, members + [constraint]):
            got = float(poly_eval(poly, Fraction(x)))
            assert abs(got - value) <= 1e-12 * mag


def test_exact_chain_members_are_fractions():
    # the last member and the constraint are exact rationals, held as
    # integer numerators over a positive integer denominator
    exact = solved("dshg").chain
    for nums, den in (exact.last_member_image, exact.constraint_image):
        assert den > 0 and all(type(c) is int for c in (*nums, den))


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
    spectrum = solved("dshg")
    system = recurrence.build_baseline(spectrum.model)
    coeffs = recurrence.exact_solution(system, spectrum.roots[0])
    worst = max(Fraction(c).denominator.bit_length() for c in coeffs)
    assert worst < 5000


def test_exact_solution_rejects_a_non_root():
    spectrum = solved("dshg")
    system = recurrence.build_baseline(spectrum.model)
    not_root = spectrum.roots[0] + 1.0
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
    spectrum = solved("xie-even")
    system, root = recurrence.build_baseline(spectrum.model), spectrum.roots[0]
    got = recurrence.assemble_solution(spectrum.chain, root)
    assert as_fractions(got) == recurrence.exact_solution(system, root)
    assert got[1] > 0 and all(type(a) is int for a in (*got[0], got[1]))


def _fraction_assembly(chain, members, root):
    """The solution by plain Fraction Horner on the chain's members.

    The polish schedule of ``assemble_solution`` (Newton on the exact
    constraint, each iterate rounded to 200 fractional bits), then
    ``poly_eval`` of every member at the polished root; no gates.
    """
    grain = 1 << recurrence._POLISH_BITS
    x = Fraction(root)
    scale = max(Fraction(1), abs(x))
    constraint = as_fractions(chain.constraint_image)
    derivative = poly_deriv(constraint)
    for _ in range(recurrence._POLISH_STEPS):
        value = poly_eval(constraint, x)
        if value == 0:
            break
        slope = poly_eval(derivative, x)
        if slope == 0:
            break
        step = value / slope
        x = Fraction(round((x - step) * grain), grain)
        if abs(step) <= scale / 10**32:
            break
    return [poly_eval(members[chain.n - j], x) for j in range(chain.n + 1)]


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
    # the integer recurrence is an evaluation shortcut: every coefficient
    # must be the very rational that Fraction Horner gives
    model = models.make(model_id, n, params)
    spectrum = recurrence.solve(model)
    chain = spectrum.chain
    members, _, _ = reference_chain(recurrence.build_baseline(model))
    for root in spectrum.roots:
        nums, den = recurrence.assemble_solution(chain, root)
        assert den > 0 and all(type(a) is int for a in (*nums, den))
        assert as_fractions((nums, den)) == _fraction_assembly(chain, members, root), root


def test_assemble_solution_equals_fraction_horner_on_a_long_chain():
    # coulomb n = 80: the lowest, a middle and the highest root
    model = models.make("coulomb", 80, {"lambda": Fraction(1, 2)})
    spectrum = recurrence.solve(model)
    chain, roots = spectrum.chain, spectrum.roots
    members, _, _ = reference_chain(recurrence.build_baseline(model))
    for root in (roots[0], roots[40], roots[-1]):
        got = as_fractions(recurrence.assemble_solution(chain, root))
        assert got == _fraction_assembly(chain, members, root), root


@pytest.mark.parametrize("n", (5, 20))
@pytest.mark.parametrize("model_id", sorted(CATALOG_PARAMS))
def test_step_recurrence_evaluates_every_member(model_id, n):
    # at dyadic points the polish never produces (short and long grains,
    # either sign), the integer step recurrence gives every member's value
    # exactly
    system = recurrence.build_baseline(models.make(model_id, n, CATALOG_PARAMS[model_id]))
    chain = recurrence.exact_chain(system)
    members, _, _ = reference_chain(system)
    rng = random.Random(f"{model_id}:{n}")
    for _ in range(3):
        p, k = rng.randint(-10**6, 10**6), rng.randint(0, 60)
        x = Fraction(p, 1 << k)
        nums, den = recurrence._solution_image(chain, p, k)
        assert den > 0
        assert as_fractions((nums, den)) == [
            poly_eval(members[n - j], x) for j in range(n + 1)
        ], x


DYADIC_BITS = (0, 1, 52, 200, 1074)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("k", DYADIC_BITS)
def test_images_at_dyadic_points_are_fraction_horner(k, sign):
    # image_horner and _solution_image take the point as p / 2^k and scale
    # by shifts: value, slope and every member must be the exact rationals
    # Fraction Horner gives, at the grains a float root or the polish brings
    rng = random.Random(f"dyadic:{k}:{sign}")
    for model_id, n in (("chen-even", 7), ("razavy-sinh2", 12), ("dshg", 11)):
        system = recurrence.build_baseline(models.make(model_id, n, CATALOG_PARAMS[model_id]))
        chain = recurrence.exact_chain(system)
        constraint = as_fractions(chain.constraint_image)
        members, _, _ = reference_chain(system)
        for _ in range(2):
            p = sign * rng.randrange(1, 1 << (k + 3))
            x = Fraction(p, 1 << k)
            value, slope, unit = polynomials.image_horner(chain.constraint_image, p, k)
            assert unit > 0
            assert Fraction(value, unit) == poly_eval(constraint, x)
            assert Fraction(slope << k, unit) == poly_eval(
                poly_deriv(constraint), x
            )
            for member in members:
                value, _, unit = polynomials.image_horner(integer_image(member), p, k)
                assert Fraction(value, unit) == poly_eval(member, x)
            nums, den = recurrence._solution_image(chain, p, k)
            assert den > 0
            assert as_fractions((nums, den)) == [
                poly_eval(members[n - j], x) for j in range(n + 1)
            ], (model_id, x)


def _divide_as_you_go_image(chain, p, k):
    # the replay with every member over delta_1 ... delta_n 2^(kn) from the
    # first step on, and one exact division by delta_j at each step
    den = math.prod(step[3] for step in chain.steps) << k * chain.n
    prev, cur = 0, den
    nums = [cur]
    for alpha, beta, gamma, delta in chain.steps:
        prev, cur = cur, (alpha * cur + gamma * prev + (beta * p * cur >> k)) // delta
        nums.append(cur)
    return tuple(reversed(nums)), den


REPLAY_CASES = [
    (model_id, n, CATALOG_PARAMS[model_id])
    for model_id in sorted(CATALOG_PARAMS) for n in (0, 1, 2, 20, 40)
] + [
    ("coulomb", 80, CATALOG_PARAMS["coulomb"]),
    # the deep chen-even well: ~275-bit step integers
    (DEEP_CASES["chen-even"][0], DEEP_CASES["chen-even"][1], dict(DEEP_CASES["chen-even"][2])),
]


@pytest.mark.parametrize(
    "model_id,n,params", REPLAY_CASES, ids=[f"{c[0]}-{c[1]}" for c in REPLAY_CASES]
)
def test_division_free_replay_is_the_divide_as_you_go_replay(model_id, n, params):
    # the same integers, at p < 0, p = 0 and k = 0, and at the 200-bit grain
    # of a polished root
    chain = recurrence.exact_chain(recurrence.build_baseline(models.make(model_id, n, params)))
    rng = random.Random(f"replay:{model_id}:{n}")
    points = [(0, 0), (0, 200), (rng.randrange(1, 1 << 40), 0), (-rng.randrange(1, 1 << 40), 0)]
    for k in (1, 52, 200):
        p = rng.randrange(1, 1 << (k + 12))
        points += [(p, k), (-p, k)]
    for p, k in points:
        assert recurrence._solution_image(chain, p, k) == _divide_as_you_go_image(chain, p, k), (p, k)


REFERENCE_CASES = [
    (model_id, n) for model_id in sorted(CATALOG_PARAMS) for n in (5, 20)
] + [("razavy-sinh2", 40), ("chen-even", 40), ("dshg", 40)]


@pytest.mark.parametrize("model_id,n", REFERENCE_CASES)
def test_integer_chain_is_the_fraction_chain(model_id, n):
    # the chain run in integers over one running denominator holds the very
    # steps, last member and constraint of the chain run in Fractions
    system = recurrence.build_baseline(models.make(model_id, n, CATALOG_PARAMS[model_id]))
    chain = recurrence.exact_chain.__wrapped__(system)
    members, constraint, steps = reference_chain(system)
    assert chain.steps == steps
    assert chain.constraint_image == integer_image(constraint)
    assert as_fractions(chain.last_member_image) == list(members[n])
    assert as_fractions(chain.constraint_image) == list(constraint)
    nums, den = chain.last_member_image
    assert den > 0 and all(type(c) is int for c in (*nums, den))
    shared = len(polynomials.exact_gcd(constraint, members[n])) != 1
    assert chain.p_nn_zero_flag is shared


def test_p_nn_zero_flag_is_the_gcd_test():
    """The flag, read off the multiplicators Fm1(1..n), says what a
    non-constant exact gcd of the last member and the constraint says: on
    every catalog id at n = 0..12, and on chains where some Fm1(k) vanishes
    (coulomb at lambda = 0, where Fm1(1) = 0; perturbed-dshg at alpha =
    -1/2 and -3/2, where Fm1(1) and Fm1(2) do on the cosh^2 chain), and
    on the sinh^2 variant of those, where none does."""
    cases = [(model_id, CATALOG_PARAMS[model_id], range(13)) for model_id in CATALOG_PARAMS]
    cases.append(("coulomb", {"lambda": 0}, range(6)))
    cases += [
        (model_id, {"xi": 2, "alpha": Fraction(alpha, 2), "beta": beta}, range(6))
        for model_id in ("perturbed-dshg", "perturbed-dshg-sinh2")
        for alpha in (-1, -3) for beta in (0, 1)
    ]
    flagged = []
    for model_id, params, lengths in cases:
        for n in lengths:
            chain = recurrence.exact_chain(recurrence.build_baseline(models.make(model_id, n, params)))
            shared = len(polynomials.exact_gcd(
                chain.constraint_image[0], chain.last_member_image[0])) != 1
            assert chain.p_nn_zero_flag is shared, (model_id, params, n)
            if shared:
                flagged.append((model_id, n))
    # coulomb at n = 1..5; perturbed-dshg at n = 1..5 (alpha = -1/2) and
    # 2..5 (alpha = -3/2), both parities, on the cosh^2 chain alone
    assert len(flagged) == 23 and {model_id for model_id, _ in flagged} == {
        "coulomb", "perturbed-dshg"}


def test_integer_chain_reduces_the_constraint_image():
    # on the catalog the running denominator is already the least one; this
    # table makes the constraint's numerators share 4 with it:
    # P[1,1] = -(1 + 2x) / 2 and the constraint 1/2 + (1 + 2x) P[1,1] = -2x - 2x^2
    table = recurrence.OdeCoefficients(
        *map(Fraction, (0, 0, 0, -2, 0, Fraction(1, 2), 2, 1))
    )
    system = recurrence.BaselineSystem(n=1, sigma0=Fraction(2), centres=((0, table),))
    chain = recurrence.exact_chain.__wrapped__(system)
    _, constraint, _ = reference_chain(system)
    assert chain.constraint_image == integer_image(constraint) == ((0, -2, -2), 1)


@pytest.mark.parametrize("n", (40, 80))
def test_exact_chain_takes_few_gcds(monkeypatch, n):
    # the chain runs in plain integers: gcds come only from the Fraction
    # multiplicators of each slice and the one reduction of the constraint,
    # never from the members (a Fraction chain takes ~240 n at n = 40)
    system = recurrence.build_baseline(models.make("chen-even", n, CATALOG_PARAMS["chen-even"]))
    calls = []
    gcd = fractions.math.gcd

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(fractions.math, "gcd", counted)
    recurrence.exact_chain.__wrapped__(system)
    assert len(calls) <= 40 * n


def test_assemble_solution_splits_the_dshg_doublets():
    # dshg n = 20, xi = 2 (an exactness case above): the float roots of each
    # doublet lie 7e-15 apart, yet both members polish to their own root
    spectrum = recurrence.solve(models.make("dshg", 20, {"xi": 2}))
    assert min(np.diff(spectrum.roots)) < 1e-13
    lowest = [
        as_fractions(recurrence.assemble_solution(spectrum.chain, r)) for r in spectrum.roots[:2]
    ]
    assert lowest[0] != lowest[1]


def test_assemble_solution_gates_still_fire():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    chain = recurrence.exact_chain(recurrence.build_baseline(model))
    # constraint 1 - x^2: from 0.5 Newton walks to the root 1
    with pytest.raises(NotARoot, match="drifted"):
        recurrence.assemble_solution(chain, 0.5)
    # at 0 the slope vanishes, so the polish stops where |P| = 1 = magnitude
    with pytest.raises(NotARoot, match="backward error"):
        recurrence.assemble_solution(chain, 0.0)


def test_assemble_solution_refuses_a_shallow_non_root():
    # x^2 + 2^-60 has no real root, yet it sits within 2^-60 of zero at 0:
    # from near 0 the polish wanders without converging or drifting far, and
    # the exact backward-error test refuses where it stops
    chain = recurrence.ConstraintChain(
        n=1, steps=(), last_member_image=((1,), 1), constraint_image=((1, 0, 1 << 60), 1 << 60),
        p_nn_zero_flag=False,
    )
    for start in (2.0**-40, 2.0**-35, 2.0**-31, 1e-9):
        with pytest.raises(NotARoot, match="backward error"):
            recurrence.assemble_solution(chain, start)


def test_every_dshg_root_assembles_and_samples(monkeypatch):
    # dshg n = 20, xi = 2: the polish of two doublet roots uses up its steps
    # short of the 1e-32 tolerance, and the exact backward-error test admits
    # them; it alone evaluates an image other than the constraint's, and
    # takes no slope
    model = models.make("dshg", 20, {"xi": 2})
    spectrum = recurrence.solve(model)
    chain, roots = spectrum.chain, spectrum.roots
    tested = []
    value = recurrence.image_value

    def counted(image, p, k):
        if image is not chain.constraint_image:
            tested.append(p)
        return value(image, p, k)

    monkeypatch.setattr(recurrence, "image_value", counted)
    for root in roots:
        nums, den = recurrence.assemble_solution(chain, root)
        assert nums[-1] == den > 0
    assert len(roots) == 21 and len(tested) == 2
    for root in roots:
        grid = wavefunctions.sample(model, root, chain=chain)
        assert math.isfinite(grid.norm) and grid.norm > 0


def test_assemble_solution_refuses_a_non_dyadic_root():
    # the polish scales by shifts, so only p / 2^k points are meaningful;
    # an exact dyadic root is as good as the float it equals
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    chain = recurrence.exact_chain(recurrence.build_baseline(model))
    with pytest.raises(ValueError, match="dyadic"):
        recurrence.assemble_solution(chain, Fraction(1, 3))
    assert recurrence.assemble_solution(chain, Fraction(-1)) == (
        recurrence.assemble_solution(chain, -1.0)
    )


@pytest.mark.parametrize(
    "model_id,n,params",
    [("razavy-sinh2", 40, CATALOG_PARAMS["razavy-sinh2"]), ("dshg", 20, {"xi": 2})],
)
def test_assembly_and_sampling_take_no_gcd(monkeypatch, model_id, n, params):
    # every Fraction a program builds from two integers normalizes them with
    # math.gcd; assembly and sampling work on integer pairs and build none,
    # also where dshg's doublets take the exact backward-error test
    model = models.make(model_id, n, params)
    spectrum = recurrence.solve(model)
    chain, roots = spectrum.chain, spectrum.roots
    calls = []
    gcd = fractions.math.gcd

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(fractions.math, "gcd", counted)
    for root in roots:
        recurrence.assemble_solution(chain, root)
    assert len(calls) == 0
    wavefunctions.sample(model, roots[0], chain=chain)
    assert len(calls) == 0


def test_exact_chain_cache_clear_drops_the_images():
    # the integer image and the steps live on the cached chain only, so
    # clearing the cache (as the benchmark does between rounds) drops them
    model = models.make("coulomb", 6, {"lambda": Fraction(1, 2)})
    system = recurrence.build_baseline(model)
    first = recurrence.exact_chain(system)
    assert recurrence.exact_chain(system) is first
    recurrence.exact_chain.cache_clear()
    second = recurrence.exact_chain(system)
    assert second is not first
    assert second.constraint_image is not first.constraint_image
    assert second.constraint_image == first.constraint_image
    assert second.steps is not first.steps
    assert second.steps == first.steps
    assert callable(recurrence.exact_chain.cache_clear)


def test_exact_chain_builds_past_the_float_range():
    # razavy-sinh2 n = 160: the constraint's coefficients pass the float
    # range, which the exact chain holds as integers
    model = models.make("razavy-sinh2", 160, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1})
    chain = recurrence.exact_chain(recurrence.build_baseline(model))
    assert max(abs(c) for c in as_fractions(chain.constraint_image)) > 10**308


def test_chain_images_are_the_chain():
    spectrum = solved("chen-even")
    system, chain = recurrence.build_baseline(spectrum.model), spectrum.chain
    # each stored step rebuilds its member from the two before it
    assert len(chain.steps) == chain.n
    members, constraint, _ = reference_chain(system)
    members = [list(member) for member in members]
    assert as_fractions(chain.last_member_image) == members[-1]
    prev = []
    for k, (alpha, beta, gamma, delta) in enumerate(chain.steps, start=1):
        assert all(type(v) is int for v in (alpha, beta, gamma, delta))
        cur = members[k - 1]
        rebuilt = polynomials.poly_add(
            polynomials.poly_scale(prev, gamma),
            polynomials.poly_mul_linear(cur, alpha, beta),
        )
        assert [Fraction(c, delta) for c in rebuilt] == members[k], k
        prev = cur
    assert as_fractions(chain.constraint_image) == list(constraint)


# ---------------------------------------------------------------------------
# ODE residual of assembled solutions
# ---------------------------------------------------------------------------

def test_ode_residual_detects_wrong_solution():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    ode = model.ode_coefficients(1.0)
    good = recurrence.exact_solution(recurrence.build_baseline(model), 1.0)
    bad = [c + Fraction(1, 10) for c in good]
    assert relative_ode_residual(ode, [float(c) for c in good]) < 1e-14
    assert relative_ode_residual(ode, [float(c) for c in bad]) > 1e-3


def test_ode_residual_zero_solution_is_zero():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    ode = model.ode_coefficients(1.0)
    assert relative_ode_residual(ode, [0.0, 0.0]) == 0.0
