"""Property-based invariants, randomized over admissible model instances."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import certified_roots, float_chain_at
from qespectra import cli, models, polynomials, recurrence, solve, wavefunctions

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# random admissible model instances
#
# Every drawn parameter set satisfies the documented admissibility and
# normalizability conditions, and square roots inside the coefficient tables
# come out rational.  Half the draws pass their parameters as floats, which
# the model takes as the exact binary rationals they are.
# ---------------------------------------------------------------------------

_XIE_V1 = [Fraction(1, 4), Fraction(4, 9), Fraction(1), Fraction(9, 4), Fraction(4)]

_SMALL_FRACTIONS = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(4), max_denominator=12
)


@st.composite
def model_instances(draw, max_n=5):
    family = draw(st.sampled_from(list(models.CATALOG)))
    n = draw(st.integers(min_value=0, max_value=max_n))
    if family.startswith("xie"):
        v1 = draw(st.sampled_from(_XIE_V1))
        root_v1 = models._sqrt(v1)
        states = 4 * n + (3 if family.endswith("even") else 5)
        margin = draw(st.fractions(
            min_value=Fraction(1, 2), max_value=Fraction(40), max_denominator=8
        ))
        v2 = -(states * root_v1 + v1 + margin)
        params = {"V1": v1, "V2": v2}
    elif family.startswith("chen"):
        t = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]))
        v1 = (1 - t * t) / 4
        g = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1)]))
        u = draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)]))
        v3 = (u * u - 1) * (1 + g)
        params = {"V1": v1, "V3": v3, "g": g}
    elif family == "coulomb":
        params = {
            "lambda": draw(_SMALL_FRACTIONS),
            "omega": draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)])),
        }
    elif family.startswith("razavy"):
        params = {
            "xi": draw(_SMALL_FRACTIONS),
            "alpha": draw(st.sampled_from([0, 1])),
            "beta": draw(st.sampled_from([0, 1])),
        }
    elif family == "dshg":
        params = {"xi": draw(_SMALL_FRACTIONS)}
    else:  # perturbed-dshg variants
        params = {
            "xi": draw(_SMALL_FRACTIONS),
            "alpha": draw(st.sampled_from([0, 1, 2])),
            "beta": draw(st.sampled_from(
                [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)]
            )),
        }
    if draw(st.booleans()):
        params = {k: float(v) for k, v in params.items()}
    return models.make(family, n=n, params=params)


# ---------------------------------------------------------------------------
# solved-spectrum invariants
# ---------------------------------------------------------------------------

@given(model=model_instances())
@example(model=models.make("dshg", 5, {"xi": 0.1}))
def test_solved_instance_invariants(model):
    system, chain, ttrr, roots = solve(model)

    # chain products are strictly positive at the chosen centre
    assert all(lam > 0 for lam in ttrr.lam)
    assert ttrr.centre in (centre for centre, _ in system.centres)

    xs = np.asarray(roots.roots)

    # one real simple root per chain state, in ascending order
    assert len(xs) == model.n + 1
    assert np.all(np.isfinite(xs))
    assert np.all(np.diff(xs) > 0)

    # the exact constraint certifies every root, tight doublets included
    # (dshg n = 5, xi = 0.1), and the float roots sit on the exact ones
    exact = [float(x) for x in certified_roots(chain, roots)]
    span = max(1.0, float(xs[-1] - xs[0]))
    np.testing.assert_allclose(exact, xs, rtol=1e-9, atol=1e-9 * span)

    # every assembled solution satisfies the defining equation
    for root in roots.roots:
        ode = model.ode_coefficients(root)
        exact = [float(c) for c in recurrence.exact_solution(system, root)]
        assert recurrence.relative_ode_residual(ode, exact) < 1e-10


@settings(max_examples=15, deadline=None)
@given(model=model_instances(max_n=3))
def test_exact_replay_matches_float_chain(model):
    # the exact chain at a scan value agrees with a float chain run there
    # straight off the ODE table
    exact = recurrence.run_ttrr(recurrence.build_baseline(model))
    for x in (-2.0, 0.75):
        members, constraint = float_chain_at(model, x)
        polys = tuple(exact.members) + (exact.constraint,)
        for poly, (value, mag) in zip(polys, members + [constraint]):
            got = float(polynomials.poly_eval(poly, Fraction(x)))
            assert abs(got - value) <= 1e-12 * mag


@given(
    model=model_instances(max_n=4),
    k=st.integers(min_value=0, max_value=8),
    probe=st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=9
    ),
)
def test_baseline_table_matches_ode_definition(model, k, probe):
    system = recurrence.build_baseline(model)
    f1, f0, fm1 = system.centres[0][1].multiplicators(k)
    got = (f1, f0 + system.sigma0 * probe, fm1)
    # float draws too: every parameter is exact once the model is built
    assert got == model.ode_coefficients(probe).multiplicators(k)


# ---------------------------------------------------------------------------
# exact GCD
# ---------------------------------------------------------------------------

_int_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=4
).filter(lambda cs: any(c != 0 for c in cs))


def _exact_divides(d, p):
    """True when d divides p exactly over the rationals."""
    r = [Fraction(c) for c in polynomials.trim(p)]
    d = [Fraction(c) for c in polynomials.trim(d)]
    while len(r) - 1 >= len(d) - 1 and r:
        factor = r[-1] / d[-1]
        shift = len(r) - len(d)
        for i in range(len(d) - 1):
            r[shift + i] -= factor * d[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return not r


@settings(max_examples=40, deadline=None)
@given(g=_int_polys, a=_int_polys, b=_int_polys)
def test_exact_gcd_recovers_common_factors(g, a, b):
    p = polynomials.poly_mul(g, a)
    q = polynomials.poly_mul(g, b)
    d = polynomials.exact_gcd(p, q)
    assert d[-1] == 1                      # monic
    assert len(d) >= len(polynomials.trim(g))  # at least the planted factor
    assert _exact_divides(d, p)
    assert _exact_divides(d, q)


@given(p=_int_polys)
def test_exact_gcd_with_zero_is_monic_self(p):
    d = polynomials.exact_gcd(p, [])
    lead = Fraction(polynomials.trim(p)[-1])
    expected = [Fraction(c) / lead for c in polynomials.trim(p)]
    assert d == expected


# ---------------------------------------------------------------------------
# JSON determinism
# ---------------------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 15), max_value=10 ** 15),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)

_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=60, deadline=None)
@given(payload=_json_payloads)
def test_emitted_json_reparses_byte_identically(payload):
    text = cli.emit_json(payload)
    assert cli.emit_json(json.loads(text)) == text


# ---------------------------------------------------------------------------
# parity classification
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    cs=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=1, max_size=3,
    ).filter(lambda cs: max(abs(c) for c in cs) > 0.1),
    odd=st.booleans(),
    half=st.integers(min_value=30, max_value=200),
)
def test_parity_classification_on_constructed_states(cs, odd, half):
    xs = np.linspace(-4.0, 4.0, 2 * half + 1)
    poly_even = sum(c * xs ** (2 * i) for i, c in enumerate(cs))
    psi = poly_even * np.exp(-(xs ** 2))
    if odd:
        psi = xs * psi
    grid = wavefunctions.WavefunctionGrid(xs, psi, 1.0, 0, None)
    assert wavefunctions.parity_classify(grid) == ("odd" if odd else "even")
