"""Property-based invariants, randomized over admissible model instances."""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import (
    CATALOG_PARAMS,
    as_fractions,
    certified_roots,
    float_chain_at,
    poly_eval,
    poly_mul,
    reference_chain,
    relative_ode_residual,
)
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
    spectrum = solve(model)
    system = recurrence.build_baseline(model)

    # chain products are strictly positive at the chosen centre
    assert all(lam > 0 for lam in spectrum.ttrr.lam)
    assert spectrum.ttrr.centre in (centre for centre, _ in system.centres)

    xs = np.asarray(spectrum.roots)

    # one real simple root per chain state, in ascending order
    assert len(xs) == model.n + 1
    assert np.all(np.isfinite(xs))
    assert np.all(np.diff(xs) > 0)

    # the exact constraint certifies every root, tight doublets included
    # (dshg n = 5, xi = 0.1), and the float roots sit on the exact ones
    exact = [float(x) for x in certified_roots(spectrum.chain, spectrum.roots)]
    span = max(1.0, float(xs[-1] - xs[0]))
    np.testing.assert_allclose(exact, xs, rtol=1e-9, atol=1e-9 * span)

    # every assembled solution satisfies the defining equation
    for root in spectrum.roots:
        ode = model.ode_coefficients(root)
        exact = [float(c) for c in recurrence.exact_solution(system, root)]
        assert relative_ode_residual(ode, exact) < 1e-10


@settings(max_examples=15, deadline=None)
@given(model=model_instances(max_n=3))
def test_exact_replay_matches_float_chain(model):
    # the exact chain at a scan value agrees with a float chain run there
    # straight off the ODE table
    system = recurrence.build_baseline(model)
    exact = recurrence.exact_chain(system)
    polys = (*reference_chain(system)[0], as_fractions(exact.constraint_image))
    for x in (-2.0, 0.75):
        members, constraint = float_chain_at(model, x)
        for poly, (value, mag) in zip(polys, members + [constraint]):
            got = float(poly_eval(poly, Fraction(x)))
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
# the command line: every request ends in an exit code
# ---------------------------------------------------------------------------

_ODD_VALUES = ("nan", "inf", "1/0", "1e400", "1e-9", "-1e6", "text")


def _option(draw, name, values):
    """``[name=value]`` for a drawn value, or no option at all."""
    value = draw(st.none() | values)
    return [] if value is None else [f"{name}={value!r}"]


@st.composite
def cli_requests(draw):
    """argv of one roots, constraint, wavefunction or verify call on a catalog id.

    The parameters are the id's ``CATALOG_PARAMS``, one of them sometimes
    swapped for an odd value, and the box and grid options range past what
    the wells allow.
    """
    command = draw(st.sampled_from(("roots", "constraint", "wavefunction", "verify")))
    model_id = draw(st.sampled_from(sorted(CATALOG_PARAMS)))
    params = {key: str(value) for key, value in CATALOG_PARAMS[model_id].items()}
    if draw(st.integers(0, 3)) == 0:
        params[draw(st.sampled_from(sorted(params)))] = draw(st.sampled_from(_ODD_VALUES))
    argv = [command, "--model", model_id, "--n", str(draw(st.integers(-1, 8)))]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    if command == "constraint":
        argv.append("--range=-50:50:5")
    elif command != "roots":
        argv.append(f"--root-index={draw(st.integers(-2, 9))}")
    if command == "wavefunction":
        argv += _option(draw, "--grid-l", st.floats(-1.0, 300.0))
        argv += _option(draw, "--grid-points", st.integers(-1, 2000))
    elif command == "verify":
        xmax = draw(st.none() | st.floats(-300.0, 300.0))
        if xmax is not None:
            xmin = draw(st.sampled_from((-xmax, 0.0, xmax - 1.0)))
            argv += [f"--xmin={xmin!r}", f"--xmax={xmax!r}"]
        argv += _option(draw, "--points", st.integers(-1, 2000))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=cli_requests())
# the escapes found so far: V overflows on the box; |d_j d_(j+1)| overflows
# in the Sturm count's split test; a step of 1e-91 overflows the residual;
# sigma = 1/g has no float reciprocal; a sampling step of 1e-184 exited 0
# with psi ~ 1e91
@example(argv=[
    "verify", "--model", "dshg", "--n", "2", "--param", "xi=2", "--root-index=0",
    "--xmin=-300.0", "--xmax=300.0", "--points=2000",
])
@example(argv=[
    "verify", "--model", "dshg", "--n", "3", "--param", "xi=2", "--root-index=3",
    "--xmin=0.0", "--xmax=123.80235792120567",
])
# the same split-test overflow on the symmetric box that dshg's half line needs
@example(argv=[
    "verify", "--model", "dshg", "--n", "3", "--param", "xi=2", "--root-index=3",
    "--xmin=-123.80235792120567", "--xmax=123.80235792120567",
])
@example(argv=[
    "verify", "--model", "dshg", "--n", "0", "--param", "xi=2", "--root-index=0",
    "--xmin=0.0", "--xmax=7.007208148710982e-89", "--points=471",
])
@example(argv=[
    "roots", "--model", "chen-even", "--n", "0", "--param", "V1=9/100",
    "--param", "V3=400", "--param", "g=1e400",
])
@example(argv=[
    "wavefunction", "--model", "chen-even", "--n", "2", "--param", "V1=9/100",
    "--param", "V3=400", "--param", "g=1/4", "--root-index=0",
    "--grid-l=1.4675717386772963e-183", "--grid-points", "20",
])
# a --range whose span max - min overflows gave NaN points (exit 1)
@example(argv=[
    "constraint", "--model", "dshg", "--n", "2", "--param", "xi=2",
    "--range=-1e308:1e308:3",
])
def test_cli_requests_end_in_an_exit_code(argv):
    # an exception, a RuntimeWarning among them, would propagate out of main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    assert code in (0, 2, 3, 4), (code, text)
    if code == 3:
        assert text.startswith("numerical failure:") and text.count("\n") == 1, text


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
    p = poly_mul(g, a)
    q = poly_mul(g, b)
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
    assert wavefunctions._is_symmetric(xs)
    assert wavefunctions._parity(psi) == ("odd" if odd else "even")


# ---------------------------------------------------------------------------
# sign fixing
# ---------------------------------------------------------------------------

def _first_peak_sign_loop(psi):
    """The sample-by-sample walk ``wavefunctions._first_peak_sign`` replaces."""
    mag = np.abs(psi)
    peak = float(mag.max())
    threshold = 0.01 * peak
    rising = False
    for i in range(1, len(psi)):
        if mag[i] < threshold:
            continue
        if mag[i] >= mag[i - 1]:
            rising = True
        elif rising:
            return 1.0 if psi[i - 1] > 0 else -1.0
    return 1.0 if psi[int(np.argmax(mag))] > 0 else -1.0


@settings(max_examples=400, deadline=None)
@given(
    # a narrow range makes plateaus, and values below 1% of a wide range's
    # peak make runs under the threshold
    values=st.lists(
        st.integers(min_value=-3, max_value=3) | st.integers(min_value=-1000, max_value=1000),
        min_size=1, max_size=60,
    ),
    shape=st.sampled_from(("as drawn", "ascending", "descending", "positive", "negative")),
)
@example(values=[0, 5, 5, 5, 3, -9], shape="as drawn")  # plateau before the fall
@example(values=[1000, 2, -3, 1, 400, 300, -800], shape="as drawn")  # sub-threshold run
@example(values=[0, 1, -2, 1, 100], shape="as drawn")  # 1 sits at the threshold: it counts
@example(values=[1, 2, 3, 4], shape="ascending")
@example(values=[-4, -3, -2, -1], shape="ascending")
@example(values=[0, 0, 0], shape="as drawn")
def test_first_peak_sign_matches_the_loop(values, shape):
    psi = np.array(values, dtype=float)
    if shape == "ascending":
        psi = np.sort(psi)
    elif shape == "descending":
        psi = np.sort(psi)[::-1]
    elif shape == "positive":
        psi = np.abs(psi)
    elif shape == "negative":
        psi = -np.abs(psi)
    assert wavefunctions._first_peak_sign(psi) == _first_peak_sign_loop(psi)
