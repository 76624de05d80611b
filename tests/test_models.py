"""Unit tests for the model catalog: tables, validation, classification."""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_fractions, poly_mul, solved
from qespectra import models, oracle, recurrence, solve, wavefunctions
from qespectra.errors import (
    BaselineUnsolvable,
    DomainError,
    InvalidParams,
)

ALL_IDS = [
    "xie-even", "xie-odd", "chen-even", "chen-odd", "coulomb",
    "razavy", "razavy-sinh2", "dshg", "perturbed-dshg", "perturbed-dshg-sinh2",
]

SAMPLE_PARAMS = {
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


# ---------------------------------------------------------------------------
# catalog and construction
# ---------------------------------------------------------------------------

def test_catalog_has_all_models():
    listing = models.catalog()
    assert [entry["model"] for entry in listing] == ALL_IDS
    for entry in listing:
        assert entry["scan_variable"] in ("V3", "V2", "beta", "E")
        assert entry["summary"]


def test_make_unknown_model_and_params():
    with pytest.raises(InvalidParams):
        models.make("no-such-model", 1, {})
    with pytest.raises(InvalidParams):
        models.make("coulomb", 1, {"lambda": 0.5, "bogus": 1})
    with pytest.raises(InvalidParams):
        models.make("coulomb", 1, {})  # lambda missing
    with pytest.raises(InvalidParams):
        models.make("coulomb", None, {"lambda": 0.5})  # n missing


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_float_parameters_build_the_exact_model(model_id):
    # a float is the exact binary rational it is, from entry to table
    floats = {k: float(v) for k, v in SAMPLE_PARAMS[model_id].items()}
    exact = {k: Fraction(v) for k, v in floats.items()}
    for n in (0, 5):
        model = models.make(model_id, n, floats)
        assert model == models.make(model_id, n, exact)
        assert all(isinstance(v, Fraction) or type(v) is int
                   for v in models.params(model).values())
        system = recurrence.build_baseline(model)
        assert system == recurrence.build_baseline(models.make(model_id, n, exact))
        for _, table in system.centres:
            assert all(type(v) is Fraction for v in vars(table).values())


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_non_finite_or_non_numeric_parameters_raise(model_id):
    for name in SAMPLE_PARAMS[model_id]:
        for bad in (math.nan, math.inf, -math.inf, "1", None, 1j):
            params = {**SAMPLE_PARAMS[model_id], name: bad}
            with pytest.raises(InvalidParams):
                models.make(model_id, 2, params)
    if hasattr(models.CATALOG[model_id][0], "m_quantum"):
        for bad in (math.nan, math.inf, "12"):
            with pytest.raises(InvalidParams):
                models.make(model_id, None, {**SAMPLE_PARAMS[model_id], "M": bad})


def test_make_param_names_case_insensitive():
    a = models.make("xie-even", 2, {"V1": 1, "V2": -9})
    b = models.make("xie-even", 2, {"v1": 1, "v2": -9})
    assert a == b


def test_make_accepts_m_for_energy_scan_models():
    # dshg: M = n + 1
    assert models.make("dshg", None, {"xi": 2, "M": 12}).n == 11
    # razavy: M = 2n + alpha + beta
    m = models.make("razavy", None, {"xi": 1, "alpha": 0, "beta": 1, "M": 21})
    assert m.n == 10
    # perturbed-dshg: M = 2n + alpha + beta + 1
    m = models.make("perturbed-dshg", None, {"xi": 2, "alpha": 1, "beta": 0, "M": 12})
    assert m.n == 5
    # consistent duplicates are fine; inconsistent ones are not
    assert models.make("dshg", 11, {"xi": 2, "M": 12}).n == 11
    with pytest.raises(InvalidParams):
        models.make("dshg", 3, {"xi": 2, "M": 12})
    # unreachable M
    with pytest.raises(BaselineUnsolvable):
        models.make("razavy", None, {"xi": 1, "alpha": 0, "beta": 0, "M": 21})
    # M only exists for energy-scan models
    with pytest.raises(InvalidParams):
        models.make("xie-even", None, {"V1": 1, "V2": -50, "M": 10})


def test_make_needs_m_exactly_reachable():
    # M is solved exactly: an M that a float tolerance used to round onto an
    # integer n is now unreachable
    with pytest.raises(BaselineUnsolvable):
        models.make("razavy", None, {"xi": 1, "alpha": 0, "beta": 1, "M": 21 + 1e-10})
    with pytest.raises(BaselineUnsolvable):
        models.make("dshg", None, {"xi": 2, "M": 12 + 1e-12})
    with pytest.raises(BaselineUnsolvable):
        models.make("perturbed-dshg", None,
                    {"xi": 2, "alpha": 1, "beta": 0, "M": Fraction(25, 2)})
    with pytest.raises(BaselineUnsolvable):
        models.make("dshg", None, {"xi": 2, "M": 0})  # n = -1
    # any exact spelling of a reachable M works, fractional offsets included
    assert models.make("dshg", None, {"xi": 2, "M": Fraction(24, 2)}).n == 11
    assert models.make("dshg", None, {"xi": 2, "M": 12.0}).n == 11
    m = models.make("perturbed-dshg", None,
                    {"xi": 2, "alpha": Fraction(1, 3), "beta": 0, "M": Fraction(16, 3)})
    assert m.n == 2


def test_catalog_is_read_off_the_classes():
    listing = {entry["model"]: entry for entry in models.catalog()}
    for model_id, entry in listing.items():
        cls = models.CATALOG[model_id][0]
        assert entry["scan_variable"] == cls.scan_name
        assert entry["parameters"] == list(cls.PARAMS)
        assert entry["constraints"]
    assert listing["coulomb"]["defaults"] == {"omega": 2}
    assert all(not listing[k]["defaults"] for k in listing if k != "coulomb")
    # the field name is accepted as a spelling of the parameter
    assert models.make("coulomb", 1, {"lam": Fraction(1, 2)}).omega == 2


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_params_rebuild_the_instance(model_id):
    model = models.make(model_id, 3, SAMPLE_PARAMS[model_id])
    assert models.params(model).items() >= SAMPLE_PARAMS[model_id].items()
    assert models.make(model_id, 3, models.params(model)) == model


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_xie_requires_positive_v1():
    with pytest.raises(InvalidParams):
        models.make("xie-even", 1, {"V1": 0, "V2": -5})
    with pytest.raises(InvalidParams):
        models.make("xie-odd", 1, {"V1": -1, "V2": -5})


def test_chen_validators():
    good = {"V1": Fraction(9, 100), "V3": 400, "g": Fraction(1, 4)}
    models.make("chen-even", 1, good)
    with pytest.raises(InvalidParams):
        models.make("chen-even", 1, {**good, "g": 0})
    with pytest.raises(InvalidParams):
        models.make("chen-even", 1, {**good, "V1": Fraction(26, 100)})  # 4 V1 > 1
    with pytest.raises(InvalidParams):
        models.make("chen-even", 1, {**good, "V3": -2})  # V3 < -(1+g)


def test_coulomb_validators():
    with pytest.raises(InvalidParams):
        models.make("coulomb", 1, {"lambda": Fraction(-1, 2)})  # 2 lam = -1
    with pytest.raises(InvalidParams):
        models.make("coulomb", 1, {"lambda": Fraction(1, 2), "omega": 0})


def test_razavy_validators():
    with pytest.raises(InvalidParams):
        models.make("razavy", 1, {"xi": 0, "alpha": 0, "beta": 0})
    with pytest.raises(InvalidParams):
        models.make("razavy", 1, {"xi": 1, "alpha": 2, "beta": 0})


def test_razavy_exponents_are_checked_before_they_become_ints():
    with pytest.raises(InvalidParams):
        models.make("razavy", 1, {"xi": 1, "alpha": 1.5, "beta": 0})
    model = models.make("razavy-sinh2", 1, {"xi": 1, "alpha": 1.0, "beta": Fraction(0)})
    assert (model.alpha, model.beta) == (1, 0)
    assert type(model.alpha) is int and type(model.beta) is int


def test_perturbed_dshg_validators():
    with pytest.raises(InvalidParams):
        models.make("perturbed-dshg", 1, {"xi": 0, "alpha": 1, "beta": 0})
    with pytest.raises(InvalidParams):
        models.make("perturbed-dshg", 1, {"xi": 1, "alpha": 1, "beta": Fraction(1, 2)})
    with pytest.raises(InvalidParams):
        models.make("perturbed-dshg", 1, {"xi": 1, "alpha": 1, "beta": 2})
    # fractional beta inside (0, 1) is legal and lives on the half line
    m = models.make("perturbed-dshg", 1, {"xi": 1, "alpha": 1, "beta": Fraction(1, 4)})
    assert m.half_line
    assert not models.make("perturbed-dshg", 1, {"xi": 1, "alpha": 1, "beta": 1}).half_line


def test_negative_n_rejected():
    with pytest.raises(InvalidParams):
        models.make("dshg", -1, {"xi": 1})


# ---------------------------------------------------------------------------
# table consistency: the baseline table vs the model's ODE table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_id", ALL_IDS)
def test_multiplicator_table_matches_ode_definition(model_id):
    n = 6
    model = models.make(model_id, n, SAMPLE_PARAMS[model_id])
    system = recurrence.build_baseline(model)
    table = system.centres[0][1]
    for scan in (Fraction(-3, 2), Fraction(7, 3)):
        ode = model.ode_coefficients(scan)
        for k in range(n + 2):
            f1, f0, fm1 = table.multiplicators(k)
            # exact parameters: the two tables agree Fraction for Fraction
            assert (f1, f0 + system.sigma0 * scan, fm1) == ode.multiplicators(k)


@pytest.mark.parametrize(
    "model_id, params",
    [(model_id, SAMPLE_PARAMS[model_id]) for model_id in ALL_IDS]
    # a float parameter is the exact binary rational it is, so its table
    # zeroes F1(5) exactly as well
    + [("dshg", {"xi": 0.3})],
    ids=[*ALL_IDS, "dshg-float"],
)
def test_baseline_zeroes_the_leading_multiplicator(model_id, params):
    n = 5
    system = recurrence.build_baseline(models.make(model_id, n, params))
    for _, table in system.centres:
        f1 = [table.multiplicators(k)[0] for k in range(n + 1)]
        assert f1[n] == 0
        assert all(v != 0 for v in f1[:n])


# ---------------------------------------------------------------------------
# baselines and admissibility
# ---------------------------------------------------------------------------

def test_xie_deep_baselines_are_exact_integers():
    even = models.make("xie-even", 10, {"V1": 1, "V2": -50})
    odd = models.make("xie-odd", 10, {"V1": 1, "V2": -50})
    assert even.baseline() == ("sqrt_minus_E", 3)
    assert odd.baseline() == ("sqrt_minus_E", 2)
    assert even.energy(0.0) == -9.0
    assert odd.energy(0.0) == -4.0


def test_xie_normalizable_threshold():
    # even sector: V2 < -((4n+3) sqrt(V1) + V1)
    n = 2
    bound = -((4 * n + 3) + 1)  # V1 = 1
    assert models.make("xie-even", n, {"V1": 1, "V2": bound - 1}).normalizable()
    assert not models.make("xie-even", n, {"V1": 1, "V2": bound}).normalizable()
    # odd sector: V2 < -((4n+5) sqrt(V1) + V1)
    bound = -((4 * n + 5) + 1)
    assert models.make("xie-odd", n, {"V1": 1, "V2": bound - 1}).normalizable()
    assert not models.make("xie-odd", n, {"V1": 1, "V2": bound}).normalizable()


def test_coulomb_energy_is_independent_of_the_root():
    model = models.make("coulomb", 3, {"lambda": Fraction(1, 2)})
    assert model.energy(123.0) == 3 + 0.5 + 0.5
    assert model.baseline() == ("epsilon", 3)


def test_energy_scan_models_return_root_as_energy():
    for model_id in ("razavy", "dshg", "perturbed-dshg"):
        model = models.make(model_id, 3, SAMPLE_PARAMS[model_id])
        assert model.energy(-7.25) == -7.25


def test_razavy_m_quantum_and_parity():
    model = models.make("razavy", 10, {"xi": 1, "alpha": 0, "beta": 1})
    assert model.m_quantum == 21
    assert model.parity == "odd"
    assert models.make("razavy", 10, {"xi": 1, "alpha": 1, "beta": 0}).parity == "even"


# ---------------------------------------------------------------------------
# potentials and prefactors
# ---------------------------------------------------------------------------

def test_xie_potential_shape():
    model = models.make("xie-even", 2, {"V1": 1, "V2": -5})
    xs = np.array([0.0, 1.0, 30.0])
    v = model.potential(xs, 4.0)
    assert v[0] == pytest.approx(-(1 - 5 + 4))
    assert abs(v[2]) < 1e-20  # sech terms die off


def test_double_well_classification_xie_only():
    model = models.make("xie-even", 10, {"V1": 1, "V2": -50})
    # frozen classification checks for the deep even instance
    assert model.double_well(50.6499)
    assert model.double_well(62.9912)
    assert model.double_well(85.016)
    assert not model.double_well(117.499)
    for other_id in ("chen-even", "coulomb", "razavy", "dshg", "perturbed-dshg"):
        other = models.make(other_id, 2, SAMPLE_PARAMS[other_id])
        assert not hasattr(other, "double_well")


def test_coulomb_domain_guard():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    with pytest.raises(DomainError):
        model.potential(np.array([-1.0, 1.0]), 0.5)
    with pytest.raises(DomainError):
        model.prefactor(np.array([0.0, 1.0]))


def test_perturbed_dshg_potential_finite_on_axis_for_integer_beta():
    # beta = 1 makes the 1/sinh^2 coupling vanish identically; the potential
    # must not evaluate 0/0 at x = 0
    model = models.make("perturbed-dshg", 2, {"xi": 2, "alpha": 2, "beta": 1})
    v = model.potential(np.array([0.0]), None)
    assert np.all(np.isfinite(v))


def test_perturbed_dshg_fractional_beta_prefactor_is_half_line():
    model = models.make("perturbed-dshg", 1, {"xi": 1, "alpha": 1, "beta": Fraction(1, 4)})
    with pytest.raises(DomainError):
        model.prefactor(np.array([-1.0, 1.0]))
    q = model.prefactor(np.array([0.5, 1.0]))
    assert np.all(np.isfinite(q)) and np.all(q > 0)


def test_dshg_potential_is_squared_shifted_cosh():
    model = models.make("dshg", 3, {"xi": 2})
    xs = np.array([-0.7, 0.0, 0.7])
    v = model.potential(xs, None)
    expect = (2 * np.cosh(2 * xs) - 4) ** 2
    np.testing.assert_allclose(v, expect, rtol=1e-14)
    # even in x
    assert v[0] == pytest.approx(v[2])


# ---------------------------------------------------------------------------
# exact square root helper
# ---------------------------------------------------------------------------

def test_sqrt_keeps_fractions_rational():
    s = models._sqrt(Fraction(2))
    assert isinstance(s, Fraction)
    assert abs(s * s - 2) < Fraction(1, 10 ** 39)
    assert models._sqrt(Fraction(9, 4)) == Fraction(3, 2)  # perfect square


def test_models_equal_spectra_between_variants():
    # razavy two algebraizations agree (tight check lives in acceptance; a
    # small instance here keeps the unit suite self-contained)
    a = models.make("razavy", 2, {"xi": 1, "alpha": 1, "beta": 0})
    b = models.make("razavy-sinh2", 2, {"xi": 1, "alpha": 1, "beta": 0})
    _, _, _, ra = solve(a)
    _, _, _, rb = solve(b)
    np.testing.assert_allclose(ra.roots, rb.roots, rtol=1e-10)


def test_perturbed_dshg_matches_shifted_razavy():
    # V_pdshg(xi) = V_razavy(2 xi) + (M^2 + xi^2) at equal (alpha, beta, n):
    # the two spectra must differ by exactly that constant.
    n, alpha, beta, xi = 2, 1, 0, 2
    pdshg = models.make("perturbed-dshg", n, {"xi": xi, "alpha": alpha, "beta": beta})
    razavy = models.make("razavy", n, {"xi": 2 * xi, "alpha": alpha, "beta": beta})
    shift = float(pdshg.m_quantum) ** 2 + xi ** 2
    xs = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(
        pdshg.potential(xs, None), razavy.potential(xs, None) + shift, rtol=1e-12
    )
    _, _, _, rp = solve(pdshg)
    _, _, _, rr = solve(razavy)
    np.testing.assert_allclose(
        np.asarray(rp.roots), np.asarray(rr.roots) + shift, rtol=1e-9
    )


# ---------------------------------------------------------------------------
# odd parity sectors: the gauged even table against the hand-written one
# ---------------------------------------------------------------------------

def _xie_odd_reference(model, scan):
    """(s, table, normalizable) of the odd sech-power sector, written out."""
    v1, v2, n = model.v1, model.v2, model.n
    r = models._sqrt(v1)
    s = -2 * n - (v1 + v2) / (2 * r) - Fraction(5, 2)
    table = recurrence.OdeCoefficients(
        a3=0, a2=4, a1=-4,
        b2=4 * r, b1=10 + 4 * (s - r), b0=-6,
        c1=v1 + v2 + 5 * r + 2 * r * s,
        c0=(s + 1) * (s + 2) - 3 * r - v1 - v2 - scan,
    )
    return s, table, v2 < -((4 * n + 5) * r + v1)


def _chen_odd_reference(model, scan):
    """(E, table, normalizable) of the odd rational-in-cosh sector, written out."""
    l1, l2, g, n = model.lam1, model.lam2, model.g, model.n
    L = l1 + l2
    en = -1 - 4 * (n + L) * (n + L + 1)
    table = recurrence.OdeCoefficients(
        a3=1, a2=-2 - 1 / g, a1=1 + 1 / g,
        b2=2 * (L + 1),
        b1=-(2 * L + Fraction(7, 2) + 2 * (l1 + 1) / g),
        b0=3 * (1 + g) / (2 * g),
        c1=L * (L + 1) + (en + 1) / 4,
        c0=-(1 + g) / (4 * g) * (
            6 * l1 + 4 * l2 + 1 + (2 * l2 * g - scan) / (1 + g)
            - model.v1 - model.v3 / (1 + g) ** 2 + en
        ) + l2 / g,
    )
    return en, table, 2 * (L + n) < -1


def _assert_odd_sector_is_the_reference(model, scans):
    if isinstance(model, models.SechPowerWell):
        reference, baseline = _xie_odd_reference, model.s
    else:
        reference, baseline = _chen_odd_reference, model._en
    for scan in scans:
        value, table, normalizable = reference(model, scan)
        got = model.ode_coefficients(scan)
        assert got == table, scan
        # exact: every entry the same rational, none a float
        assert all(type(c) in (int, Fraction) for c in astuple(got))
    assert baseline == value
    assert model.normalizable() == normalizable


_ODD_SCANS = (Fraction(0), Fraction(1), Fraction(-7, 3))


@pytest.mark.parametrize("n", (0, 1, 7, 10, 20, 40))
@pytest.mark.parametrize("model_id", ("xie-odd", "chen-odd"))
def test_odd_tables_are_the_hand_written_ones_at_the_deep_parameters(model_id, n):
    model = models.make(model_id, n, SAMPLE_PARAMS[model_id])
    _assert_odd_sector_is_the_reference(model, _ODD_SCANS)


_FRACTIONS = st.fractions(min_value=-60, max_value=60, max_denominator=40)
_POSITIVE = st.fractions(min_value=Fraction(1, 40), max_value=20, max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    v1=_POSITIVE,
    v2=st.fractions(min_value=-400, max_value=20, max_denominator=40),
    scan=_FRACTIONS,
)
def test_xie_odd_table_is_the_hand_written_one(n, v1, v2, scan):
    model = models.make("xie-odd", n, {"V1": v1, "V2": v2})
    _assert_odd_sector_is_the_reference(model, (scan,))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    v1=st.fractions(min_value=-20, max_value=Fraction(1, 4), max_denominator=40),
    g=_POSITIVE,
    v3_margin=st.fractions(min_value=0, max_value=500, max_denominator=40),
    scan=_FRACTIONS,
)
def test_chen_odd_table_is_the_hand_written_one(n, v1, g, v3_margin, scan):
    params = {"V1": v1, "V3": v3_margin - (1 + g), "g": g}
    _assert_odd_sector_is_the_reference(models.make("chen-odd", n, params), (scan,))


# ---------------------------------------------------------------------------
# the double sinh-Gordon family: razavy and dshg from perturbed-dshg
# ---------------------------------------------------------------------------

def _razavy_reference_table(model, scan):
    """The razavy table (either variant) as written out in its own terms."""
    xi, a, b, m = model.xi, model.alpha, model.beta, model.m_quantum
    ode = recurrence.OdeCoefficients(
        a3=0, a2=4, a1=-4,
        b2=-4 * xi, b1=4 * (a + b + xi + 1), b0=-2 * (2 * a + 1),
        c1=2 * xi * (m - a - b),
        c0=scan + (a + b) ** 2 + xi * (2 * a - m),
    )
    return ode if model.variant == "cosh2" else recurrence.recentre(ode, 1)


def _razavy_reference_chart(model, x):
    """(coordinate, prefactor) of razavy, written out in its own terms."""
    x = np.asarray(x, dtype=float)
    z = np.cosh(x) ** 2 if model.variant == "cosh2" else np.sinh(x) ** 2
    q = np.exp(-0.25 * float(model.xi) * np.cosh(2 * x))
    if model.alpha:
        q = q * np.cosh(x)
    if model.beta:
        q = q * np.sinh(x)
    return z, q


_EXPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("model_id", ("razavy", "razavy-sinh2"))
def test_razavy_table_is_the_hand_written_one(model_id):
    # razavy is perturbed-dshg at xi/2 with the energy shifted by
    # (M+1)^2 + xi^2/4; the table derived that way must be the one written
    # out for razavy, rational for rational
    for xi in (Fraction(k, 4) for k in range(1, 17)):
        for alpha, beta in _EXPONENTS:
            for n in (0, 1, 2, 5, 10, 20):
                model = models.make(model_id, n, {"xi": xi, "alpha": alpha, "beta": beta})
                for scan in _ODD_SCANS:
                    got = model.ode_coefficients(scan)
                    assert got == _razavy_reference_table(model, scan), (xi, alpha, beta, n)
                    assert all(type(c) in (int, Fraction) for c in astuple(got))


def test_razavy_chart_and_prefactor_are_the_hand_written_ones():
    # bit for bit on the deep case's default grid and on the FD grid of
    # each of its roots.  np.array_equal compares values, so only the sign
    # of a zero may differ: perturbed-dshg's prefactor returns +0.0 where
    # the decay underflows, and 0 * sinh x gave -0.0 for x < 0 there
    model, _, _, _, roots = solved("razavy")
    grids = [wavefunctions.default_grid(model, model.n)] + [
        oracle.grid_nodes(model, oracle.default_verify_config(model, root))
        for root in roots.roots
    ]
    for variant in ("cosh2", "sinh2"):
        for alpha, beta in _EXPONENTS:
            well = models.HyperbolicDoubleWell(model.xi, alpha, beta, model.n, variant)
            for xs in grids:
                z, q = _razavy_reference_chart(well, xs)
                got_z, got_q = well.coordinate(xs), well.prefactor(xs)
                assert np.all(np.isfinite(got_q))
                assert np.array_equal(got_z, z) and np.array_equal(got_q, q)


def test_razavy_samples_past_the_overflow_of_cosh():
    # past |x| ~ 710 cosh x overflows where the decay has long underflowed:
    # the prefactor reads 0 there, where the written-out one read nan and
    # failed the sample as an overflow
    model = models.make("razavy", 3, {"xi": Fraction(1, 2), "alpha": 1, "beta": 1})
    _, chain, _, roots = solve(model)
    xs = np.linspace(-800.0, 800.0, 4001)
    grid = wavefunctions.sample(model, roots.roots[0], xs=xs, chain=chain)
    assert np.all(np.isfinite(grid.psi)) and grid.psi[0] == grid.psi[-1] == 0.0


def _dshg_sectors(n):
    """(alpha, beta, n) of the two perturbed-dshg sectors at dshg's M = n + 1."""
    if n % 2 == 0:
        return ((0, 0, n // 2), (1, 1, n // 2 - 1))
    return ((1, 0, (n - 1) // 2), (0, 1, (n - 1) // 2))


def _monic_constraint(model):
    chain = recurrence.exact_chain(recurrence.build_baseline(model))
    coeffs = as_fractions(chain.constraint_image)
    return [c / coeffs[-1] for c in coeffs]


@pytest.mark.parametrize("xi", (2, Fraction(1, 3)))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 10, 11, 20, 21))
def test_dshg_constraint_is_the_product_of_its_parity_sectors(n, xi):
    # over the rationals the dshg constraint is a constant times the product
    # of two perturbed-dshg sector constraints at the same xi and M: the
    # exact parity factors of its doublets
    dshg = models.make("dshg", n, {"xi": xi})
    product = [Fraction(1)]
    for alpha, beta, k in _dshg_sectors(n):
        sector = models.make("perturbed-dshg", k, {"xi": xi, "alpha": alpha, "beta": beta})
        assert sector.m_quantum == dshg.m_quantum
        product = poly_mul(product, _monic_constraint(sector))
    assert _monic_constraint(dshg) == product
