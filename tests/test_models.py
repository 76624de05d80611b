"""Unit tests for the model catalog: tables, validation, classification."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qespectra import models, recurrence, solve
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


def test_coulomb_energy_and_physical_coupling():
    model = models.make("coulomb", 3, {"lambda": Fraction(1, 2)})
    assert model.energy(123.0) == 3 + 0.5 + 0.5  # independent of the root
    assert model.baseline() == ("epsilon", 3)
    # omega = 2 makes the rescaling the identity
    assert model.beta_physical(1.5) == pytest.approx(1.5)
    other = models.make("coulomb", 3, {"lambda": Fraction(1, 2), "omega": 8})
    assert other.beta_physical(1.5) == pytest.approx(3.0)


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
