"""Shared helpers: one place to build (and cache) full spectra per instance.

Root extraction is cheap but the test suite asks for the same handful of
deep-well instances from many angles; caching the pipeline output keeps the
whole run inside the runtime budget.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from qespectra import models, recurrence, solve

# The deep-well instances the acceptance suite revolves around, with exact
# rational parameters so every coefficient table stays in Fraction arithmetic.
DEEP_CASES = {
    "xie-even": ("xie-even", 10, (("V1", 1), ("V2", -50))),
    "xie-odd": ("xie-odd", 10, (("V1", 1), ("V2", -50))),
    "chen-even": ("chen-even", 7, (("V1", Fraction(9, 100)), ("V3", 400), ("g", Fraction(1, 4)))),
    "chen-odd": ("chen-odd", 7, (("V1", Fraction(9, 100)), ("V3", 400), ("g", Fraction(1, 4)))),
    "coulomb": ("coulomb", 10, (("lambda", Fraction(1, 2)),)),
    "razavy": ("razavy", 10, (("xi", Fraction(1, 2)), ("alpha", 0), ("beta", 1))),
    "dshg": ("dshg", 11, (("xi", 2),)),
    "pdshg-20": ("perturbed-dshg", 11, (("xi", 2), ("alpha", 2), ("beta", 0))),
    "pdshg-21": ("perturbed-dshg", 11, (("xi", 2), ("alpha", 2), ("beta", 1))),
}


@lru_cache(maxsize=None)
def solved(case_key):
    """(model, system, chain, ttrr, roots) for one named deep-well case."""
    model_id, n, params = DEEP_CASES[case_key]
    model = models.make(model_id, n, dict(params))
    return (model, *solve(model))


@pytest.fixture(scope="session")
def deep():
    """Accessor fixture for the cached deep-well cases."""
    return solved


def float_chain_at(model, x):
    """The chain at one scan value, by a float run read off the ODE table.

    Runs the scalar three-term recurrence with the multiplicators
    ``recurrence.multiplicator_values(model.ode_coefficients(x), k)`` in
    float, independent of the tables ``build_baseline`` derives.  Returns
    (member values P[n,k](x) for k = 0..n, the constraint value), each as a
    (value, magnitude) pair; the magnitude is the same recurrence run on
    absolute values, the scale of the float rounding in the value.
    """
    ode = model.ode_coefficients(x)
    n = model.n

    def grade(k, g):
        return float(recurrence.multiplicator_values(ode, k)[g])

    p_prev, p, m_prev, m = 0.0, 1.0, 0.0, 1.0
    members = [(p, m)]
    for k in range(1, n + 1):
        f1, f0, fm1 = grade(n - k, 0), grade(n + 1 - k, 1), grade(n + 2 - k, 2)
        p_prev, p = p, -(f0 * p + fm1 * p_prev) / f1
        m_prev, m = m, (abs(f0) * m + abs(fm1) * m_prev) / abs(f1)
        members.append((p, m))
    f0, fm1 = grade(0, 1), grade(1, 2)
    constraint = (fm1 * p_prev + f0 * p, abs(fm1) * m_prev + abs(f0) * m)
    return members, constraint
