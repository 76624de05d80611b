"""Shared helpers: one place to build (and cache) full spectra per instance.

Root extraction is cheap but the test suite asks for the same handful of
deep-well instances from many angles; caching the pipeline output keeps the
whole run inside the runtime budget.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from qespectra import models, polynomials, solve

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
    ``model.ode_coefficients(x).multiplicators(k)`` in float, independent
    of the baseline table ``build_baseline`` pins.  Returns
    (member values P[n,k](x) for k = 0..n, the constraint value), each as a
    (value, magnitude) pair; the magnitude is the same recurrence run on
    absolute values, the scale of the float rounding in the value.
    """
    ode = model.ode_coefficients(x)
    n = model.n

    def grade(k, g):
        return float(ode.multiplicators(k)[g])

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


def exact_root(chain, root):
    """The constraint root next to the float ``root``, as a rational.

    Exact Newton on the chain's integer image, kept to 330 fractional bits,
    until the step falls below 2**-300 of the root.
    """
    x, grain = Fraction(root), 1 << 330
    for _ in range(50):
        value = polynomials.eval_image(chain.constraint_image, x)
        if value == 0:
            break
        step = value / polynomials.eval_image(chain.slope_image, x)
        x = Fraction(round((x - step) * grain), grain)
        if abs(step) <= abs(x) / 2**300:
            break
    else:
        raise AssertionError(f"exact Newton from {root!r} did not converge")
    return x


def certified_roots(chain, roots):
    """Certify a root set against the exact constraint; the refined roots.

    Each float root is refined by :func:`exact_root`; the refined rationals
    must be strictly increasing.  The constraint, of degree n + 1, must then
    change sign n + 1 times across n + 2 points: the midpoints between
    neighbouring refined roots, and one point a span below the lowest and
    one a span above the highest.  So it has exactly n + 1 real simple
    roots, one in each interval, and the float roots find all of them.
    """
    refined = [exact_root(chain, root) for root in roots.roots]
    assert all(a < b for a, b in zip(refined, refined[1:])), "refined roots not increasing"
    span = (refined[-1] - refined[0]) or 1
    points = [
        refined[0] - span,
        *((a + b) / 2 for a, b in zip(refined, refined[1:])),
        refined[-1] + span,
    ]
    values = [polynomials.eval_image(chain.constraint_image, x) for x in points]
    changes = sum(a * b < 0 for a, b in zip(values, values[1:]))
    assert changes == chain.n + 1, f"{changes} sign changes for {chain.n + 1} roots"
    return refined
