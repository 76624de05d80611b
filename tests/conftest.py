"""Shared helpers: one place to build (and cache) full spectra per instance.

Root extraction is cheap but the test suite asks for the same handful of
deep-well instances from many angles; caching the pipeline output keeps the
whole run inside the runtime budget.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from qespectra import models, polynomials, solve, wavefunctions

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


# The worst abs_gap a passing FD verification may read on a default grid:
# the 3e-4 that sizes each line grid, and a little rounding (6e-4 while the
# step was 0.091 / max(1, E - min V)); the gate is 1e-3 (test_acceptance.py's
# test_09).
GAP_MARGIN = 3.1e-4


@lru_cache(maxsize=None)
def solved(case_key):
    """The ``Spectrum`` of one named deep-well case."""
    model_id, n, params = DEEP_CASES[case_key]
    return solve(models.make(model_id, n, dict(params)))


@pytest.fixture(scope="session")
def deep():
    """Accessor fixture for the cached deep-well cases."""
    return solved


@pytest.fixture
def horner_rows(monkeypatch):
    """The sizes of the blocks that sampling hands the 80-bit Horner, in
    call order; ``sum`` is the rows it evaluated."""
    rows = []
    horner = wavefunctions._horner_block

    def counted(coeffs, z, out):
        rows.append(len(z))
        horner(coeffs, z, out)

    monkeypatch.setattr(wavefunctions, "_horner_block", counted)
    return rows


def degree(p):
    """Degree of ``p``; -1 for the zero polynomial."""
    return len(polynomials.trim(p)) - 1


def poly_eval(p, x):
    """Horner evaluation; returns 0 for the zero polynomial."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p, q):
    """Full convolution product."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def poly_deriv(p):
    """Formal derivative."""
    return [k * c for k, c in enumerate(p)][1:]


def as_fractions(image):
    """The exact coefficients of an integer image ``(nums, den)``, ascending.

    The one way tests read a chain's images as Fractions:
    ``as_fractions(chain.last_member_image)`` is P[n,n] and
    ``as_fractions(chain.constraint_image)`` the constraint.  The other
    members come from :func:`reference_chain`.
    """
    nums, den = image
    return [Fraction(c, den) for c in nums]


def integer_image(p):
    """Integer numerators over one common denominator: ``(nums, den)``.

    ``p[k] == Fraction(nums[k], den)`` with the least such ``den``;
    coefficients are converted exactly (floats included).
    """
    exact = [Fraction(c) for c in p]
    den = math.lcm(*(c.denominator for c in exact))
    return tuple(c.numerator * (den // c.denominator) for c in exact), den


def rational_horner(image, p, q):
    """Value and slope at any rational ``x = p/q`` (q > 0) of an integer image.

    Homogeneous Horner with the powers of q as products: returns
    ``(a, b, den * q^d)``, the value a / (den q^d) and the slope
    b q / (den q^d).  The reference for ``polynomials.image_horner``, which
    takes dyadic points only.
    """
    nums, den = image
    coeffs = reversed(nums)
    a, b, qk = next(coeffs, 0), 0, 1
    for c in coeffs:
        qk *= q
        a, b = a * p + c * qk, b * p + a
    return a, b, den * qk


def eval_image(image, x):
    """Exact value at the rational ``x`` of an integer image."""
    x = Fraction(x)
    value, _, den = rational_horner(image, x.numerator, x.denominator)
    return Fraction(value, den)


def dyadic(x):
    """``(p, k)`` with ``x == p / 2**k``, for a dyadic rational ``x``."""
    p, q = Fraction(x).as_integer_ratio()
    k = q.bit_length() - 1
    assert q == 1 << k, f"{x} is not dyadic"
    return p, k


def reference_chain(system):
    """The exact chain of a baseline system in Fraction arithmetic.

    The recurrence of ``recurrence.exact_chain`` run on the rational
    multiplicators themselves, member by member.  Returns
    ``(members, constraint, steps)``: ascending Fraction coefficients of
    P[n,0..n] and of the constraint, and the integer step
    ``(alpha, beta, gamma, delta)`` of each slice.
    """
    n = system.n
    sigma = system.sigma0
    ode = system.centres[0][1]
    F1, F0, Fm1 = zip(*map(ode.multiplicators, range(n + 2)))
    prev, cur = [], [Fraction(1)]
    members = [tuple(cur)]
    steps = []
    for k in range(1, n + 1):
        f1 = F1[n - k]
        alpha, beta, gamma = -F0[n + 1 - k] / f1, -sigma / f1, -Fm1[n + 2 - k] / f1
        new = polynomials.poly_add(
            polynomials.poly_scale(prev, gamma), polynomials.poly_mul_linear(cur, alpha, beta)
        )
        prev, cur = cur, new
        members.append(tuple(cur))
        delta = math.lcm(alpha.denominator, beta.denominator, gamma.denominator)
        steps.append(tuple(int(c * delta) for c in (alpha, beta, gamma)) + (delta,))
    constraint = polynomials.poly_add(
        polynomials.poly_scale(prev, Fm1[1]),
        polynomials.poly_mul_linear(cur, F0[0], sigma),
    )
    return tuple(members), tuple(constraint), tuple(steps)


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
    until the step falls below 2**-300 of the root, or the kept iterate
    stops moving: within 2**-30 of 0, 2**-300 of the root lies below the
    grain 2**-330.
    """
    x, grain = Fraction(root), 1 << 330
    for _ in range(50):
        value, slope, _ = rational_horner(
            chain.constraint_image, x.numerator, x.denominator
        )
        if value == 0:
            break
        step = Fraction(value, slope * x.denominator)
        x, last = Fraction(round((x - step) * grain), grain), x
        if x == last or abs(step) <= abs(x) / 2**300:
            break
    else:
        raise AssertionError(f"exact Newton from {root!r} did not converge")
    return x


def certified_roots(chain, roots):
    """Certify ascending float roots against the exact constraint; the refined roots.

    Each float root is refined by :func:`exact_root`; the refined rationals
    must be strictly increasing.  The constraint, of degree n + 1, must then
    change sign n + 1 times across n + 2 points: the midpoints between
    neighbouring refined roots, and one point a span below the lowest and
    one a span above the highest.  So it has exactly n + 1 real simple
    roots, one in each interval, and the float roots find all of them.
    """
    refined = [exact_root(chain, root) for root in roots]
    assert all(a < b for a, b in zip(refined, refined[1:])), "refined roots not increasing"
    span = (refined[-1] - refined[0]) or 1
    points = [
        refined[0] - span,
        *((a + b) / 2 for a, b in zip(refined, refined[1:])),
        refined[-1] + span,
    ]
    values = [eval_image(chain.constraint_image, x) for x in points]
    changes = sum(a * b < 0 for a, b in zip(values, values[1:]))
    assert changes == chain.n + 1, f"{changes} sign changes for {chain.n + 1} roots"
    return refined


def _max_abs(coeffs):
    return max((abs(float(c)) for c in coeffs), default=0.0)


def relative_ode_residual(ode, solution):
    """Max residual coefficient over the size of the largest contribution.

    The scale is floored at (largest ODE coefficient) * (largest solution
    coefficient): for a constant solution every derivative term vanishes and
    the one surviving product is the defect itself, which would otherwise
    make a perfectly solved equation read as relative residual 1.
    """
    a = [0, ode.a1, ode.a2, ode.a3]
    b = [ode.b0, ode.b1, ode.b2]
    c = [ode.c0, ode.c1]
    d1 = poly_deriv(solution)
    d2 = poly_deriv(d1)
    terms = [
        poly_mul(a, d2),
        poly_mul(b, d1),
        poly_mul(c, list(solution)),
    ]
    scale = max(_max_abs(t) for t in terms)
    scale = max(scale, _max_abs(a + b + c) * _max_abs(list(solution)))
    res = polynomials.poly_add(polynomials.poly_add(terms[0], terms[1]), terms[2])
    if scale == 0.0:
        return 0.0
    return _max_abs(res) / scale
