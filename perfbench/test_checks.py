"""Tests of the benchmark's own output checks.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qespectra import models, polynomials, recurrence, wavefunctions  # noqa: E402


def solved(model_id, n, params):
    model = models.make(model_id, n, params)
    roots = polynomials.real_roots(polynomials.to_canonical_ttrr(recurrence.build_baseline(model)))
    return model, list(roots.roots)


@pytest.fixture(scope="module")
def coulomb():
    return solved("coulomb", 5, {"lambda": Fraction(1, 2)})


def test_program_roots_pass(coulomb):
    model, roots = coulomb
    checks.check_roots(checks.Constraint(model), roots)


def test_constraint_vanishes_at_assembled_roots(coulomb):
    # Off the roots D is far from zero; at a root it is tiny next to that.
    model, roots = coulomb
    d = checks.Constraint(model)
    scale = abs(d(roots[0] + 0.5))
    assert scale > 0
    assert all(abs(d(r)) < 1e-6 * scale for r in roots)


def test_shifted_root_is_rejected(coulomb):
    model, roots = coulomb
    moved = list(roots)
    moved[2] += 1e-3 * max(1.0, abs(moved[2]))
    with pytest.raises(checks.CheckFailure, match="brackets no root"):
        checks.check_roots(checks.Constraint(model), moved)


def test_duplicated_root_is_rejected(coulomb):
    model, roots = coulomb
    doubled = list(roots)
    doubled[1] = doubled[0]
    with pytest.raises(checks.CheckFailure, match="strictly increasing"):
        checks.check_roots(checks.Constraint(model), doubled)


def test_missing_root_is_rejected(coulomb):
    model, roots = coulomb
    with pytest.raises(checks.CheckFailure, match="expected 6 roots"):
        checks.check_roots(checks.Constraint(model), roots[:-1])


def test_doublet_below_tolerance_is_separated_exactly():
    # At n = 20 the dshg doublets split far below the tolerance; the check
    # finds a sign change between the members by exact Newton on D'.
    model, roots = solved("dshg", 20, {"xi": 2})
    checks.check_roots(checks.Constraint(model), roots)


def test_collapsed_doublet_is_rejected():
    model, roots = solved("dshg", 30, {"xi": 2})
    with pytest.raises(checks.CheckFailure):
        checks.check_roots(checks.Constraint(model), roots)


def test_all_zero_state_is_rejected():
    xs = np.linspace(-5.0, 5.0, 101)
    state = SimpleNamespace(xs=xs, psi=np.zeros_like(xs), norm=float("inf"), node_count=0)
    with pytest.raises(checks.CheckFailure):
        checks.check_state(state)
    state.norm = 1.0
    with pytest.raises(checks.CheckFailure, match="identically zero"):
        checks.check_state(state)


def test_sampled_state_passes(coulomb):
    model, roots = coulomb
    checks.check_state(wavefunctions.sample(model, roots[0]))


def test_node_ladder_must_move_strictly_one_way():
    checks.check_node_ladder([0, 1, 2])
    checks.check_node_ladder([5, 3, 1])
    checks.check_node_ladder([7])
    # the last is the top of razavy n = 40, xi = 13/4, alpha = beta = 1
    for counts in ([0, 0, 2], [1, 3, 2], [67, 69, 73, 81, 85, 87, 127, 81]):
        with pytest.raises(checks.CheckFailure, match="strictly one way"):
            checks.check_node_ladder(counts)


def test_rounds_follow_from_seconds_alone():
    long_chain = workloads.WORKLOADS["long-chain"]
    assert long_chain.rounds(1) == long_chain.min_rounds
    assert long_chain.rounds(45) == long_chain.rounds(45.0)
    assert workloads.WORKLOADS["verify-deep"].rounds(45) == 3


def test_tail_percentile_leaves_ten_samples_beyond():
    import worker

    for count in (40, 81, 96, 288):
        ordered = list(range(count))
        pct = worker.tail_percentile(count)
        _, beyond = worker.nearest_rank(ordered, pct)
        assert beyond >= 10
        _, beyond = worker.nearest_rank(ordered, pct + 1)
        assert beyond < 10


def test_exact_chain_cache_is_cleared_under_the_tracer():
    import qespectra.cli  # noqa: F401  (the tracer wraps every module)
    import tracing

    model, roots = solved("coulomb", 3, {"lambda": Fraction(3, 2)})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wavefunctions.sample(model, roots[0])
        assert recurrence.exact_chain.__wrapped__.cache_info().currsize > 0
        workloads.clear_caches()
        assert recurrence.exact_chain.__wrapped__.cache_info().currsize == 0
    finally:
        tracer.uninstall()
    workloads.clear_caches()
    assert recurrence.exact_chain.cache_info().currsize == 0


def test_verify_gates():
    row = {"verification": {"abs_gap": 2e-4, "residual": 1e-7, "converged": True}}
    checks.check_verify_row(row)
    for key, bad in (("abs_gap", 1e-3), ("residual", 1e-4), ("converged", False)):
        failing = {"verification": dict(row["verification"], **{key: bad})}
        with pytest.raises(checks.CheckFailure):
            checks.check_verify_row(failing)


def _coefficients(d):
    """Ascending exact coefficients of D, by interpolation at 0 .. n+1."""
    size = d.n + 2
    coeffs = [Fraction(0)] * size
    for i in range(size):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(size):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= j * basis[k + 1]
                denom *= i - j
        weight = d(i) / denom
        for k, b in enumerate(basis):
            coeffs[k] += weight * b
    return coeffs


def _remainder(a, b):
    r = list(a)
    while len(r) >= len(b):
        factor = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _distinct_real_roots(coeffs):
    """Sturm's theorem: sign changes of the sequence at -inf minus at +inf."""
    seq = [coeffs, [k * c for k, c in enumerate(coeffs)][1:]]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _remainder(seq[-2], seq[-1])])
    seq = [p for p in seq if p]

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_plus = [1 if p[-1] > 0 else -1 for p in seq]
    at_minus = [s * (-1) ** ((len(p) - 1) % 2) for s, p in zip(at_plus, seq)]
    return changes(at_minus) - changes(at_plus)


def test_exact_count_for_the_chen_mixed_sign_fault():
    # The program raises NonPositiveLambda here, yet the constraint has
    # n + 1 = 11 distinct real roots: as many as its degree, so all simple.
    from qespectra.errors import NonPositiveLambda

    model = models.make("chen-even", 10, dict(workloads.CHEN_DEEP))
    with pytest.raises(NonPositiveLambda):
        polynomials.to_canonical_ttrr(recurrence.build_baseline(model))
    coeffs = _coefficients(checks.Constraint(model))
    assert len(coeffs) == 12 and coeffs[-1] != 0
    assert _distinct_real_roots(coeffs) == 11


def test_sturm_count_on_a_known_polynomial():
    # (x - 1)(x - 2)(x^2 + 1): two real roots
    assert _distinct_real_roots([Fraction(c) for c in (2, -3, 3, -3, 1)]) == 2
