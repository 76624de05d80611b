"""The benchmark's workloads: their inputs, their operations and their checks.

Every workload is a list of operations built afresh for each round from the
seed and the round number.  An operation is one call into the program,
timed on its own; its output is checked after the timer stops.  An
operation either passes with some number of checked states or fails.  Each
round holds the same seed-independent fault operations, so the share of
failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F

import checks


@dataclass
class Op:
    """One operation: a callable into the program and its output check.

    ``run()`` is the timed call.  ``check(output)`` returns the number of
    states that passed every check or raises ``checks.CheckFailure`` (or any
    exception the program raised, re-raised from ``run``).  ``fault`` names
    the known program fault this operation hits, or is None.
    """

    label: str
    run: object
    check: object
    fault: str | None = None
    # verify-deep: the deep instance and the root index this call verifies
    group: str | None = None
    index: int | None = None


# ---------------------------------------------------------------------------
# the pipeline operation of long-chain
# ---------------------------------------------------------------------------

def solve_and_sample(model_id, n, params):
    """The public pipeline for one instance, as the README's API section runs it.

    Every module function is looked up on its module at call time, so the
    traced run sees each call.
    """
    from qespectra import models, polynomials, recurrence, wavefunctions

    model = models.make(model_id, n, params)
    system = recurrence.build_baseline(model)
    chain = recurrence.run_ttrr(system)
    ttrr = polynomials.to_canonical_ttrr(system)
    roots = polynomials.real_roots(ttrr)
    states = [
        wavefunctions.sample(model, root, chain=chain)
        for root in roots.roots
        if model.normalizable(root)
    ]
    return model, roots, states


def check_solved(output):
    """Roots certified against the independent constraint; states sound."""
    model, roots, states = output
    checks.check_roots(checks.Constraint(model), roots.roots)
    for state in states:
        checks.check_state(state)
    checks.check_node_ladder(state.node_count for state in states)
    return len(roots.roots)


def pipeline_op(model_id, n, params, fault=None):
    shown = ",".join(f"{k}={v}" for k, v in params.items())
    return Op(
        label=f"{model_id} n={n} {shown}",
        run=lambda: solve_and_sample(model_id, n, params),
        check=check_solved,
        fault=fault,
    )


# ---------------------------------------------------------------------------
# seeded parameter draws, each inside the model's documented range
# ---------------------------------------------------------------------------

QUARTERS = tuple(F(k, 4) for k in range(1, 17))


def param_space(model_id):
    """The values each parameter of a draw picks from.

    Every draw is exact, inside the model's documented range, and away from
    the points where a typed error is the right answer (coulomb at
    lambda = 0 has a double root at beta = 0).  coulomb starts at
    lambda = 1/2: at lambda = 1/4 its top states sample as rounding noise
    at n = 39 (README, "Workloads and inputs").
    """
    if model_id == "coulomb":
        return {"lambda": list(QUARTERS[1:12]), "omega": [1, 2, 4]}
    if model_id in ("razavy", "razavy-sinh2"):
        return {"xi": list(QUARTERS), "alpha": [0, 1], "beta": [0, 1]}
    if model_id in ("perturbed-dshg", "perturbed-dshg-sinh2"):
        return {
            "xi": list(QUARTERS[1:12]),
            "alpha": [0, F(1, 2), 1, F(3, 2), 2],
            "beta": [0, F(1, 4), F(3, 4), 1],
        }
    raise KeyError(model_id)


def draw_params(rng, model_id, n):
    """One seeded draw from ``param_space(model_id)``.

    Draws whose constraint vanishes at scan value 0 are drawn again: on some
    of them `wavefunctions.sample` rejects that root as NotARoot, and which
    ones depends on rounding, so they cannot be kept as a fault that fails
    in every run.  A fixed instance of that fault is counted instead
    (``FIXED_OPS``).
    """
    from qespectra import models

    choices = param_space(model_id)
    for _ in range(100):
        params = {name: values[rng.randrange(len(values))] for name, values in choices.items()}
        if checks.Constraint(models.make(model_id, n, params))(0) != 0:
            return params
    raise RuntimeError(f"no draw for {model_id} at n={n} avoids a root at 0")


def _rng(seed, *tags):
    return random.Random(":".join(str(t) for t in (seed,) + tags))


# ---------------------------------------------------------------------------
# verify-deep
# ---------------------------------------------------------------------------

# The nine deep-well instances of the acceptance suite (DEEP_CASES in
# tests/conftest.py).
DEEP_CASES = {
    "xie-even": ("xie-even", 10, {"V1": 1, "V2": -50}),
    "xie-odd": ("xie-odd", 10, {"V1": 1, "V2": -50}),
    "chen-even": ("chen-even", 7, {"V1": F(9, 100), "V3": 400, "g": F(1, 4)}),
    "chen-odd": ("chen-odd", 7, {"V1": F(9, 100), "V3": 400, "g": F(1, 4)}),
    "coulomb": ("coulomb", 10, {"lambda": F(1, 2)}),
    "razavy": ("razavy", 10, {"xi": F(1, 2), "alpha": 0, "beta": 1}),
    "dshg": ("dshg", 11, {"xi": 2}),
    "pdshg-20": ("perturbed-dshg", 11, {"xi": 2, "alpha": 2, "beta": 0}),
    "pdshg-21": ("perturbed-dshg", 11, {"xi": 2, "alpha": 2, "beta": 1}),
}

# Cheap instances, none of them a deep case, for warming up the verify path.
VERIFY_WARMUP = (
    ("coulomb", 3, {"lambda": F(3, 2)}, 1),
    ("razavy", 3, {"xi": 1, "alpha": 1, "beta": 0}, 0),
)


def run_cli(argv):
    """``qespectra`` run in-process: (exit code, standard output, standard error)."""
    from qespectra import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def verify_argv(model_id, n, params, k):
    argv = ["verify", "--model", model_id, "--n", str(n), "--root-index", str(k)]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    return argv


def check_verify(output):
    """One `verify --root-index k` call: exit code 0, one row, the FD gates."""
    code, text, err = output
    if code != 0:
        raise checks.CheckFailure(f"exit code {code}: {err.strip()[:200]}")
    rows = json.loads(text)["roots"]
    if len(rows) != 1:
        raise checks.CheckFailure(f"expected one root row, got {len(rows)}")
    checks.check_verify_row(rows[0])
    return 1


def verify_deep_round(seed, r):
    ops = []
    for key, (model_id, n, params) in DEEP_CASES.items():
        for k in range(n + 1):
            ops.append(Op(
                label=f"verify {key} k={k}",
                run=(lambda a=verify_argv(model_id, n, params, k): run_cli(a)),
                check=check_verify,
                group=key,
                index=k,
            ))
    _rng(seed, "verify-deep", r).shuffle(ops)
    return ops


def verify_deep_group_check(key, results):
    """All states of one deep instance, gathered over the round.

    The roots reported one call at a time must together match every root of
    the independent constraint in order, and the normalizable states must
    have node counts that move strictly one way.
    """
    from qespectra import models

    model_id, n, params = DEEP_CASES[key]
    model = models.make(model_id, n, params)
    rows = {op.index: json.loads(output[1])["roots"][0] for op, output in results}
    ordered = [rows[k] for k in sorted(rows)]
    checks.check_roots(checks.Constraint(model), [row["scan_value"] for row in ordered])
    checks.check_node_ladder(row["node_count"] for row in ordered if row["normalizable"])


def verify_deep_warmup():
    for model_id, n, params, k in VERIFY_WARMUP:
        run_cli(verify_argv(model_id, n, params, k))


# ---------------------------------------------------------------------------
# long-chain
# ---------------------------------------------------------------------------

# (model, n, draws per round): 19 seeded operations.  coulomb runs one step
# shorter, because at even n it has a root at beta = 0.  Near n = 40,
# `sample` returns rounding noise for the top states of many draws of the
# cosh^2 chains, of perturbed-dshg-sinh2 and of coulomb at lambda = 1/4;
# razavy-sinh2 samples cleanly on every draw, so it carries the seeded
# n = 40 work, and one fixed fault operation below counts the noise.
LONG_PLAN = (
    ("coulomb", 19, 3), ("coulomb", 29, 1),
    ("razavy", 20, 3), ("razavy", 30, 1),
    ("razavy-sinh2", 20, 2), ("razavy-sinh2", 40, 2),
    ("perturbed-dshg", 20, 3), ("perturbed-dshg", 30, 1),
    ("perturbed-dshg-sinh2", 20, 2), ("perturbed-dshg-sinh2", 30, 1),
)

# The deep rational-cosh parameters of the acceptance suite.
CHEN_DEEP = {"V1": F(9, 100), "V3": 400, "g": F(1, 4)}

# Fixed operations, the same in every round of long-chain: (model, n,
# parameters, the known program fault it fails on).  All but dshg at n = 20
# fail in every run, so the share of failed operations is the same in every
# run (README, "The counted faults").
FIXED_OPS = (
    # dshg at n = 20 passes; at n = 30 and 40 the doublets collapse into
    # duplicated roots (30 distinct of 31, 38 of 41).
    ("dshg", 20, {"xi": 2}, None),
    ("dshg", 30, {"xi": 2}, "dshg doublet collapse"),
    ("dshg", 40, {"xi": 2}, "dshg doublet collapse"),
    # NonPositiveLambda, although the constraint has 11 real simple roots
    # (test_checks.py counts them exactly).
    ("chen-even", 10, CHEN_DEEP, "chen mixed-sign products"),
    ("chen-odd", 10, CHEN_DEEP, "chen mixed-sign products"),
    # The comrade route's roots drift by 8e-6 relative; root 8 brackets
    # no root of the constraint.
    ("chen-even", 40, CHEN_DEEP, "comrade root drift"),
    # The top states sample as rounding noise: node counts 73, 81, 85, 87,
    # 127, 81 for roots 35-40.
    ("razavy", 40, {"xi": F(13, 4), "alpha": 1, "beta": 1}, "top-state sampling noise"),
    # A root at scan value 0 comes out as -6.2e-33 and `sample` rejects it
    # as NotARoot.
    ("coulomb", 4, {"lambda": 1}, "root at 0 rejected"),
)


def long_chain_round(seed, r):
    ops = []
    for model_id, n, count in LONG_PLAN:
        for j in range(count):
            rng = _rng(seed, "long-chain", r, model_id, n, j)
            ops.append(pipeline_op(model_id, n, draw_params(rng, model_id, n)))
    for model_id, n, params, fault in FIXED_OPS:
        ops.append(pipeline_op(model_id, n, dict(params), fault=fault))
    _rng(seed, "long-chain", r).shuffle(ops)
    return ops


def long_chain_warmup():
    # n = 15 is outside the timed set.
    for model_id in ("coulomb", "perturbed-dshg"):
        params = draw_params(_rng("warmup", model_id), model_id, 15)
        solve_and_sample(model_id, 15, params)


def clear_caches():
    """Empty the program's exact-chain cache, so no round is served by another.

    Under the tracer the module attribute is a wrapper; the cache sits on
    the function it wraps.
    """
    from qespectra import recurrence

    fn = recurrence.exact_chain
    while not hasattr(fn, "cache_clear"):
        fn = fn.__wrapped__
    fn.cache_clear()


@dataclass(frozen=True)
class Workload:
    make_round: object
    warmup: object
    # Seconds one round takes on the reference machine (README, "Reference
    # figures").  A run measures round(--seconds / round_s) whole rounds,
    # and at least `min_rounds`, so that it holds 40 or more operations.
    # The count depends on --seconds alone, so every run of one length
    # attempts the same operations.
    round_s: float
    min_rounds: int
    group_check: object = None

    def rounds(self, seconds):
        return max(self.min_rounds, round(seconds / self.round_s))


WORKLOADS = {
    "verify-deep": Workload(verify_deep_round, verify_deep_warmup, 16.8, 1, verify_deep_group_check),
    "long-chain": Workload(long_chain_round, long_chain_warmup, 11.0, 2),
}
