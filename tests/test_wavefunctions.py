"""Unit tests for wavefunction sampling, node counting and parity."""

import hashlib
import math
import struct
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conftest import CATALOG_PARAMS, DEEP_CASES, eval_image, solved
from qespectra import models, oracle, polynomials, recurrence, solve, wavefunctions
from qespectra.errors import DegenerateGrid, QesError


# ---------------------------------------------------------------------------
# node counting and parity on synthetic data
# ---------------------------------------------------------------------------

def test_node_count_ignores_grazing_zeros():
    xs = np.linspace(-1, 1, 2001)
    psi = xs ** 2 - 0.25            # two genuine crossings
    assert wavefunctions.node_count(xs, psi) == 2
    grazing = (xs ** 2) * (xs - 0.5)  # touches zero at 0, crosses at 0.5
    assert wavefunctions.node_count(xs, grazing) == 1
    assert wavefunctions.node_count(xs, np.zeros_like(xs)) == 0


def test_parity_classify_even_odd_neither():
    xs = np.linspace(-2, 2, 401)
    assert wavefunctions._is_symmetric(xs)
    assert wavefunctions._parity(np.cosh(xs)) == "even"
    assert wavefunctions._parity(np.sinh(xs)) == "odd"
    assert wavefunctions._parity(np.exp(xs)) is None


def test_parity_requires_symmetric_grid():
    # sample classifies parity only where the grid mirrors
    assert not wavefunctions._is_symmetric(np.linspace(-1, 2, 100))
    model = models.make("razavy", 2, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1})
    root = solve(model).roots[0]
    assert wavefunctions.sample(model, root, xs=np.linspace(-4, 5, 401)).parity is None
    assert wavefunctions.sample(model, root, xs=np.linspace(-4, 4, 401)).parity == "odd"


def test_a_grid_whose_ends_do_not_mirror_is_refused_without_a_copy():
    # such as the verifier's half-line nodes of a parity sector, which
    # sample checks for a mirror (a sector model is not ``half_line``)
    xs = np.linspace(1e-3, 10.0, 1_000_000)
    tracemalloc.start()
    try:
        assert not wavefunctions._is_symmetric(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_default_grid_full_line_symmetric():
    model = models.make("razavy", 2, {"xi": 1, "alpha": 0, "beta": 0})
    xs = wavefunctions.default_grid(model, 2, points=257)
    assert len(xs) == 257
    assert np.array_equal(xs + xs[::-1], np.zeros_like(xs))


@pytest.mark.parametrize("points", (16, 17, 2000, 2001, 20001))
@pytest.mark.parametrize("halfwidth", (1e-3, 1.0, 60.0, 400.0))
def test_default_grid_full_line_is_an_exact_mirror(points, halfwidth):
    # the right half is linspace's, the left its negation, the middle 0.0
    model = models.make("razavy", 2, {"xi": 1, "alpha": 0, "beta": 0})
    xs = wavefunctions.default_grid(model, 2, points=points, halfwidth=halfwidth)
    linspace = np.linspace(-halfwidth, halfwidth, points)
    assert len(xs) == points
    assert np.all(np.diff(xs) > 0)
    assert np.array_equal(xs, -xs[::-1])
    assert (xs[0], xs[-1]) == (-halfwidth, halfwidth)
    assert np.array_equal(xs[(points + 1) // 2:], linspace[(points + 1) // 2:])
    if points % 2:
        assert xs[points // 2] == 0.0


def test_default_grid_half_line_open_offset():
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    xs = wavefunctions.default_grid(model, 2, points=200)
    assert len(xs) == 200
    assert xs[0] > 0.0
    h = xs[1] - xs[0]
    assert xs[0] == pytest.approx(0.5 * h)


def test_default_grid_validation():
    model = models.make("dshg", 1, {"xi": 1})
    with pytest.raises(DegenerateGrid):
        wavefunctions.default_grid(model, 1, points=4)
    for halfwidth in (-1.0, math.nan, math.inf):
        with pytest.raises(DegenerateGrid):
            wavefunctions.default_grid(model, 1, points=100, halfwidth=halfwidth)


def test_decay_halfwidth_is_finite_and_covers_the_state():
    model = models.make("dshg", 11, {"xi": 2})
    L = wavefunctions.decay_halfwidth(model, 11)
    assert 0.5 < L < 60.0
    # the prefactor alone at L is already tiny for this double well
    assert abs(float(model.prefactor(np.array([L]))[0])) < 1e-6


def test_decay_halfwidth_overflow_safety():
    # a huge degree forces the envelope through inf; the scan must not crash
    model = models.make("coulomb", 2, {"lambda": Fraction(1, 2)})
    L = wavefunctions.decay_halfwidth(model, 400)
    assert 0.0 < L <= 60.0


def _fraction_split(nums, den):
    """Each coefficient nums[j] / den split into floats hi + lo by Fractions."""
    coeffs = [Fraction(num, den) for num in nums]
    his = [float(c) for c in coeffs]
    los = [float(c - Fraction(hi)) for c, hi in zip(coeffs, his)]
    return his, los


def _fraction_split_horner(nums, den, z):
    """Extended Horner with each coefficient split into hi + lo by Fractions."""
    his, los = _fraction_split(nums, den)
    zl = z.astype(np.longdouble)
    acc = np.zeros(zl.shape, dtype=np.longdouble)
    for hi, lo in zip(reversed(his), reversed(los)):
        acc = acc * zl + (np.longdouble(hi) + np.longdouble(lo))
    with np.errstate(over="ignore"):
        return acc.astype(float)


# Integer images (nums, den) whose splits take every branch: an odd den (hi
# finer than den's power of two), a den with a 4000-bit power of two, zero
# and negative numerators, a subnormal hi, and a lo that is subnormal while
# hi = 2^-1000 is not.
EDGE_IMAGES = [
    ((0, -7, 10, -(1 << 60) - 1, 1 << 80), 3),
    ((3**2600, -(3**2600) - 1, 0, 5 << 3990, -(7**1500)), 5 << 4000),
    (((3 << 40) + 1, -(3 << 40) - 1, 1, 0, -1), 3 << 1040),
]


# the reference's own Horner, never the one a test counts
_horner_block = wavefunctions._horner_block


def _extended_horner(image, z):
    """S(z) by the 80-bit Horner over the whole of ``z`` at once."""
    values = np.empty(len(z))
    _horner_block(wavefunctions._coefficients(image), z, values)
    return values


def test_extended_horner_splits_as_fractions_do():
    model = models.make("razavy-sinh2", 40, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1})
    spectrum = solve(model)
    z = np.linspace(-3.0, 3.0, 97)
    images = [recurrence.assemble_solution(spectrum.chain, root) for root in spectrum.roots[::4]]
    for nums, den in images + EDGE_IMAGES:
        np.testing.assert_array_equal(
            _extended_horner((nums, den), z),
            _fraction_split_horner(nums, den, z),
        )
        # bit for bit, lo too, where the Horner sum cannot see its last bits
        his, los = wavefunctions._split((nums, den))
        want_his, want_los = _fraction_split(nums, den)
        assert [h.hex() for h in his] == [h.hex() for h in want_his]
        assert [lo.hex() for lo in los] == [lo.hex() for lo in want_los]
    _, los = wavefunctions._split(EDGE_IMAGES[2])
    assert 0.0 < abs(los[0]) < sys.float_info.min  # a subnormal lo
    with pytest.raises(OverflowError):
        _extended_horner(((10**400,), 3), z)


# ---------------------------------------------------------------------------
# sampling whole wavefunctions
# ---------------------------------------------------------------------------

def test_sample_coulomb_n1_node_at_plus_one():
    # S(z) = z - 1 at the beta = +1 root: exactly one node, at x = 1
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    xs = wavefunctions.default_grid(model, 1, points=4001)
    grid = wavefunctions.sample(model, 1.0, xs=xs)
    assert grid.node_count == 1
    sign_flips = np.nonzero(np.diff(np.sign(grid.psi)))[0]
    crossing = grid.xs[sign_flips[0]]
    assert crossing == pytest.approx(1.0, abs=2 * (grid.xs[1] - grid.xs[0]))
    # half-line model: no parity classification
    assert grid.parity is None


def test_sample_is_normalized_and_sign_fixed():
    # the deep razavy case is the beta = 1 (odd) sector: its lowest state
    # has exactly one node, at the origin
    spectrum = solved("razavy")
    grid = wavefunctions.sample(spectrum.model, spectrum.roots[0], chain=spectrum.chain)
    norm = np.trapezoid(grid.psi ** 2, grid.xs)
    assert norm == pytest.approx(1.0, rel=1e-8)
    assert grid.node_count == 1
    assert grid.parity == "odd"
    # sign convention: the first interior extremum (the x < 0 lobe) is
    # positive; an odd function's global argmax could land on either lobe
    half = len(grid.xs) // 2
    first_lobe = int(np.argmax(np.abs(grid.psi[:half])))
    assert grid.psi[first_lobe] > 0


def test_sample_node_counts_are_the_full_ladder():
    spectrum = solved("dshg")
    counts = [
        wavefunctions.sample(spectrum.model, r, chain=spectrum.chain).node_count
        for r in spectrum.roots
    ]
    assert counts == list(range(12))


def test_sample_parity_alternates_for_symmetric_double_well():
    spectrum = solved("dshg")
    parities = [
        wavefunctions.sample(spectrum.model, r, chain=spectrum.chain).parity
        for r in spectrum.roots
    ]
    assert parities[0] == "even"
    assert all(
        p == ("even" if i % 2 == 0 else "odd") for i, p in enumerate(parities)
    )


# Constraints with a root at scan value 0, which the float eigensolve returns
# as a tiny nonzero (coulomb: -6.2e-33).
ROOT_AT_ZERO = [
    ("coulomb", 4, {"lambda": 1}),
    ("razavy", 2, {"xi": 3, "alpha": 1, "beta": 0}),
    ("razavy-sinh2", 1, {"xi": 4, "alpha": 1, "beta": 1}),
    ("razavy-sinh2", 2, {"xi": 3, "alpha": 1, "beta": 0}),
]


@pytest.mark.parametrize("model_id,n,params", ROOT_AT_ZERO)
def test_sample_accepts_a_root_at_scan_value_zero(model_id, n, params):
    model = models.make(model_id, n, params)
    spectrum = solve(model)
    assert min(abs(r) for r in spectrum.roots) < 1e-15
    counts = [
        wavefunctions.sample(model, r, chain=spectrum.chain).node_count
        for r in spectrum.roots
    ]
    assert all(b > a for a, b in zip(counts, counts[1:])), counts


def test_sample_norm_survives_an_overflowing_square():
    # max|psi| is ~1e162 before normalization, so psi * psi overflows.  The
    # root is the sixth eigenvalue seed of this chain, which the float
    # polish could not refine (its float recurrence overflowed at the nine
    # lowest roots); sample polishes the seed on the exact constraint.
    model = models.make(
        "razavy-sinh2", 80, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1}
    )
    grid = wavefunctions.sample(model, -22801.06722039855)
    assert math.isfinite(grid.norm)
    assert np.trapezoid(grid.psi ** 2, grid.xs) == pytest.approx(1.0, rel=1e-8)
    assert grid.node_count == 11
    assert grid.parity == "odd"


def test_sample_explicit_grid_validation():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    with pytest.raises(DegenerateGrid):
        wavefunctions.sample(model, 1.0, xs=np.array([0.1, 0.2, 0.3]))
    decreasing = np.linspace(2.0, 0.1, 50)
    with pytest.raises(DegenerateGrid):
        wavefunctions.sample(model, 1.0, xs=decreasing)
    # NaN compares false with everything, so it passes an ordering test
    razavy = models.make("razavy", 3, {"xi": 1, "alpha": 0, "beta": 0})
    root = solve(razavy).roots[0]
    for bad in (np.nan, np.inf, -np.inf):
        xs = np.append(np.linspace(-5.0, 5.0, 20), bad)
        with pytest.raises(DegenerateGrid, match="finite"):
            wavefunctions.sample(razavy, root, xs=xs)
        with pytest.raises(DegenerateGrid, match="finite"):
            wavefunctions.sample(model, 1.0, xs=np.append(bad, np.linspace(0.1, 5.0, 20)))


def test_sample_rejects_non_roots():
    from qespectra.errors import NotARoot

    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    with pytest.raises(NotARoot):
        wavefunctions.sample(model, 0.37)


# every catalog id: the nine deep cases and the two sinh^2 chains
WIDE_GRID_CASES = {key: (model_id, params) for key, (model_id, _, params) in DEEP_CASES.items()}
WIDE_GRID_CASES["razavy-sinh2"] = ("razavy-sinh2", DEEP_CASES["razavy"][2])
WIDE_GRID_CASES["pdshg-20-sinh2"] = ("perturbed-dshg-sinh2", DEEP_CASES["pdshg-20"][2])


@pytest.mark.parametrize("case", sorted(WIDE_GRID_CASES))
def test_wide_grid_keeps_node_counts_and_parities(case):
    # at |x| = 400 the coordinates overflow (exp 2x, cosh^2 x, sinh^2 x) and so
    # does cosh(x)^alpha in the perturbed prefactor, where the decaying factor
    # has long underflowed: the dead tail must sample as zero, silently
    model_id, params = WIDE_GRID_CASES[case]
    model = models.make(model_id, 3, dict(params))
    spectrum = solve(model)
    wide = wavefunctions.default_grid(model, 3, points=20001, halfwidth=400)
    for root in spectrum.roots:
        default = wavefunctions.sample(model, root, chain=spectrum.chain)
        far = wavefunctions.sample(model, root, xs=wide, chain=spectrum.chain)
        assert (far.node_count, far.parity) == (default.node_count, default.parity), root


# ---------------------------------------------------------------------------
# the default grid: one read-only grid per model object
# ---------------------------------------------------------------------------

def _state_bytes(state):
    return (state.xs.tobytes(), state.psi.tobytes(), state.norm.hex(),
            state.node_count, state.parity)


def test_default_grid_is_shared_per_model_object(monkeypatch):
    calls = []
    halfwidth = wavefunctions.decay_halfwidth

    def counted(model, degree):
        calls.append(model)
        return halfwidth(model, degree)

    monkeypatch.setattr(wavefunctions, "decay_halfwidth", counted)
    params_a = {"xi": 2, "alpha": 2, "beta": 0}
    a = models.make("perturbed-dshg", 6, params_a)
    b = models.make("coulomb", 5, {"lambda": Fraction(3, 2)})
    a_copy = models.make("perturbed-dshg", 6, params_a)
    assert a_copy == a and a_copy is not a
    for turn, model in enumerate((a, b, a, a_copy)):
        spectrum = solve(model)
        for root in spectrum.roots:
            state = wavefunctions.sample(model, root, chain=spectrum.chain)
            fresh_xs = wavefunctions.default_grid(model, model.n)
            fresh = wavefunctions.sample(model, root, xs=fresh_xs, chain=spectrum.chain)
            assert _state_bytes(state) == _state_bytes(fresh), (turn, root)
            # an explicit grid stays the caller's, though coulomb's chart is x itself
            assert fresh_xs.flags.writeable
            with pytest.raises(ValueError):
                state.xs[0] = 0.0
        # the default grid was built once per turn for the shared grid,
        # once per root for the fresh ones
        assert calls.count(model) == 1 + len(spectrum.roots), turn
        calls.clear()


# sha256 over (xs, psi, norm, node_count, parity) of every state sampled on
# the default grid, recorded before the grid was shared between roots; the
# full-line entries re-pinned when that grid became an exact mirror (the
# half-line ones did not move).
DEFAULT_GRID_SHA256 = {
    ("razavy-sinh2", 40, (("xi", Fraction(1, 2)), ("alpha", 0), ("beta", 1))):
        "69e451325d41fff87754115695d6305fd2a8bffe2c3751fcfb91347d8c3fd065",
    ("coulomb", 19, (("lambda", Fraction(1, 2)),)):
        "11fc08bd7fc65e8ff8c9d9edc1232e7cd842db256374038c4334ce51f0eb9512",
    # fractional beta: the half line
    ("perturbed-dshg-sinh2", 20, (("xi", 2), ("alpha", 2), ("beta", Fraction(1, 4)))):
        "5198e2e68348ac36295b4b01e02e4c59cbd88ffa16808889932baa803ba06c51",
    DEEP_CASES["chen-even"]:
        "74b698f7184b832410a72ba1291b6fe51322e252ebd490afbfc0de12015885f6",
}


@pytest.mark.parametrize("case", list(DEFAULT_GRID_SHA256), ids=lambda c: f"{c[0]}-{c[1]}")
def test_default_grid_state_bytes_are_pinned(case):
    model_id, n, params = case
    model = models.make(model_id, n, dict(params))
    spectrum = solve(model)
    digest = hashlib.sha256()
    for root in spectrum.roots:
        state = wavefunctions.sample(model, root, chain=spectrum.chain)
        digest.update(state.xs.tobytes())
        digest.update(state.psi.tobytes())
        digest.update(struct.pack("<d", state.norm))
        digest.update(repr((state.node_count, state.parity)).encode())
    assert digest.hexdigest() == DEFAULT_GRID_SHA256[case]


# ---------------------------------------------------------------------------
# sampling in blocks: one evaluation per pair of mirror blocks
# ---------------------------------------------------------------------------

FULL_LINE_IDS = sorted(m for m in CATALOG_PARAMS if not models.make(m, 1, CATALOG_PARAMS[m]).half_line)

def _pointwise(model, chain, root, xs):
    """Q S at each point of ``xs`` on its own: one 80-bit Horner over the
    whole grid, with no blocks and no mirror."""
    image = recurrence.assemble_solution(chain, root)
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.asarray(model.coordinate(xs), dtype=float)
        q = np.asarray(model.prefactor(xs), dtype=float)
        psi = _extended_horner(image, z) * q
    psi[q == 0.0] = 0.0
    return psi


def _sampled_rows(rows, model, chain, root, xs=None):
    """The rows of the 80-bit Horner that sampling one root evaluates, once
    its psi is asserted to be the pointwise evaluation, bit for bit."""
    rows.clear()
    state = wavefunctions.sample(model, root, xs=xs, chain=chain)
    want = _pointwise(model, chain, root, state.xs) / state.norm
    assert state.psi.tobytes() in (want.tobytes(), (-want).tobytes()), root
    return sum(rows)


@pytest.mark.parametrize("model_id", FULL_LINE_IDS)
def test_half_evaluation_is_the_full_evaluation(model_id, horner_rows):
    # every even chart evaluates half the default grid and mirrors it, bit
    # for bit what Horner gives at every point; dshg's exp(2x) is not even.
    # The longest chain whose states sample (xie overflows at n = 20, chen
    # from n = 10)
    n = max(n for n in (3, 10, 20) if not isinstance(NODES_AND_PARITIES[(model_id, n)], str))
    model = models.make(model_id, n, CATALOG_PARAMS[model_id])
    spectrum = solve(model)
    points = len(wavefunctions.default_grid(model, n))
    want = points if model_id == "dshg" else (points + 1) // 2
    for root in spectrum.roots:
        assert _sampled_rows(horner_rows, model, spectrum.chain, root) == want, root


def test_a_grid_that_is_not_an_exact_mirror_takes_the_full_path(horner_rows):
    model = models.make("razavy", 10, CATALOG_PARAMS["razavy"])
    spectrum = solve(model)
    root = spectrum.roots[0]
    linspace = np.linspace(-1.0, 1.0, 2001)
    assert not np.array_equal(linspace, -linspace[::-1])
    assert _sampled_rows(horner_rows, model, spectrum.chain, root, linspace) == 2001
    mirror = wavefunctions.default_grid(model, 10, halfwidth=1.0)
    assert _sampled_rows(horner_rows, model, spectrum.chain, root, mirror) == 1001


def _nudged(xs, row):
    """``xs`` with one point moved a millionth of a step to the right."""
    xs = xs.copy()
    xs[row] += 1e-6 * (xs[row] - xs[row - 1])
    return xs


def _grid_cases():
    """(label, model, chain, root, xs, rows) for every kind of grid sampling
    meets, with the Horner rows it evaluates; ``xs`` None is the default
    grid.

    The default exact-mirror grid, the verifier's nodes at the lowest and
    highest root of each full-line deep well (the half line of each parity
    sector, dshg's states in theirs), a linspace grid, two half-line grids,
    and exact mirrors of several blocks: of 40,000 and 40,001 points (whose
    middle row pairs with itself), and of 40,000 with one end point of the
    first block's mirror rows moved, so that block and its mirror are both
    evaluated and the second pair is shared.
    """
    cases = []
    for key, (model_id, n, params) in DEEP_CASES.items():
        spectrum = solved(key)
        model, chain = spectrum.model, spectrum.chain
        if key == "coulomb":
            cases.append(("coulomb-default", model, chain, spectrum.roots[0], None, 2001))
            continue
        for index in (0, -1):
            root, (model, chain) = spectrum.roots[index], spectrum.states[index]
            xs = oracle.grid_nodes(model, oracle.default_verify_config(model, root))
            cases.append((f"{key}-fd-{index}", model, chain, root, xs, len(xs)))
    spectrum = solved("razavy")
    model, chain, root = spectrum.model, spectrum.chain, spectrum.roots[3]
    cases.append(("razavy-default", model, chain, root, None, 1001))
    cases.append(("razavy-linspace", model, chain, root, np.linspace(-4.0, 4.0, 3001), 3001))
    xs40 = wavefunctions.default_grid(model, model.n, points=40_000, halfwidth=4.0)
    xs41 = wavefunctions.default_grid(model, model.n, points=40_001, halfwidth=4.0)
    cases.append(("razavy-mirror-40000", model, chain, root, xs40, 20_000))
    cases.append(("razavy-mirror-40001", model, chain, root, xs41, 20_001))
    # either end of the first block's mirror rows
    for row in (40_000 - wavefunctions._HORNER_ROWS, 39_999):
        cases.append((f"razavy-mirror-nudged-{row}", model, chain, root, _nudged(xs40, row),
                      20_000 + wavefunctions._HORNER_ROWS))
    half = models.make("perturbed-dshg", 6, {"xi": 2, "alpha": 2, "beta": Fraction(1, 4)})
    spectrum = solve(half)
    cases.append(("pdshg-half-line", half, spectrum.chain, spectrum.roots[2],
                  wavefunctions.default_grid(half, half.n, points=2000), 2000))
    return cases


def test_every_grid_samples_as_the_pointwise_evaluation(horner_rows):
    """Every point gets bit for bit what Horner gives there, and a pair of
    mirror blocks is evaluated once where their coordinates agree, bit for
    bit, and twice where they do not."""
    assert wavefunctions._HORNER_ROWS < 20_000  # so 40,000 points are several blocks
    for label, model, chain, root, xs, rows in _grid_cases():
        assert _sampled_rows(horner_rows, model, chain, root, xs) == rows, label
    # linspace misses a mirror by a few ulps: some pairs of its points have
    # equal coordinates, but no block does, so every row is evaluated
    model = solved("razavy").model
    z = np.asarray(model.coordinate(np.linspace(-4.0, 4.0, 3001)))
    assert 0 < np.count_nonzero(z[:1500] == z[:-1501:-1]) < 1500


# every parity sector of the even charts: the sampled state is exactly even
# or odd, and its parity is the sector's
PARITY_SECTOR_CASES = (
    [DEEP_CASES[key] for key in ("xie-even", "xie-odd", "chen-even", "chen-odd")]
    + [
        (model_id, 20, (("xi", Fraction(1, 2)), ("alpha", a), ("beta", b)))
        for model_id in ("razavy", "razavy-sinh2") for a in (0, 1) for b in (0, 1)
    ]
    + [
        (model_id, 20, (("xi", 2), ("alpha", 2), ("beta", b)))
        for model_id in ("perturbed-dshg", "perturbed-dshg-sinh2") for b in (0, 1)
    ]
)


@pytest.mark.parametrize("case", PARITY_SECTOR_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_even_chart_states_are_exactly_even_or_odd(case):
    model_id, n, params = case
    model = models.make(model_id, n, dict(params))
    spectrum = solve(model)
    sign = {"even": 1.0, "odd": -1.0}[model.parity]
    for root in spectrum.roots:
        state = wavefunctions.sample(model, root, chain=spectrum.chain)
        assert np.array_equal(state.psi, sign * state.psi[::-1]), root
        assert state.parity == model.parity, root


def _ladder(first, step, count):
    return tuple(range(first, first + step * count, step))


# Node counts and parities ("e", "o", "-" for None) of every default-grid
# state at CATALOG_PARAMS, recorded on linspace grids before the grid became
# an exact mirror; a string names the QesError that every state, or solve,
# raises.  The top states of the long even-chart chains sample as noise
# (off their node ladder from index ~35 on), which linspace's 1-ulp asymmetry
# left unclassified.  Each state is sampled as the state of its own model
# (``Spectrum.states``): dshg's n = 40 row was recorded again when its states
# came to be sampled in their parity sectors.
NODES_AND_PARITIES = {
    ("xie-even", 3): (_ladder(0, 2, 4), "eeee"),
    ("xie-even", 10): (_ladder(0, 2, 11), "e" * 11),
    ("xie-even", 20): "DegenerateGrid",
    ("xie-even", 40): "DegenerateGrid",
    ("xie-odd", 3): (_ladder(1, 2, 4), "oooo"),
    ("xie-odd", 10): (_ladder(1, 2, 11), "o" * 11),
    ("xie-odd", 20): "DegenerateGrid",
    ("xie-odd", 40): "DegenerateGrid",
    ("chen-even", 3): ((6, 4, 2, 0), "eeee"),
    ("chen-even", 10): "NonPositiveLambda",
    ("chen-even", 20): "DegenerateGrid",
    ("chen-even", 40): "DegenerateGrid",
    ("chen-odd", 3): ((7, 5, 3, 1), "oooo"),
    ("chen-odd", 10): "NonPositiveLambda",
    ("chen-odd", 20): "DegenerateGrid",
    ("chen-odd", 40): "DegenerateGrid",
    ("coulomb", 3): (_ladder(0, 1, 4), "-" * 4),
    ("coulomb", 10): (_ladder(0, 1, 11), "-" * 11),
    ("coulomb", 20): (_ladder(0, 1, 21), "-" * 21),
    ("coulomb", 40): (_ladder(0, 1, 37) + (45, 100, 131, 88), "-" * 41),
    ("razavy", 3): (_ladder(1, 2, 4), "oooo"),
    ("razavy", 10): (_ladder(1, 2, 11), "o" * 11),
    ("razavy", 20): (_ladder(1, 2, 21), "o" * 21),
    ("razavy", 40): (_ladder(1, 2, 41), "o" * 15 + "-" * 26),
    ("razavy-sinh2", 3): (_ladder(1, 2, 4), "oooo"),
    ("razavy-sinh2", 10): (_ladder(1, 2, 11), "o" * 11),
    ("razavy-sinh2", 20): (_ladder(1, 2, 21), "o" * 21),
    ("razavy-sinh2", 40): (_ladder(1, 2, 41), "o" * 15 + "-" * 26),
    ("dshg", 3): (_ladder(0, 1, 4), "eoeo"),
    ("dshg", 10): (_ladder(0, 1, 11), "eo" * 5 + "e"),
    ("dshg", 20): (_ladder(0, 1, 21), "e-" + "eo" * 9 + "e"),
    # sampled in its parity sectors; on its own chart its lowest doublets
    # collapsed: (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 10, 11, 12, 13, 15, 15) and
    # 16..40, "-" * 16 + "eo" * 12 + "e"
    ("dshg", 40): (_ladder(0, 1, 41), "eo" * 20 + "e"),
    ("perturbed-dshg", 3): (_ladder(0, 2, 4), "eeee"),
    ("perturbed-dshg", 10): (_ladder(0, 2, 11), "e" * 11),
    ("perturbed-dshg", 20): (_ladder(0, 2, 21), "e" * 21),
    ("perturbed-dshg", 40): (_ladder(0, 2, 35) + (74, 78, 80, 112, 138, 122), "e" * 14 + "-" * 27),
    ("perturbed-dshg-sinh2", 3): (_ladder(0, 2, 4), "eeee"),
    ("perturbed-dshg-sinh2", 10): (_ladder(0, 2, 11), "e" * 11),
    ("perturbed-dshg-sinh2", 20): (_ladder(0, 2, 21), "e" * 21),
    ("perturbed-dshg-sinh2", 40): (_ladder(0, 2, 41), "e" * 17 + "-" * 24),
}

# Node counts the exact mirror moves: noise-dominated states, off the ladder
# 2i on linspace too, whose samples change with the ulp at half the points.
# (model, n) -> {root index: node count on the mirrored grid}
MIRROR_MOVED_NODES = {("perturbed-dshg", 40): {35: 70, 36: 76, 37: 78, 40: 120}}


def _mirrored(model):
    """Whether the model's coordinate is even on its default grid, bit for bit."""
    with np.errstate(over="ignore"):
        z = np.asarray(model.coordinate(wavefunctions.default_grid(model, model.n)), dtype=float)
    return np.array_equal(z, z[::-1])


@pytest.mark.parametrize("model_id", sorted(CATALOG_PARAMS))
def test_node_counts_and_parities_are_those_recorded_on_linspace(model_id):
    # the same counts and parities, except that every even-chart state now
    # classifies as its sector: its psi is exactly even or odd
    for n in (3, 10, 20, 40):
        recorded = NODES_AND_PARITIES[(model_id, n)]
        try:
            spectrum = solve(models.make(model_id, n, CATALOG_PARAMS[model_id]))
            rows = []
            for root, (model, chain) in zip(spectrum.roots, spectrum.states):
                try:
                    state = wavefunctions.sample(model, root, chain=chain)
                    rows.append((state.node_count, state.parity))
                except QesError as err:
                    rows.append(type(err).__name__)
        except QesError as err:
            assert recorded == type(err).__name__, n
            continue
        if isinstance(recorded, str):
            assert rows == [recorded] * len(rows), n
            continue
        nodes, parities = recorded
        moved = MIRROR_MOVED_NODES.get((model_id, n), {})
        nodes = [moved.get(i, count) for i, count in enumerate(nodes)]
        parities = [
            model.parity if _mirrored(model) and p == "-" else {"e": "even", "o": "odd", "-": None}[p]
            for p, (model, _) in zip(parities, spectrum.states)
        ]
        assert rows == list(zip(nodes, parities)), n


# ---------------------------------------------------------------------------
# psi as a product over the certified zeros of S, on the oracle's grids
# ---------------------------------------------------------------------------

# the deep wells whose own states the oracle samples as a product; dshg's
# low states have non-real zeros in its e^(2x) chart, and the oracle
# samples each in its parity sector (test_a_dshg_state_is_its_sector_state)
PRODUCT_KEYS = [key for key in DEEP_CASES if key != "dshg"]
_EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def _state(key, index):
    """(image, certified zeros (hi, lo) or None) of one deep state."""
    spectrum = solved(key)
    image = recurrence.assemble_solution(spectrum.chain, spectrum.roots[index])
    return image, wavefunctions._zeros(image, wavefunctions._coefficients(image))


def _product_states():
    return [(key, index) for key in PRODUCT_KEYS for index in range(len(solved(key).roots))]


def test_no_deep_state_but_dshg_falls_back_to_the_horner():
    """All 84 states of the eight other deep wells certify n real, simple
    zeros, ascending, each correctly rounded."""
    states = _product_states()
    assert len(states) == 84
    for key, index in states:
        image, zeros = _state(key, index)
        assert zeros is not None, (key, index)
        his, los = zeros
        assert len(his) == len(los) == len(image[0]) - 1 == solved(key).model.n, (key, index)
        assert np.all(np.diff(his) > 0), (key, index)
        # hi is the zero correctly rounded: lo is at most half an ulp
        near = np.nextafter(his, np.copysign(np.inf, los))
        assert np.all(np.abs(los) <= np.abs(near - his) / 2), (key, index)


def test_every_certified_zero_changes_sign_across_its_float_neighbours():
    """Each zero is faithful: S, evaluated exactly in Fractions, takes
    opposite signs at the floats on either side of it, so the exact zero
    lies within an ulp."""
    for key, index in _product_states():
        image, (his, _) = _state(key, index)
        for zeta in his:
            below = eval_image(image, np.nextafter(zeta, -math.inf))
            above = eval_image(image, np.nextafter(zeta, math.inf))
            assert below * above < 0, (key, index, zeta)


def test_the_zeros_sum_to_minus_the_next_to_leading_coefficient():
    """Vieta: the sum of the n zeros of the monic S is -S[n-1], to within n
    ulps of the largest zero."""
    for key, index in _product_states():
        (nums, den), (his, _) = _state(key, index)
        ulp = np.spacing(np.max(np.abs(his)))
        assert abs(math.fsum(his) + nums[-2] / den) <= len(his) * ulp, (key, index)


def test_the_scan_value_is_affine_in_the_sum_of_the_zeros():
    """The paper's identity between the constraint root and the functional
    Bethe Ansatz: S[n-1] is the chain's first member, (alpha_1 + beta_1 x) /
    delta_1, so the n + 1 points (sum of zeros, root) of one well lie on
    the line x = -(delta_1 sum + alpha_1) / beta_1.  The fitted line
    misses no point by more than 8 eps of the largest root, and its slope is
    the chain's, -delta_1 / beta_1: 4, 4, 3.016, 2.016, 1, 2, 16 and 16."""
    for key in PRODUCT_KEYS:
        spectrum = solved(key)
        alpha, beta, _, delta = spectrum.chain.steps[0]
        sums = np.array([math.fsum(np.concatenate(_state(key, i)[1]))
                         for i in range(len(spectrum.roots))])
        roots = np.array(spectrum.roots)
        slope, intercept = np.polyfit(sums, roots, 1)
        scale = np.max(np.abs(roots))
        assert np.max(np.abs(slope * sums + intercept - roots)) <= 8 * _EPS * scale, key
        assert slope == pytest.approx(-delta / beta, rel=1e-12), key
        assert np.max(np.abs(-(delta * sums + alpha) / beta - roots)) <= 8 * _EPS * scale, key


def test_a_state_with_non_real_zeros_samples_by_the_horner_bit_for_bit():
    """dshg's root 1 has non-real zeros in the e^(2x) chart: its
    certificate fails, and asking for the product samples it by the 80-bit
    Horner, the very bytes."""
    spectrum = solved("dshg")
    model, root = spectrum.model, spectrum.roots[1]
    image = recurrence.assemble_solution(spectrum.chain, root)
    coeffs = wavefunctions._coefficients(image)
    seeds = np.roots(coeffs[::-1].astype(float))
    assert np.max(np.abs(seeds.imag)) > 1e-3 * np.max(np.abs(seeds))
    assert wavefunctions._zeros(image, coeffs) is None
    xs = wavefunctions.default_grid(model, model.n, points=20_001)
    horner = wavefunctions.sample(model, root, xs=xs, chain=spectrum.chain)
    product = wavefunctions.solution(model, root, spectrum.chain, product=True)
    asked = wavefunctions.sample(model, root, xs=xs, chain=spectrum.chain, _solution=product)
    assert asked.psi.tobytes() == horner.psi.tobytes()
    assert (asked.norm, asked.node_count) == (horner.norm, horner.node_count)


@pytest.mark.parametrize("jitter", [1e-12, 1e-6])
def test_the_certified_zeros_do_not_depend_on_their_seeds(jitter, monkeypatch):
    """Each Jacobi seed moved by up to ``jitter`` of itself, which keeps it
    inside its isolating gap, gives the same (hi, lo) bytes on all 84
    states: the certificate, not the seeds, fixes every bit.  From 1e-6
    off, one Newton step leaves 583 of the 816 zeros more than an ulp
    away, so the lattice search and the rounding step must find the same
    floats."""
    rng = np.random.default_rng(1)
    seeds = wavefunctions._jacobi_seeds

    def jittered(coeffs):
        exact = seeds(coeffs)
        return exact * (1.0 + jitter * rng.uniform(-1.0, 1.0, len(exact)))

    monkeypatch.setattr(wavefunctions, "_jacobi_seeds", jittered)
    for key, index in _product_states():
        image, (his, los) = _state(key, index)
        moved = wavefunctions._zeros(image, wavefunctions._coefficients(image))
        assert moved is not None, (key, index)
        assert moved[0].tobytes() == his.tobytes(), (key, index)
        assert moved[1].tobytes() == los.tobytes(), (key, index)


@pytest.mark.parametrize("seed", [0.0, 5e-324], ids=["flat", "overflowing"])
def test_a_seed_without_a_newton_step_samples_by_the_horner(seed, monkeypatch):
    """coulomb's n = 2 root 1 has S = z^2 - 2.  Its seeds certify; a seed
    at 0, where S' = 0, or at the least subnormal, where the Newton step
    -S/S' = 2e323 is past the float range, fails the certificate without
    raising, and the product samples the Horner's bytes."""
    model = models.make("coulomb", 2, CATALOG_PARAMS["coulomb"])
    spectrum = solve(model)
    root = spectrum.roots[1]
    image = recurrence.assemble_solution(spectrum.chain, root)
    assert image == ((-4, 0, 2), 2)
    coeffs = wavefunctions._coefficients(image)
    assert wavefunctions._zeros(image, coeffs) is not None
    monkeypatch.setattr(wavefunctions, "_jacobi_seeds", lambda coeffs: np.array([seed, 1.5]))
    assert wavefunctions._zeros(image, coeffs) is None
    xs = oracle.grid_nodes(model, oracle.default_verify_config(model, root))
    horner = wavefunctions.sample(model, root, xs=xs, chain=spectrum.chain)
    product = wavefunctions.solution(model, root, spectrum.chain, product=True)
    asked = wavefunctions.sample(model, root, xs=xs, chain=spectrum.chain, _solution=product)
    assert asked.psi.tobytes() == horner.psi.tobytes()
    assert (asked.norm, asked.node_count) == (horner.norm, horner.node_count)


def _exact_error(image, z, values):
    """|values - S(z)| at each float of ``z``, exactly, and S(z) rounded."""
    errors, exact = np.empty(len(z)), np.empty(len(z))
    for i, (x, value) in enumerate(zip(z.tolist(), values.tolist())):
        p, q = x.as_integer_ratio()
        a, d = polynomials.image_value(image, p, q.bit_length() - 1)
        vp, vq = value.as_integer_ratio()
        errors[i] = abs(vp * d - a * vq) / (vq * d)
        exact[i] = a / d
    return errors, exact


def test_the_product_is_as_near_exact_as_the_horner_on_the_oracle_nodes():
    """On each of the 84 states, at every k-th of the nodes the oracle samples
    (about 256 of them), the product's error against S evaluated exactly at
    the sampled coordinate, weighted by the prefactor, is at most the
    80-bit Horner's or 8 eps of the peak, whichever is larger.  Both errors
    are then at float64 rounding; ROADMAP's "nearer the exact value" rule
    reads it so, since the Horner itself rounds to float64.  The product
    itself stays within 6 eps of the peak (4.2 eps measured at every
    node); each zero's rest lo buys that: with hi alone it reads 10 eps."""
    worst = []
    for key, index in _product_states():
        spectrum = solved(key)
        model, root = spectrum.model, spectrum.roots[index]
        cfg = oracle.default_verify_config(model, root)
        if oracle._kind(model) == "radial":
            cfg = oracle._radial_residual_config(model, root, cfg)
        xs = oracle.grid_nodes(model, cfg)
        xs = xs[::len(xs) // 256 + 1]
        image, zeros = _state(key, index)
        z, q = wavefunctions._chart(model, xs)
        product, horner = np.empty(len(z)), np.empty(len(z))
        wavefunctions._product_block(zeros, z, product)
        wavefunctions._horner_block(wavefunctions._coefficients(image), z, horner)
        new, exact = _exact_error(image, z, product)
        old, _ = _exact_error(image, z, horner)
        peak = np.max(np.abs(q * exact))
        new, old = np.max(np.abs(q) * new) / peak, np.max(np.abs(q) * old) / peak
        assert new <= max(old, 8 * _EPS), (key, index, new, old)
        worst.append(new)
    assert max(worst) <= 6 * _EPS


def test_verify_samples_by_the_product_where_it_certifies(horner_rows):
    """The oracle asks for the product, on the default sampling grid that
    sizes its grid (the probe) and on the FD nodes alike: every state of
    razavy and of dshg, whose states it samples in their parity sectors,
    takes no Horner row in either.  dshg's lowest states, sampled on its own
    e^(2x) chart, took the Horner: their zeros there are not real."""
    for key in ("razavy", "dshg"):
        spectrum = solved(key)
        for root, (model, chain) in zip(spectrum.roots, spectrum.states):
            oracle.default_verify_config(model, root)
            oracle.verify_root(model, root, chain=chain)
            assert sum(horner_rows) == 0, (key, root)


@pytest.mark.parametrize("n", [11, 20, 21, 30])
def test_a_dshg_state_is_its_sector_state(n):
    """On dshg's default grid, each state sampled in its parity sector is
    the state dshg's own chain samples, within 1e-10 of the peak (measured:
    1.1e-14 at n = 11, 6.8e-12 at n = 30), at every root whose float no
    other root shares; where two share one, dshg's chain assembles both at
    one point.  So the sector's psi may stand for dshg's wherever a dshg
    state is sampled or verified."""
    spectrum = solve(models.make("dshg", n, {"xi": 2}))
    checked = 0
    for root, (model, chain) in zip(spectrum.roots, spectrum.states):
        if spectrum.roots.count(root) > 1:
            continue
        own = wavefunctions.sample(spectrum.model, root, chain=spectrum.chain)
        sector = wavefunctions.sample(model, root, xs=own.xs, chain=chain)
        assert np.max(np.abs(sector.psi - own.psi)) <= 1e-10 * np.max(np.abs(own.psi)), root
        assert (sector.node_count, sector.parity) == (own.node_count, model.parity), root
        checked += 1
    assert checked == n + 1 - {11: 0, 20: 2, 21: 2, 30: 8}[n]
