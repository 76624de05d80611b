"""Unit tests for wavefunction sampling, node counting and parity."""

import hashlib
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import CATALOG_PARAMS, DEEP_CASES, solved
from qespectra import models, oracle, recurrence, solve, wavefunctions
from qespectra.errors import AsymmetricGrid, DegenerateGrid, QesError


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
    even = wavefunctions.WavefunctionGrid(xs, np.cosh(xs), 1.0, 0, None)
    odd = wavefunctions.WavefunctionGrid(xs, np.sinh(xs), 1.0, 0, None)
    skew = wavefunctions.WavefunctionGrid(xs, np.exp(xs), 1.0, 0, None)
    assert wavefunctions.parity_classify(even) == "even"
    assert wavefunctions.parity_classify(odd) == "odd"
    assert wavefunctions.parity_classify(skew) is None


def test_parity_requires_symmetric_grid():
    xs = np.linspace(-1, 2, 100)
    grid = wavefunctions.WavefunctionGrid(xs, np.cos(xs), 1.0, 0, None)
    with pytest.raises(AsymmetricGrid):
        wavefunctions.parity_classify(grid)


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


def test_extended_horner_splits_as_fractions_do():
    model = models.make("razavy-sinh2", 40, {"xi": Fraction(1, 2), "alpha": 0, "beta": 1})
    spectrum = solve(model)
    z = np.linspace(-3.0, 3.0, 97)
    images = [recurrence.assemble_solution(spectrum.chain, root) for root in spectrum.roots[::4]]
    for nums, den in images + EDGE_IMAGES:
        np.testing.assert_array_equal(
            wavefunctions._eval_poly_extended((nums, den), z),
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
        wavefunctions._eval_poly_extended(((10**400,), 3), z)


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
    # root is the sixth eigenvalue seed of this chain: real_roots refuses the
    # chain, whose float recurrence overflows at its nine lowest roots, and
    # sample polishes the seed on the exact constraint.
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
# the default grid: one read-only frame per model object
# ---------------------------------------------------------------------------

def _state_bytes(state):
    return (state.xs.tobytes(), state.psi.tobytes(), state.norm.hex(),
            state.node_count, state.parity)


def test_default_frame_is_shared_per_model_object(monkeypatch):
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
        # the default grid was built once per turn for the shared frame,
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
# frames: one evaluation per mirror pair
# ---------------------------------------------------------------------------

FULL_LINE_IDS = sorted(m for m in CATALOG_PARAMS if not models.make(m, 1, CATALOG_PARAMS[m]).half_line)


def _mirrored(frame):
    """Whether the frame evaluates one point of every mirror pair and no more."""
    return len(frame.z) == (len(frame.xs) + 1) // 2


@pytest.mark.parametrize("model_id", FULL_LINE_IDS)
def test_half_evaluation_is_the_full_evaluation(model_id):
    # every even chart evaluates half the default grid and mirrors it, bit
    # for bit what Horner gives at every point; dshg's exp(2x) is not even
    model = models.make(model_id, 20, CATALOG_PARAMS[model_id])
    spectrum = solve(model)
    xs = wavefunctions.default_grid(model, model.n)
    frame = wavefunctions._frame(model, xs)
    assert _mirrored(frame) == (model_id != "dshg")
    assert len(frame.z) == ((len(xs) + 1) // 2 if _mirrored(frame) else len(xs))
    full_z = np.asarray(model.coordinate(xs), dtype=float).astype(np.longdouble)
    for root in spectrum.roots:
        image = recurrence.assemble_solution(spectrum.chain, root)
        with np.errstate(over="ignore"):
            want = wavefunctions._eval_poly_extended(image, full_z)
            got = wavefunctions._frame_values(frame, image)
        assert got.tobytes() == want.tobytes(), root


def test_a_grid_that_is_not_an_exact_mirror_takes_the_full_path():
    model = models.make("razavy", 10, CATALOG_PARAMS["razavy"])
    linspace = np.linspace(-1.0, 1.0, 2001)
    assert not np.array_equal(linspace, -linspace[::-1])
    assert not _mirrored(wavefunctions._frame(model, linspace))
    assert _mirrored(wavefunctions._frame(model, wavefunctions.default_grid(model, 10, halfwidth=1.0)))


def _frame_map_cases():
    """(label, model, chain, root, xs) for every kind of grid a frame meets.

    The default exact-mirror grid, the verifier's nodes at the lowest and
    highest root of each full-line deep well (dshg's exp(2x) chart, and the
    half line of each parity sector), a linspace grid and two half-line
    grids.
    """
    cases = []
    for key, (model_id, n, params) in DEEP_CASES.items():
        spectrum = solved(key)
        model, chain = spectrum.model, spectrum.chain
        if key == "coulomb":
            cases.append(("coulomb-default", model, chain, spectrum.roots[0],
                          wavefunctions.default_grid(model, n)))
            continue
        for index in (0, -1):
            root = spectrum.roots[index]
            cfg = oracle.default_verify_config(model, root)
            cases.append((f"{key}-fd-{index}", model, chain, root, oracle.grid_nodes(model, cfg)))
    spectrum = solved("razavy")
    model, chain, root = spectrum.model, spectrum.chain, spectrum.roots[3]
    cases.append(("razavy-default", model, chain, root,
                  wavefunctions.default_grid(model, model.n)))
    cases.append(("razavy-linspace", model, chain, root, np.linspace(-4.0, 4.0, 3001)))
    half = models.make("perturbed-dshg", 6, {"xi": 2, "alpha": 2, "beta": Fraction(1, 4)})
    spectrum = solve(half)
    cases.append(("pdshg-half-line", half, spectrum.chain, spectrum.roots[2],
                  wavefunctions.default_grid(half, half.n, points=2000)))
    return cases


def test_the_frame_map_is_the_full_evaluation():
    """Every point gets bit for bit what Horner gives there, and each pair
    of mirror points with equal coordinates is evaluated once."""
    shared = {}
    for label, model, chain, root, xs in _frame_map_cases():
        frame = wavefunctions._frame(model, xs)
        image = recurrence.assemble_solution(chain, root)
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.asarray(model.coordinate(xs), dtype=float)
            want = wavefunctions._eval_poly_extended(image, z.astype(np.longdouble))
            got = wavefunctions._frame_values(frame, image)
        assert got.tobytes() == want.tobytes(), label
        half = len(xs) // 2
        pairs = sum(1 for i in range(half) if z[i] == z[-1 - i])
        assert len(frame.z) == len(xs) - pairs, label
        shared[label] = pairs / half
    # the default grid shares every pair; dshg's exp(2x) chart and the half
    # line share none, and the verifier's nodes of a parity sector are the
    # half line; linspace, a few ulps off a mirror, shares some pairs
    assert shared["razavy-default"] == 1.0
    assert shared["coulomb-default"] == shared["pdshg-half-line"] == 0.0
    assert 0.0 < shared["razavy-linspace"] < 1.0
    for label, share in shared.items():
        if "-fd-" in label:
            assert share == 0.0, label


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
# left unclassified.
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
    ("dshg", 40): (
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 10, 11, 12, 13, 15, 15) + _ladder(16, 1, 25),
        "-" * 16 + "eo" * 12 + "e",
    ),
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


@pytest.mark.parametrize("model_id", sorted(CATALOG_PARAMS))
def test_node_counts_and_parities_are_those_recorded_on_linspace(model_id):
    # the same counts and parities, except that every even-chart state now
    # classifies as its sector: its psi is exactly even or odd
    for n in (3, 10, 20, 40):
        recorded = NODES_AND_PARITIES[(model_id, n)]
        try:
            model = models.make(model_id, n, CATALOG_PARAMS[model_id])
            spectrum = solve(model)
            rows = []
            for root in spectrum.roots:
                try:
                    state = wavefunctions.sample(model, root, chain=spectrum.chain)
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
        mirrored = _mirrored(wavefunctions._default_frame(model))
        parities = [
            model.parity if mirrored and p == "-" else {"e": "even", "o": "odd", "-": None}[p]
            for p in parities
        ]
        assert rows == list(zip(nodes, parities)), n
