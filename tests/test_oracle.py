"""Unit tests for the independent finite-difference verifier."""

import ast
import math
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import CATALOG_PARAMS, DEEP_CASES, solved
from qespectra import models, oracle, solve, wavefunctions
from qespectra.errors import DegenerateGrid, InvalidParams


@dataclass(frozen=True)
class _QuadraticWell:
    """Stub full-line model: V = x^2, exact levels 2k + 1."""

    n: int = 0
    half_line: bool = False

    def potential(self, x, scan):
        return np.asarray(x, dtype=float) ** 2


@dataclass(frozen=True)
class _SectorWell:
    """Stub parity sector of -d2/dx2 + 0.6 (x^2 - 9)^2: its lowest doublet
    is split by about 1e-10 on [-5, 5] (see :func:`_double_well`)."""

    parity: str
    n: int = 0
    half_line: bool = False

    def potential(self, x, scan):
        x = np.asarray(x, dtype=float)
        return 0.6 * (x * x - 9.0) ** 2


@dataclass(frozen=True)
class _SectorOf:
    """One parity sector of a model whose chart holds both (dshg), as the
    oracle checks a state of that parity: on its half line."""

    model: object
    parity: str
    half_line: bool = False

    def potential(self, x, scan):
        return self.model.potential(x, scan)


def _residual_full_line(v, h, psi, energy):
    """Reference ||(H - E) psi|| / ||psi|| on uniform nodes of step h with
    Dirichlet walls past both ends, as the oracle's half-line residual
    stands for it: the five-point fourth-order Laplacian, and the
    three-point one in the two rows beside each wall."""
    lap = np.diff(np.concatenate(([0.0], psi, [0.0])), 2)
    lap[2:-2] = (-psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]) / 12.0
    r = -lap / (h * h) + (v - energy) * psi
    return float(np.linalg.norm(r) / np.linalg.norm(psi))


def _lowest_levels(model, scan, cfg, count):
    """The lowest ``count`` eigenvalues of the oracle's FD matrix."""
    diag, off = oracle._tridiag(model, scan, cfg)
    return sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))


# ---------------------------------------------------------------------------
# grid config plumbing
# ---------------------------------------------------------------------------

def test_fd_config_validation():
    with pytest.raises(DegenerateGrid):
        oracle.FdConfig(1.0, 1.0, 1000)
    with pytest.raises(DegenerateGrid):
        oracle.FdConfig(0.0, 1.0, 10)
    with pytest.raises(DegenerateGrid):
        oracle.FdConfig(math.inf, 1.0, 1000)


def test_radial_grid_must_anchor_at_zero():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    with pytest.raises(InvalidParams):
        oracle._tridiag(model, 1.0, oracle.FdConfig(1.0, 20.0, 1000))


def test_grid_nodes_match_discretization():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 10.0, 1000)
    xs = oracle.grid_nodes(model, cfg)
    assert len(xs) == 1000
    assert xs[0] == pytest.approx(0.005)   # half-offset open grid
    # dshg holds both parities: the mirrored nodes i h, |i| <= M = points // 2
    both = models.make("dshg", 1, {"xi": 1})
    cfg = oracle.FdConfig(-5.0, 5.0, 999)
    h = 10.0 / 1000
    xs = oracle.grid_nodes(both, cfg)
    assert xs.tobytes() == (h * np.arange(-499, 500)).tobytes()
    # parity sectors: the half line i h with the full line's step, up to
    # M; odd states start at i = 1
    for sector, start in (("even", 0), ("odd", 1)):
        xs = oracle.grid_nodes(_SectorWell(sector), cfg)
        assert xs.tobytes() == (h * np.arange(start, 500)).tobytes()
    even_points = oracle.grid_nodes(_SectorWell("even"), oracle.FdConfig(-5.0, 5.0, 1000))
    assert len(even_points) == 501 and even_points[-1] == 500 * (10.0 / 1001)


@pytest.mark.parametrize("box", [(-5.0, 5.5), (0.0, 5.0)])
def test_a_parity_sector_needs_a_symmetric_box(box):
    # so does dshg, each of whose states is checked on its parity's half line
    for key in ("razavy", "dshg"):
        spectrum = solved(key)
        model = spectrum.model
        cfg = oracle.FdConfig(*box, 2000)
        with pytest.raises(InvalidParams, match="symmetric"):
            oracle.grid_nodes(model, cfg)
        with pytest.raises(InvalidParams, match="symmetric"):
            oracle.verify_root(model, spectrum.roots[0], cfg=cfg, chain=spectrum.chain)


# ---------------------------------------------------------------------------
# eigenvalue oracles with known spectra
# ---------------------------------------------------------------------------

def test_fd_spectrum_harmonic_oscillator_levels():
    cfg = oracle.FdConfig(-10.0, 10.0, 8000)
    levels = _lowest_levels(_QuadraticWell(), 0.0, cfg, 5)
    np.testing.assert_allclose(levels, [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-4)


def test_fd_spectrum_radial_oscillator_levels():
    # beta = 0 removes the Coulomb term: exact levels lam + 1/2 + 2m
    model = models.make("coulomb", 0, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 20.0, 8000)
    levels = _lowest_levels(model, 0.0, cfg, 4)
    lam = 0.5
    expect = [lam + 0.5 + 2 * m for m in range(4)]
    np.testing.assert_allclose(levels, expect, atol=5e-5)


# ---------------------------------------------------------------------------
# level query against a full spectrum
# ---------------------------------------------------------------------------

def _double_well(points=301):
    """FD matrix of -d2/dx2 + 0.6 (x^2 - 9)^2 on [-5, 5], Dirichlet walls.

    Its lowest doublet is split by about 1e-10 and its next by about 3e-8;
    from level 11 to level 280 the levels are more than a unit apart.
    """
    xs = np.linspace(-5.0, 5.0, points + 2)[1:-1]
    h = xs[1] - xs[0]
    diag = 2.0 / (h * h) + 0.6 * (xs * xs - 9.0) ** 2
    off = np.full(points - 1, -1.0 / (h * h))
    return diag, off


def _floor(diag, off):
    """The query's rounding floor, 8 eps ||T||."""
    return 8.0 * np.finfo(float).eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())


def _random_start(rows):
    """A fixed pseudo-random first iterate for ``oracle._nearest``: its
    entries overlap every eigenvector, whatever its parity."""
    return np.random.default_rng(0).random(rows) - 0.5


def _own_start(model, root, cfg, chain=None):
    """The state's wavefunction on the nodes of ``cfg``, in the symmetric
    basis of the oracle's operator there, as ``verify_root`` samples it
    (a product over the zeros of S but for dshg) and starts
    ``oracle._nearest`` from it: an even state's node 0 is divided by
    sqrt(2)."""
    psi = wavefunctions.sample(model, root, xs=oracle.grid_nodes(model, cfg), chain=chain,
                               _solution=oracle._solution(model, root, chain)).psi
    if oracle._kind(model) == "even":
        psi[0] /= math.sqrt(2.0)
    return psi


def _searched(model, root, monkeypatch, **kwargs):
    """verify_root's report, and the operators it searches, in order: the
    grid's and its subgrid's."""
    ops = []
    nearest = oracle._nearest

    def recorded(op, energy, start, level):
        ops.append(op)
        return nearest(op, energy, start, level)

    monkeypatch.setattr(oracle, "_nearest", recorded)
    report = oracle.verify_root(model, root, **kwargs)
    monkeypatch.setattr(oracle, "_nearest", nearest)
    return report, ops


def _sturm_of(diag, off):
    """The Sturm set-up (``oracle._sturm``) of the matrix ``diag``, ``off``."""
    return oracle._sturm(oracle._held(diag, off))


class _RecordingQueries:
    """The oracle's eigenvalue queries, recorded in order while installed:
    its Sturm counts of a window (``oracle._count_within``) and its
    bisections of one level (``oracle._bisect``)."""

    def __init__(self, monkeypatch):
        # ("count", window, (below, inside)) or ("bisect", level, value)
        self.queries = []
        count_within, bisect = oracle._count_within, oracle._bisect

        def counted(sturm, centre, radius):
            found = count_within(sturm, centre, radius)
            self.queries.append(("count", (centre - radius, centre + radius), found))
            return found

        def bisected(sturm, level):
            found = bisect(sturm, level)
            self.queries.append(("bisect", level, found))
            return found

        monkeypatch.setattr(oracle, "_count_within", counted)
        monkeypatch.setattr(oracle, "_bisect", bisected)

    def bisections(self):
        """The bisection queries: (level, value found)."""
        return [(level, found) for kind, level, found in self.queries if kind == "bisect"]


def test_double_well_has_a_doublet_split_by_about_1e_10():
    spectrum = sla.eigvalsh_tridiagonal(*_double_well())
    assert 5e-11 < spectrum[1] - spectrum[0] < 2e-10
    assert np.diff(spectrum)[11:280].min() > 1.0


@pytest.mark.parametrize("where", [
    "below", "above", "midpoint", "beside-doublet-above", "beside-doublet-below",
    "inside-doublet", "isolated", "high",
])
def test_nearest_matches_the_full_spectrum(where):
    """Level k of the full spectrum, for k the nearest level's index and
    its neighbour's, from a start that overlaps every level, whichever
    level the steps settle on; ambiguous when a second level lies within
    twice the gap."""
    diag, off = _double_well()
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    energy = {
        "below": spectrum[0] - 50.0,
        "above": spectrum[-1] + 50.0,
        "midpoint": 0.5 * (spectrum[20] + spectrum[21]),
        "beside-doublet-above": spectrum[1] + 3e-10,
        "beside-doublet-below": spectrum[0] - 3e-10,
        "inside-doublet": spectrum[0] + 0.4 * (spectrum[1] - spectrum[0]),
        "isolated": spectrum[12] + 1e-4,
        "high": spectrum[250] - 0.3,
    }[where]
    dist = np.abs(spectrum - energy)
    nearest = int(np.argmin(dist))
    for level in (nearest, nearest + 1 if nearest + 1 < len(spectrum) else nearest - 1):
        got, ambiguous = oracle._nearest(
            oracle._held(diag, off), energy, _random_start(len(diag)), level
        )
        assert abs(got - spectrum[level]) <= floor, level
        others = np.delete(dist, level).min()
        assert ambiguous == (others < 2.0 * dist[level]), level
        gap = abs(got - energy)
        assert oracle._ambiguous(_sturm_of(diag, off), energy, gap) == ambiguous


def test_ambiguity_is_read_both_ways():
    diag, off = _double_well()
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    # beside the 1e-10 doublet the partner sits within twice the gap
    energy = spectrum[1] + 3e-10
    assert oracle._ambiguous(_sturm_of(diag, off), energy, abs(spectrum[1] - energy))
    # beside an isolated level it does not
    energy = spectrum[12] + 1e-4
    assert not oracle._ambiguous(_sturm_of(diag, off), energy, abs(spectrum[12] - energy))
    assert not oracle._ambiguous(_sturm_of(diag, off), spectrum[12], 0.0)


def test_nearest_on_an_exact_eigenvalue_returns_the_shift():
    # tridiag(-1, 2, -1) of odd order has the eigenvalue 2 exactly, and
    # elimination of T - 2 I runs in exact small integers to a zero pivot
    diag, off = np.full(201, 2.0), np.full(200, -1.0)
    assert sla.lapack.dgttrf(off.copy(), diag - 2.0, off.copy())[-1] > 0
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    assert np.abs(spectrum - 2.0).min() < 1e-14
    # its eigenvector (1, 0, -1, 0, 1, ...) has the Rayleigh quotient 2 exactly
    eigenvector = np.zeros(201)
    eigenvector[::4], eigenvector[2::4] = 1.0, -1.0
    # with 100 sign changes: level 100, which the one count certifies
    assert oracle._nearest(oracle._held(diag, off), 2.0, eigenvector, 100) == (2.0, False)


def test_certificate_replaces_a_farther_eigenvalue(monkeypatch):
    """Rayleigh steps that settle on a level not the state's are caught.

    Between two adjacent levels, Rayleigh-quotient steps from a start that
    mixes both settle on the level it weights more.  Weight one four times
    the other, and ask for the lighter, whose side of the midpoint the
    target sits on: the steps land on the heavier level, the certificate's
    count finds two levels in its window, and one bisection takes the level
    asked for.
    """
    diag, off = _double_well()
    spectrum, vectors = sla.eigh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    k = 12
    near, far = k, k + 1
    start = vectors[:, far] + 0.25 * vectors[:, near]
    energy = 0.5 * (spectrum[k] + spectrum[k + 1])
    energy += 1e-3 * (spectrum[near] - energy)
    recorder = _RecordingQueries(monkeypatch)
    got = oracle._nearest(oracle._held(diag, off), energy, start, near)[0]
    assert abs(got - spectrum[near]) <= floor
    # the count's window, twice the distance of the farther level, held both
    kind, (lo, hi), counts = recorder.queries[0]
    assert kind == "count" and counts == (near, 2)
    assert abs(0.5 * (hi - lo) - 2.0 * abs(spectrum[far] - energy)) <= 4.0 * floor
    # one bisection, of level `near` alone
    (level, found), = recorder.bisections()
    assert level == near and found == got


def test_a_nearer_level_found_by_the_certificate_is_counted_afresh(monkeypatch):
    """Start the steps on the eigenvector of the level above the one asked for.

    They settle there, and the window twice that distance wide holds both
    levels, so the certificate fails and one bisection takes the level
    asked for, the nearer.  Twice its gap no longer reaches the level
    above, so ambiguity takes a count of its own and comes out false.
    """
    diag, off = _double_well()
    spectrum, vectors = sla.eigh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    k = 12
    energy = spectrum[k] + 0.2 * (spectrum[k + 1] - spectrum[k])
    recorder = _RecordingQueries(monkeypatch)
    got, ambiguous = oracle._nearest(oracle._held(diag, off), energy, vectors[:, k + 1].copy(), k)
    assert abs(got - spectrum[k]) <= floor
    assert not ambiguous
    count, certificate, recount = recorder.queries
    assert count[0] == "count" and count[2] == (k, 2)
    assert certificate[0] == "bisect" and certificate[1] == k and certificate[2] == got
    assert recount[0] == "count" and recount[2] == (k, 1)


def test_a_fallback_prepares_the_sturm_inputs_once(monkeypatch):
    """The certificate's count, the bisection and the ambiguity's recount
    read one Sturm set-up: T's diagonal and e^2 are prepared once, where the
    certificate fails (as in the test above) and where a stalled start
    takes no certificate, and the values are those of a set-up apiece."""
    diag, off = _double_well()
    spectrum, vectors = sla.eigh_tridiagonal(diag, off)
    k = 12
    energy = spectrum[k] + 0.2 * (spectrum[k + 1] - spectrum[k])
    starts = (vectors[:, k + 1], _random_start(len(diag)))
    apiece = [oracle._bisect(_sturm_of(diag, off), k)]
    apiece.append(oracle._ambiguous(_sturm_of(diag, off), energy, abs(apiece[0] - energy)))
    sturm, calls = oracle._sturm, []

    def counted(op):
        calls.append(len(op.base))
        return sturm(op)

    monkeypatch.setattr(oracle, "_sturm", counted)
    recorder = _RecordingQueries(monkeypatch)
    for start in starts:
        calls.clear()
        recorder.queries.clear()
        got = oracle._nearest(oracle._held(diag, off), energy, start.copy(), k)
        assert [kind for kind, _, _ in recorder.queries][-2:] == ["bisect", "count"]
        assert calls == [len(diag)]
        assert list(got) == apiece


def test_a_stalled_start_takes_one_bisection(monkeypatch):
    """From a pseudo-random start the Rayleigh steps stall or settle on some
    other level; one bisection query, of the level asked for alone, answers,
    whatever the level and wherever the energy sits."""
    diag, off = _double_well()
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    recorder = _RecordingQueries(monkeypatch)
    for level in (0, 1, 12, 250, len(spectrum) - 1):
        for energy in (spectrum[level] + 1e-4, spectrum[level] - 0.3):
            recorder.queries.clear()
            got = oracle._nearest(
                oracle._held(diag, off), energy, _random_start(len(diag)), level
            )[0]
            assert abs(got - spectrum[level]) <= floor, (level, energy)
            bisections = recorder.bisections()
            assert len(bisections) <= 1, (level, energy)
            assert all(bisected == level for bisected, _ in bisections)


def test_a_level_past_the_last_is_a_shortfall(monkeypatch):
    """A node count the operator has no level for (the radial residual's
    mesh is finer than the operator) reads NaN and not ambiguous, and asks
    no bisection query, which would raise."""
    diag, off = np.full(101, 2.0), np.full(100, -1.0)
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    recorder = _RecordingQueries(monkeypatch)
    got, ambiguous = oracle._nearest(oracle._held(diag, off), 3.9, _random_start(101), 101)
    assert math.isnan(got) and not ambiguous
    assert not recorder.bisections()
    got = oracle._nearest(oracle._held(diag, off), 3.9, _random_start(101), 100)[0]
    assert abs(got - spectrum[100]) <= _floor(diag, off)


def test_the_bisection_reads_a_wall_dominated_level_to_its_own_rounding(monkeypatch):
    """dshg (n = 0, xi = 1) on [-7, 7] with 999 points: the walls put 3.4e11
    on the diagonal, and dstebz's default tolerance, ~eps ||T||, missed the
    even half line's level 0 by 2.4e-5.  Forced from a pseudo-random start,
    the fallback bisects Sturm counts to neighbouring floats and reads the
    level of a dense eigensolve."""
    model = models.make("dshg", 0, {"xi": Fraction(1)})
    root = solve(model).roots[0]
    sector, cfg = _SectorOf(model, "even"), oracle.FdConfig(-7.0, 7.0, 999)
    diag, off = oracle._tridiag(sector, root, cfg)
    assert diag.max() > 3e11
    dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
    recorder = _RecordingQueries(monkeypatch)
    got, ambiguous = oracle._nearest(
        oracle._held(diag, off), model.energy(root), _random_start(len(diag)), 0)
    assert [level for level, _ in recorder.bisections()] == [0]
    assert abs(got - dense) <= 1e-10 and not ambiguous


def test_the_bisection_is_bounded_in_counts_and_memory(monkeypatch):
    """The fallback forced on xie-odd root 10's grid of 325,427 points
    (162,713 rows of the odd half line), from a pseudo-random start: the
    largest deep grid while the default step was 0.07 / (E - min V), kept
    here as an explicit FdConfig.

    Each call of the count helper counts two floats, which cut the bracket
    in thirds: from the whole float lattice, 2^64 floats, in 41 calls, well
    within 64 bisection steps.  The bisection holds T's diagonal and e^2,
    16 bytes a row, below the search's three dgtsv buffers, so the search
    sets the peak, ~24 bytes a row; dstebz's bisection took ~76."""
    spectrum = solved("xie-odd")
    model, root = spectrum.model, spectrum.roots[10]
    cfg = replace(oracle.default_verify_config(model, root), points=325_427)
    xs, h = oracle._nodes(model, cfg)
    op = oracle._line(oracle._potential(model, xs, root), h, "odd")
    rows, level, energy = len(xs), 10, model.energy(root)
    assert rows == 162_713
    start = _random_start(rows)
    del xs
    calls = []
    counts = oracle._counts

    def counted(sturm, lower, upper):
        calls.append((lower, upper))
        return counts(sturm, lower, upper)

    monkeypatch.setattr(oracle, "_counts", counted)
    recorder = _RecordingQueries(monkeypatch)
    tracemalloc.start()
    try:
        got, _ = oracle._nearest(op, energy, start, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [bisected for bisected, _ in recorder.bisections()] == [level]
    windows = sum(kind == "count" for kind, _, _ in recorder.queries)
    assert len(calls) - windows <= 64
    assert peak <= 26 * rows
    want, = sla.eigvalsh_tridiagonal(op.diagonal(), op.off_array(), select="i",
                                     select_range=(level, level), tol=4e-16 * abs(energy))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_count_within_closes_the_window_at_both_ends():
    # tridiag(-1, 2, -1) of odd order has the eigenvalue 2 exactly, and its
    # neighbours lie ~0.03 away; a window with 2 on either edge holds it
    diag, off = np.full(201, 2.0), np.full(200, -1.0)
    # (below, inside): the levels below the window, and in it
    radius = 2.0 ** -10
    assert oracle._count_within(_sturm_of(diag, off), 2.0 + radius, radius) == (100, 1)
    assert oracle._count_within(_sturm_of(diag, off), 2.0 - radius, radius) == (100, 1)
    assert oracle._count_within(_sturm_of(diag, off), 2.0 + 3.0 * radius, radius) == (101, 0)
    assert oracle._count_within(_sturm_of(diag, off), 2.0, 0.1) == (97, 7)


def _dstebz_count(diag, off, centre, radius):
    """The counts ``_count_within`` takes, by scipy's dstebz: below the
    window, from past T's Gershgorin interval, and in it; the window closed
    below, and each tolerance wider than its window."""
    lower = np.nextafter(centre - radius, -np.inf)
    bottom = lower - 2.0 * (abs(lower) + np.abs(diag).max() + 2.0 * np.abs(off).max()) - 1.0

    def count(vl, vu):
        return len(sla.eigvalsh_tridiagonal(
            diag, off, select="v", select_range=(vl, vu), tol=4.0 * (vu - vl),
        ))

    return count(bottom, lower), count(lower, centre + radius)


def _count_windows(diag, off, seed):
    """(centre, radius) windows: random about the lowest levels, wholly below
    and wholly above the spectrum, with a level on either edge, and from a
    level to just past and far past either end of T's Gershgorin interval as
    dstebz widens it."""
    levels = sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 11))
    rng = np.random.default_rng(seed)
    spacing = levels[-1] - levels[0]
    windows = [
        (rng.uniform(levels[0] - 0.1 * spacing, levels[-1]), spacing * 10.0 ** rng.uniform(-12, 0))
        for _ in range(16)
    ]
    top = np.abs(diag).max() + 2.0 * np.abs(off).max()
    windows += [(levels[0] - 0.5 * spacing, 0.25 * spacing), (2.0 * top, 0.5 * top)]
    radius = 1e-6 * spacing
    windows += [(level + sign * radius, radius) for level in levels[::4] for sign in (1.0, -1.0)]
    rims = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    low, high = float((diag - rims).min()), float((diag + rims).max())
    pad = 2.1 * max(abs(low), abs(high)) * np.finfo(float).eps * len(diag)
    for end in (low - 2.0 * pad, low - (high - low), high + 2.0 * pad, 2.0 * high - low):
        windows.append((0.5 * (levels[6] + end), 0.5 * abs(end - levels[6])))
    return windows


def _grid_and_subgrid(model, root, monkeypatch):
    """(diag, off) of the operator of the default grid of ``root`` in the
    model's discretization (for dshg the mirrored line, which holds both
    parities), and of the subgrid operator that verify_root searches."""
    cfg = oracle.default_verify_config(model, root)
    _, (_, subgrid) = _searched(model, root, monkeypatch)
    return [oracle._tridiag(model, root, cfg), (subgrid.diagonal(), subgrid.off_array())]


@pytest.mark.parametrize("key", ["dshg", "xie-even", "xie-odd", "coulomb"])
def test_sturm_count_is_the_dstebz_count(key, monkeypatch):
    """The dlaebz count equals dstebz's on the grid and subgrid operators of
    the deepest state of a well of each kind (the mirrored line, which
    holds both parities, even, odd, radial)."""
    spectrum = solved(key)
    model, root = spectrum.model, spectrum.roots[-1]
    for seed, (diag, off) in enumerate(_grid_and_subgrid(model, root, monkeypatch)):
        sturm = _sturm_of(diag, off)
        for centre, radius in _count_windows(diag, off, seed):
            assert oracle._count_within(sturm, centre, radius) == _dstebz_count(
                diag, off, centre, radius), (len(diag), centre, radius)


def test_sturm_count_splits_as_dstebz_does():
    """Negligible off-diagonal entries split T into blocks, among them one
    row at each end; each block is counted on its own.  A window that ends
    on d_0 sees the split of e_0: its pivot d_0 - d_0 = 0 would send e_0^2
    to d_1's pivot divided by PIVMIN, and d_1 < d_0."""
    diag, off = _double_well()
    off = off.copy()
    off[0] = 1e-3 * np.finfo(float).eps * math.sqrt(diag[0] * diag[1])
    off[40] = 0.0
    off[150] = 1e-3 * np.finfo(float).eps * math.sqrt(diag[150] * diag[151])
    off[-1] = 1e-200
    assert diag[1] < diag[0]
    edge = 2.0 ** -20  # d_0 - edge + edge == d_0
    for centre, radius in _count_windows(diag, off, 5) + [
        (diag[0] - edge, edge), (diag[-1], 1e-9),
        (diag[-1] + 1e-3, 1e-3), (diag[-1] - 1e-3, 1e-3),
    ]:
        assert oracle._count_within(_sturm_of(diag, off), centre, radius) == _dstebz_count(
            diag, off, centre, radius), (centre, radius)
    # lifted, the block of rows 151..299 has its Gershgorin interval above
    # 4000, and the other blocks' intervals end below 3800: the window
    # (3800, 3990] lies between them, and (3500, 4500] reaches into both
    diag[151:-1] += 4000.0
    for centre, radius in ((3895.0, 95.0), (4000.0, 500.0)):
        assert oracle._count_within(_sturm_of(diag, off), centre, radius) == _dstebz_count(
            diag, off, centre, radius), (centre, radius)


def test_sturm_count_splits_where_a_diagonal_product_overflows():
    """|d_j d_(j+1)| past the float range is inf, which splits T, as in
    dstebz's own IEEE arithmetic, and raises no RuntimeWarning."""
    diag = np.array([1.0, 2.0, 3.0, 1e200, 2e200, 3e200])
    off = np.full(5, -1.0)
    for centre, radius in ((5.0, 5.0), (2e200, 1.5e200)):
        counts = oracle._count_within(_sturm_of(diag, off), centre, radius)
        assert counts == _dstebz_count(diag, off, centre, radius), (centre, radius)
        assert counts[1] == 3, (centre, radius)


def test_sturm_count_refuses_a_non_finite_operator():
    """A potential that overflows on the box raises, as dstebz's wrapper did,
    rather than passing for a count."""
    diag, off = _double_well()
    for i, bad in ((0, math.inf), (1, math.nan)):
        entries = [diag.copy(), off.copy()]
        entries[i][7] = bad
        with pytest.raises(ValueError):
            oracle._count_within(_sturm_of(*entries), diag[20], 1.0)


def test_sturm_count_refuses_an_off_diagonal_whose_square_overflows():
    """e^2 past the float range would make PIVMIN inf, and this window,
    which holds all three eigenvalues, counted 0.  |e| >= sqrt(max float)
    raises the finiteness error, either sign, on the first row too."""
    with pytest.raises(ValueError):
        oracle._count_within(_sturm_of([1e300, -1e300, 2e299], [5e299, 3e299]), 0.0, 2e300)
    edge = oracle._E_MAX
    for off in ([-edge, 1.0], [1.0, edge]):
        with pytest.raises(ValueError):
            oracle._count_within(_sturm_of([0.0, 0.0, 0.0], off), 0.0, 1.0)
    line = oracle._Tridiagonal(np.zeros(3), 0.0, np.broadcast_to(-1.0, (2,)), -edge)
    with pytest.raises(ValueError):
        oracle._count_within(oracle._sturm(line), 0.0, 1.0)
    below = np.nextafter(edge, 0.0)
    diag, off = np.zeros(2), np.array([below])  # eigenvalues -below and below
    assert oracle._count_within(_sturm_of(diag, off), 0.0, 2.0 * below) == (0, 2)


def test_a_sturm_count_never_reads_the_off_diagonal(monkeypatch):
    """With IJOB = 1, dlaebz counts from d and e^2 alone: an E of NaNs gives
    every count the true e gives, and so does the e^2 that ``_counts``
    passes in E's place, since a line operator holds no array of e; here on
    the grid and subgrid operators of xie-odd's top state and on a random
    matrix of 5,000 rows, each one unreduced block, at the random windows
    of test_sturm_count_is_the_dstebz_count."""
    spectrum = solved("xie-odd")
    model, root = spectrum.model, spectrum.roots[-1]
    rng = np.random.default_rng(7)
    matrices = _grid_and_subgrid(model, root, monkeypatch)
    matrices.append((rng.uniform(-1.0, 1.0, 5000), rng.uniform(0.1, 1.0, 4999)))
    dlaebz = oracle._dlaebz

    def counts_reading(e, sturm, lower, upper):
        """``_counts`` with ``e`` in dlaebz's argument E."""
        def swapped(*args):
            dlaebz(*args[:10], e.ctypes.data_as(oracle._DOUBLE_P), *args[11:])

        monkeypatch.setattr(oracle, "_dlaebz", swapped)
        try:
            return oracle._counts(sturm, lower, upper)
        finally:
            monkeypatch.setattr(oracle, "_dlaebz", dlaebz)

    for seed, (diag, off) in enumerate(matrices):
        sturm = _sturm_of(diag, off)
        nan = np.full_like(off, np.nan)
        for centre, radius in _count_windows(diag, off, seed):
            lower, upper = np.nextafter(centre - radius, -np.inf), centre + radius
            below, upto = oracle._counts(sturm, lower, upper)
            assert counts_reading(off, sturm, lower, upper) == (below, upto)
            assert counts_reading(nan, sturm, lower, upper) == (below, upto)
            assert (below, upto - below) == _dstebz_count(diag, off, centre, radius), (
                seed, centre, radius)


def test_a_sturm_count_allocates_e_squared_alone():
    """8 bytes a row for e^2, and a few chunks; dstebz's f2py workspace
    took ~57 bytes a row beyond the inputs."""
    rows = 200_000
    diag = 2.0 + np.linspace(0.0, 1.0, rows)
    off = np.full(rows - 1, -0.4)
    tracemalloc.start()
    try:
        count = oracle._count_within(_sturm_of(diag, off), 2.5, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == _dstebz_count(diag, off, 2.5, 0.01)
    assert peak <= 10 * rows


@pytest.mark.parametrize("seed", range(4))
def test_every_subgrid_node_is_a_coarse_node(seed):
    # 2h is exact, and so is j (2h) = (2j) h before rounding: the half line's
    # subgrid of step 2h is every other node, bit for bit, [0::2] (even) or
    # [1::2] (odd); the mirrored nodes are the even half line's and their
    # negations, bit for bit.  The radial subgrid's half-offset nodes are
    # those of the box with half the points, bit for bit, where that is whole.
    rng = np.random.default_rng(seed)
    for _ in range(25):
        half_width = 10.0 ** rng.uniform(-3, 3) * rng.uniform(0.01, 3.0)
        box = oracle.FdConfig(-half_width, half_width, int(rng.integers(100, 20_000)))
        for sector, first in (("even", 0), ("odd", 1)):
            coarse, h = oracle._nodes(_SectorWell(sector), box)
            kept = coarse[first::2]
            sub = np.arange(first, first + len(kept), dtype=float) * (2.0 * h)
            assert sub.tobytes() == kept.tobytes(), (box, sector)
        even, h = oracle._nodes(_SectorWell("even"), box)
        mirrored = oracle._nodes(_QuadraticWell(), box)
        assert mirrored[1] == h
        assert mirrored[0][len(even) - 1:].tobytes() == even.tobytes(), box
        assert mirrored[0][:len(even) - 1].tobytes() == (-even[:0:-1]).tobytes(), box
        points = 2 * int(rng.integers(100, 10_000))
        radial = oracle.FdConfig(0.0, half_width, points)
        sub, step = oracle._offset_nodes(radial, 0, points // 2, 2)
        halved, halved_step = oracle._offset_nodes(
            oracle.FdConfig(0.0, half_width, points // 2), 0, points // 2)
        assert step == halved_step and sub.tobytes() == halved.tobytes(), radial


@pytest.mark.parametrize("key", [key for key in DEEP_CASES if key != "coulomb"])
def test_subgrid_operator_reuses_the_coarse_potential(key, monkeypatch):
    # On a box of P = 2M + 1 points, odd, the subgrid is the half line of
    # the box of M points, whose step is 2h bit for bit: its operator is
    # that box's as built from scratch, bit for bit, with every potential
    # value taken from the grid's, at no new node.  dshg's states take
    # either parity's half line.
    spectrum = solved(key)
    model = spectrum.model
    taken = []
    potential = oracle._potential

    def counted(model, xs, scan):
        taken.append(xs.copy())
        return potential(model, xs, scan)

    for root in (spectrum.roots[0], spectrum.roots[-1]):
        box = oracle.default_verify_config(model, root)
        cfg = oracle.FdConfig(box.xmin, box.xmax, box.points | 1)
        monkeypatch.setattr(oracle, "_potential", counted)
        report, (grid, subgrid) = _searched(model, root, monkeypatch, cfg=cfg, chain=spectrum.chain)
        monkeypatch.setattr(oracle, "_potential", potential)
        sector = _SectorOf(model, ("even", "odd")[report.node_count % 2])
        assert np.concatenate(taken).tobytes() == oracle.grid_nodes(sector, cfg).tobytes()
        want = oracle._tridiag(sector, root, oracle.FdConfig(cfg.xmin, cfg.xmax, cfg.points // 2))
        assert subgrid.diagonal().tobytes() == want[0].tobytes()
        assert subgrid.off_array().tobytes() == want[1].tobytes()
        assert np.shares_memory(subgrid.base, grid.base)
        taken.clear()


# ---------------------------------------------------------------------------
# the half line of a parity sector
# ---------------------------------------------------------------------------

def _mirror(psi, parity):
    """Samples at i h, |i| <= M, from those of the half line of ``parity``."""
    if parity == "even":
        return np.concatenate((psi[:0:-1], psi))
    return np.concatenate((-psi[::-1], [0.0], psi))


def _mirrored_levels(v, h, window):
    """Eigenvalues in ``window``, their eigenvectors' parities and ||T|| of
    the full-line operator on the mirrored nodes i h, |i| <= M, built here
    from the potential ``v`` at i h, 0 <= i <= M."""
    v = _mirror(v, "even")
    diag = 2.0 / (h * h) + v
    off = np.full(len(v) - 1, -1.0 / (h * h))
    levels, vectors = sla.eigh_tridiagonal(diag, off, select="v", select_range=window)
    even = np.abs(vectors - vectors[::-1]).max(axis=0) < np.abs(vectors + vectors[::-1]).max(axis=0)
    tnorm = np.abs(diag).max() + 2.0 * np.abs(off).max()
    return levels, np.where(even, "even", "odd"), tnorm


def _sector_case(case):
    """(model, root, energy, cfg, chain) of one sector state, or of the stub."""
    key, index = case
    if key.startswith("stub"):
        return _SectorWell(key.removeprefix("stub-")), 0.0, 0.0, oracle.FdConfig(-5.0, 5.0, 601), None
    spectrum = solved(key)
    model, root = spectrum.model, spectrum.roots[index]
    cfg = oracle.default_verify_config(model, root)
    return model, root, model.energy(root), cfg, spectrum.chain


# the stub, and deep states of each sector that sit in a doublet whose other
# member the full line held within twice the gap
SECTOR_CASES = [("stub-even", None), ("stub-odd", None), ("pdshg-20", 5),
                ("chen-even", 5), ("razavy", 0), ("chen-odd", 4)]


@pytest.mark.parametrize("case", SECTOR_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_half_line_levels_are_the_full_line_levels_of_one_parity(case):
    """The sector's half-line operator has exactly the eigenvalues of its
    parity of the full-line operator on the mirrored nodes, within
    32 eps ||T||, and none of the other parity."""
    model, root, energy, cfg, _ = _sector_case(case)
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    nodes = h * np.arange(cfg.points // 2 + 1)
    own_nodes = nodes[1:] if model.parity == "odd" else nodes
    assert oracle.grid_nodes(model, cfg).tobytes() == own_nodes.tobytes()
    # the whole spectrum of the stub, the doublet about a deep state
    stub = isinstance(model, _SectorWell)
    window = (-np.inf, np.inf) if stub else (energy - 1e-3, energy + 1e-3)
    levels, parity, tnorm = _mirrored_levels(oracle._potential(model, nodes, root), h, window)
    half = sla.eigvalsh_tridiagonal(
        *oracle._tridiag(model, root, cfg), select="v", select_range=window
    )
    if not stub:
        assert len(levels) == 2 and sorted(parity) == ["even", "odd"]
    own = levels[parity == model.parity]
    assert len(half) == len(own)
    assert np.abs(half - own).max() <= 32 * np.finfo(float).eps * tnorm


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("points", [199, 200, 1001])
def test_half_line_residual_is_the_full_line_residual(sector, points):
    """On random samples (no cancellation, so rounding is at eps) the
    half-line residual is the full-line residual of the mirrored samples."""
    rng = np.random.default_rng(points)
    cfg = oracle.FdConfig(-3.0, 3.0, points)
    xs, h = oracle._nodes(_SectorWell(sector), cfg)
    v = rng.uniform(-5.0, 5.0, cfg.points // 2 + 1)  # at i h, 0 <= i <= M
    psi = rng.standard_normal(len(xs))
    half = oracle._residual_half_line(v[len(v) - len(xs):], h, psi, 0.7, sector)
    full = _residual_full_line(_mirror(v, "even"), h, _mirror(psi, sector), 0.7)
    assert half == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("case", SECTOR_CASES[2:], ids=lambda c: f"{c[0]}-{c[1]}")
def test_half_line_residual_of_a_deep_state_is_its_full_line_residual(case):
    """The residual a deep state reports is the full-line one of its mirrored
    samples.  The residual is the small difference of large stencil terms,
    so rounding moves it by up to ~1e-4 of itself (measured: 4e-6 to 8e-5)."""
    model, root, energy, cfg, chain = _sector_case(case)
    xs, h = oracle._nodes(model, cfg)
    psi = wavefunctions.sample(model, root, xs=xs, chain=chain,
                               _solution=oracle._solution(model, root, chain)).psi
    half = oracle._residual_half_line(
        oracle._potential(model, xs, root), h, psi, energy, model.parity
    )
    v = oracle._potential(model, h * np.arange(cfg.points // 2 + 1), root)
    full = _residual_full_line(_mirror(v, "even"), h, _mirror(psi, model.parity), energy)
    assert oracle.verify_root(model, root, chain=chain).residual == half
    assert half == pytest.approx(full, rel=1e-3)


@pytest.mark.parametrize("index", [0, 1, 6, 11])
def test_a_dshg_state_reports_the_full_line_residual_of_its_projection(index):
    """dshg is sampled on the mirrored nodes, and its state is projected onto
    the parity of its node count k, (psi(x) +- psi(-x)) / 2.  The residual it
    reports is the full-line residual of that projection, which is exactly
    even or odd on those nodes, and its node count stays k.  Rounding moves
    the residual as in the test above."""
    spectrum = solved("dshg")
    model, root = spectrum.model, spectrum.roots[index]
    energy = model.energy(root)
    xs, h = oracle._nodes(model, oracle.default_verify_config(model, root))
    grid = wavefunctions.sample(model, root, xs=xs, chain=spectrum.chain)
    assert grid.node_count == index
    sign = -1.0 if index % 2 else 1.0
    projected = 0.5 * (grid.psi + sign * grid.psi[::-1])
    assert np.array_equal(projected, sign * projected[::-1])
    full = _residual_full_line(oracle._potential(model, xs, root), h, projected, energy)
    report = oracle.verify_root(model, root, chain=spectrum.chain)
    assert report.node_count == index
    assert report.residual == pytest.approx(full, rel=1e-3)


# pdshg-20 root 5's default grid while the default step was 0.07 / (E - min V):
# on it the full line's doublet lies within twice the gap (see the tests below).
PDSHG_20_ROOT_5_POINTS = 67_976


def test_pdshg_20_root_5_reports_the_level_of_its_own_parity():
    """pdshg-20's root 5 is even.  On the mirrored full line its FD doublet
    puts the odd level 7.6e-5 above the energy and the even one 9.8e-5
    below; the full-line oracle reported the odd one.  The half line holds
    the even level alone, and nothing else within twice its gap.  The grid
    is the default one while the default step was 0.07 / (E - min V),
    67,976 points."""
    model, root, energy, cfg, chain = _sector_case(("pdshg-20", 5))
    assert model.parity == "even"
    cfg = replace(cfg, points=PDSHG_20_ROOT_5_POINTS)
    report = oracle.verify_root(model, root, cfg=cfg, chain=chain)
    assert 9.7e-5 < report.abs_gap < 9.8e-5 and report.nearest_fd_energy < energy
    assert not report.ambiguous and report.converged
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    nodes = h * np.arange(cfg.points // 2 + 1)
    levels, parity, tnorm = _mirrored_levels(
        oracle._potential(model, nodes, root), h, (energy - 1e-3, energy + 1e-3)
    )
    nearest = np.argmin(np.abs(levels - energy))
    assert parity[nearest] == "odd" and 7.5e-5 < abs(levels[nearest] - energy) < 7.7e-5
    own, = levels[parity == "even"]
    assert abs(own - report.nearest_fd_energy) <= 32 * np.finfo(float).eps * tnorm


def test_the_oracle_shares_no_code_with_the_algebraic_path():
    """oracle.py imports neither recurrence nor polynomials.  A sector's
    parity is read off the model, physics input; the algebraic state comes
    in only as samples from wavefunctions."""
    with open(oracle.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert "wavefunctions" in parts and "models" in parts  # the scan sees them
    assert not parts & {"recurrence", "polynomials"}, sorted(names)


# ---------------------------------------------------------------------------
# verify_root end to end
# ---------------------------------------------------------------------------

def _convergence_cases():
    """Lowest and highest root of each deep well, and two energies off a level."""
    cases = [(key, index, 0.0) for key in DEEP_CASES for index in (0, -1)]
    return cases + [("dshg-0", 0, 1e-3), ("dshg-0", 0, 1.0)]


@pytest.mark.parametrize("key,index,offset", _convergence_cases())
def test_convergence_decision_matches_the_refined_nearest_eigenvalue(key, index, offset, monkeypatch):
    """The decision is that of the nearest eigenvalue refined by Richardson's
    rule, taken by bisection: level k of the subgrid operator, k the
    state's node index (halved on the half line), extrapolated with the
    grid's level to E_R, must lie within a tenth of the shift (or the
    floor) of the energy.  So every deep state's lowest and highest root
    converge, and an energy 1e-3 or 1 off a level does not.  No case puts |E_R - E| within 8 eps max|off| of
    the bound, so rounding decides none of them: that is the rounding scale
    of both computations, since near the state the entries are ~1/h^2.
    """
    if key == "dshg-0":
        spectrum = solve(models.make("dshg", 0, {"xi": 1}))
    else:
        spectrum = solved(key)
    model, root = spectrum.model, spectrum.roots[index]
    energy = model.energy(root) + offset
    report, (_, subgrid) = _searched(model, root, monkeypatch, energy=energy, chain=spectrum.chain)
    level = report.node_count if oracle._kind(model) == "radial" else report.node_count // 2
    off = subgrid.off_array()
    want = sla.eigvalsh_tridiagonal(subgrid.diagonal(), off, select="i",
                                    select_range=(level, level))[0]
    nearest = report.nearest_fd_energy
    extrapolated = nearest + (nearest - want) / 3.0
    bound = oracle._SHIFT_SHARE * abs(nearest - want) + oracle._GAP_FLOOR * max(1.0, abs(energy))
    assert report.converged == (abs(extrapolated - energy) <= bound)
    assert report.converged == (offset == 0.0)
    assert abs(abs(extrapolated - energy) - bound) > 8.0 * np.finfo(float).eps * np.abs(off).max()


@pytest.mark.parametrize("t", [0.09, 0.11])
def test_convergence_threshold_is_a_tenth_of_the_shift(t):
    # E = E_R + t (E_h - E_2h) puts the extrapolation t shifts from the
    # energy; the levels, searched from the state's own wavefunction, do not
    # depend on the energy
    model = models.make("dshg", 0, {"xi": 1})
    spectrum = solve(model)
    root = spectrum.roots[0]
    cfg = oracle.FdConfig(-7.0, 7.0, 999)
    first = oracle.verify_root(model, root, cfg=cfg, chain=spectrum.chain)
    fine, coarse = first.nearest_fd_energy, first.subgrid_fd_energy
    energy = first.richardson_energy + t * (fine - coarse)
    report = oracle.verify_root(model, root, energy=energy, cfg=cfg, chain=spectrum.chain)
    assert (report.nearest_fd_energy, report.subgrid_fd_energy) == (fine, coarse)
    assert report.extrapolation_error == pytest.approx(t * abs(fine - coarse), rel=1e-6)
    assert abs(fine - coarse) > 1e3 * oracle._GAP_FLOOR
    assert report.converged == (t < 0.1)


def test_verify_root_searches_the_grid_and_its_subgrid(monkeypatch):
    """Two level searches: the grid's, and its subgrid's of step 2h.  dshg's
    even ground state is searched on the even half line of its mirrored
    nodes, M + 1 rows, then on every other one of them; its odd partner on
    M rows, then M // 2; coulomb's radial line on its points, then half."""
    dshg = solved("dshg")
    for model, root, rows in (
        (models.make("coulomb", 1, {"lambda": Fraction(1, 2)}), 1.0,
         lambda points: [points, points // 2]),
        (dshg.model, dshg.roots[0], lambda points: [points // 2 + 1, points // 4 + 1]),
        (dshg.model, dshg.roots[1], lambda points: [points // 2, points // 4]),
    ):
        report, ops = _searched(model, root, monkeypatch)
        assert report.converged
        assert [len(op.base) for op in ops] == rows(oracle.default_verify_config(model, root).points)


@pytest.mark.parametrize(
    "key,index", [(key, i) for key in DEEP_CASES for i in (0, -1)] + [("pdshg-20", 5)]
)
def test_verify_root_takes_two_queries_unless_ambiguous(key, index, monkeypatch):
    """One Sturm count certifies a state's level alone within twice its gap
    and says it is not ambiguous; convergence takes one more.  An ambiguous
    state would take four: the count, the bisection of its level, the count
    of its ambiguity and the convergence count.  No line state is
    ambiguous: its half line holds no level of the other parity, not even
    at pdshg-20's root 5, whose full-line levels lie within twice the gap
    of each other (see below), or at dshg's lowest doublet.  The test
    below takes every deep state."""
    spectrum = solved(key)
    model = spectrum.model
    recorder = _RecordingQueries(monkeypatch)
    report = oracle.verify_root(model, spectrum.roots[index], chain=spectrum.chain)
    assert [kind for kind, _, _ in recorder.queries] == ["count", "count"]
    assert not report.ambiguous


def test_every_deep_state_takes_two_counts_and_is_not_ambiguous(monkeypatch):
    """Each of the 96 deep states takes exactly two Sturm counts, its level's
    certificate and its convergence, and no bisection; none is ambiguous.
    dshg's lowest doublet took four queries while both its parities shared
    the full line, and read ambiguous."""
    recorder = _RecordingQueries(monkeypatch)
    for key in DEEP_CASES:
        spectrum = solved(key)
        for index, root in enumerate(spectrum.roots):
            recorder.queries.clear()
            report = oracle.verify_root(spectrum.model, root, chain=spectrum.chain)
            assert [kind for kind, _, _ in recorder.queries] == ["count", "count"], (key, index)
            assert not report.ambiguous, (key, index)


def test_the_full_line_keeps_the_level_of_pdshg_20_root_5(monkeypatch):
    """On the full line, which holds both parities, pdshg-20's root 5 sits
    between two FD levels ~1e-4 away, and the Rayleigh steps from its own
    wavefunction settle on the level of its own parity, the farther, whose
    index is its node count.  The certificate's window holds both levels,
    so one bisection takes that level again, and its ambiguity is counted:
    ambiguous.  The oracle checks this sector on the half line; the
    full-line matrix is built here, on the interior nodes of the default
    box with PDSHG_20_ROOT_5_POINTS."""
    spectrum = solved("pdshg-20")
    model, root = spectrum.model, spectrum.roots[5]
    energy = model.energy(root)
    cfg = replace(oracle.default_verify_config(model, root), points=PDSHG_20_ROOT_5_POINTS)
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    xs = cfg.xmin + h * np.arange(1, cfg.points + 1)
    diag = 2.0 / (h * h) + model.potential(xs, root)
    off = np.full(cfg.points - 1, -1.0 / (h * h))
    near = sla.eigvalsh_tridiagonal(
        diag, off, select="v", select_range=(energy - 1e-3, energy + 1e-3)
    )
    dist = np.sort(np.abs(near - energy))
    assert len(near) == 2 and dist[1] < 2.0 * dist[0]
    grid = wavefunctions.sample(model, root, xs=xs, chain=spectrum.chain)
    recorder = _RecordingQueries(monkeypatch)
    got, ambiguous = oracle._nearest(oracle._held(diag, off), energy, grid.psi, grid.node_count)
    assert abs(got - near[np.argmax(np.abs(near - energy))]) <= _floor(diag, off)
    assert ambiguous
    count, (_, level, found), recount = recorder.queries
    assert count[2] == (grid.node_count, 2)
    assert level == grid.node_count and found == got
    assert recount[2] == (grid.node_count, 2)


def test_verify_root_coulomb_small():
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    report = oracle.verify_root(model, 1.0)
    assert report.algebraic_energy == pytest.approx(2.0)
    assert report.abs_gap < 1e-4
    assert report.residual < 1e-6
    assert report.converged
    assert not report.ambiguous


def test_verify_root_dshg_ground_state():
    spectrum = solved("dshg")
    report = oracle.verify_root(spectrum.model, spectrum.roots[0], chain=spectrum.chain)
    assert report.abs_gap < 1e-3
    assert report.residual < 1e-4
    assert report.converged


def test_verify_root_negative_control():
    # an energy 1.0 off a true level must be loudly wrong on both meters
    model = models.make("dshg", 0, {"xi": 1})
    # n = 0: single root at the exact ground energy
    spectrum = solve(model)
    root = spectrum.roots[0]
    report = oracle.verify_root(model, root, energy=root + 1.0, chain=spectrum.chain)
    assert report.abs_gap > 0.1
    assert report.residual > 1e-2


def test_verify_root_accepts_matching_presampled_grid():
    # with an explicit configuration the oracle samples on its grid nodes:
    # the state it checks is the one presampled there
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 25.0, 6000)
    grid = wavefunctions.sample(model, 1.0, xs=oracle.grid_nodes(model, cfg))
    report = oracle.verify_root(model, 1.0, cfg=cfg)
    assert report.node_count == grid.node_count
    assert report.abs_gap < 1e-4
    assert report.residual < 1e-5


def test_default_verify_config_scales_with_energy():
    spectrum = solved("razavy")
    lo = oracle.default_verify_config(spectrum.model, spectrum.roots[0])
    hi = oracle.default_verify_config(spectrum.model, spectrum.roots[-1])
    assert lo.points >= 4000
    # the step rule follows E - min(V): the highest state needs the finest
    # mesh (the razavy well bottoms out far below even the deepest root)
    assert hi.points > lo.points
    assert lo.xmin == -lo.xmax


@pytest.mark.parametrize("model_id", ["xie-even", "xie-odd"])
def test_a_state_that_is_not_normalizable_takes_the_fewest_points(model_id):
    # at n = 15 every xie state lies below min V and grows toward the box's
    # ends; its predicted gap once gave it 115,966 or 151,466 points, which
    # no grid can pass.  It takes the floor, and still fails.
    model = models.make(model_id, 15, CATALOG_PARAMS[model_id])
    root = solve(model).roots[0]
    assert not model.normalizable(root)
    assert oracle.default_verify_config(model, root).points == oracle._MIN_POINTS
    report = oracle.verify_root(model, root)
    assert not (report.abs_gap < 1e-3 and report.residual < 1e-4 and report.converged)


def test_radial_residual_mesh_tracks_the_coulomb_core():
    # stronger Coulomb coupling contracts the core scale and the residual
    # mesh must refine accordingly
    model = models.make("coulomb", 10, {"lambda": Fraction(1, 2)})
    cfg = oracle.default_verify_config(model, 24.85)
    weak = oracle._radial_residual_config(model, 3.5, cfg)
    strong = oracle._radial_residual_config(model, 24.85, cfg)
    assert strong.points > weak.points
    assert strong.points <= 900_000


@pytest.mark.parametrize("n", [3, 10, 15, 20, 25, 30])
def test_a_coulomb_state_counts_its_nodes_on_the_operator_s_nodes_as_on_the_mesh(n):
    """verify_root counts a coulomb state's nodes on the operator's nodes,
    where it once counted them on the residual's own finer mesh (up to
    900,000 nodes at n = 30).  Each state of CATALOG_PARAMS at these n,
    the deep well's at n = 10, counts its root index on both."""
    model = models.make("coulomb", n, CATALOG_PARAMS["coulomb"])
    spectrum = solve(model)
    for index, root in enumerate(spectrum.roots):
        s = oracle._solution(model, root, spectrum.chain)
        cfg = oracle.default_verify_config(model, root)
        for grid in (cfg, oracle._radial_residual_config(model, root, cfg)):
            xs = oracle.grid_nodes(model, grid)
            assert wavefunctions.sample(model, root, xs=xs, _solution=s).node_count == index


def _radial_residual_whole(model, scan, cfg, psi, energy):
    """Reference weighted residual of ``psi``, sampled on the nodes of
    ``cfg``: each stencil of _residual_radial over whole arrays, in its
    order of operations, and the sums by np.add.reduce."""
    m, lam = len(psi), float(model.lam)
    xs, h = oracle._offset_nodes(cfg, 0, m)
    v = psi / np.power(xs, lam)
    grad = np.zeros(m + 1)
    grad[1] = (-23.0 * v[0] + 21.0 * v[1] + 3.0 * v[2] - v[3]) / (24.0 * h)
    grad[2:m - 1] = ((v[2:m - 1] - v[1:m - 2]) * 27.0 - (v[3:m] - v[0:m - 3])) / (24.0 * h)
    grad[m - 1], grad[m] = (v[-1] - v[-2]) / h, (0.0 - v[-1]) / h
    flux = oracle._radial_weight(model, np.arange(m + 1, dtype=float) * h + cfg.xmin) * grad
    flux[0] = 0.0
    div = np.empty(m)
    div[0] = (21.0 * flux[1] + 3.0 * flux[2] - flux[3]) / (24.0 * h)
    div[1:m - 2] = (
        (flux[2:m - 1] - flux[1:m - 2]) * 27.0 - (flux[3:m] - flux[0:m - 3])
    ) / (24.0 * h)
    div[m - 2:] = (flux[m - 1:] - flux[m - 2:m]) / h
    w_mid = oracle._radial_weight(model, xs)
    r = -div / w_mid + (0.25 * xs * xs - float(scan) / xs - energy) * v
    return math.sqrt(np.add.reduce(w_mid * r * r)) / math.sqrt(np.add.reduce(w_mid * v * v))


@pytest.mark.parametrize("points", [4097, 8194, 10_000])
def test_the_radial_residual_in_blocks_is_the_residual_of_the_whole_mesh(points):
    """The residual evaluates psi a block of _ROWS rows at a time, from S
    and the chart, at the scale of its norm on the operator's nodes: on
    those nodes it reads the residual of the sampled psi, taken whole, to
    the order of its sums (a last block of one row, of the two rows by the
    outer wall, and a partial one).  psi's sign moves no bit of it."""
    spectrum = solved("coulomb")
    model, root = spectrum.model, spectrum.roots[3]
    energy = model.energy(root)
    cfg = oracle.FdConfig(0.0, oracle.default_box(model)[1], points)
    s = oracle._solution(model, root, spectrum.chain)
    grid = wavefunctions.sample(model, root, xs=oracle.grid_nodes(model, cfg), _solution=s)
    got = oracle._residual_radial(model, root, cfg, s, grid.norm, energy)
    want = _radial_residual_whole(model, root, cfg, grid.psi, energy)
    assert abs(got / want - 1.0) < 1e-12, (got, want)
    assert oracle._residual_radial(model, root, cfg, s, -grid.norm, energy) == got


def test_a_wavefunction_that_overflows_on_the_residual_mesh_raises():
    """No array of the mesh's length is made, and still an S past the
    float range in any block of the mesh (here the third of three) is
    refused, as sampling refuses it."""
    model = models.make("coulomb", 1, {"lambda": Fraction(1, 2)})
    cfg = oracle.FdConfig(0.0, 25.0, 10_000)

    def evaluate(z, out):
        out[...] = np.where(z > 21.0, np.inf, 1.0)

    with pytest.raises(DegenerateGrid, match="overflowed"):
        oracle._residual_radial(model, 1.0, cfg, evaluate, 1.0, 2.0)


def test_residual_full_line_converges_at_high_order():
    # the 5-point scheme on an analytic state: doubling the mesh must
    # shrink the residual by far more than the 2nd-order factor of 4
    model = models.make("dshg", 1, {"xi": 1})
    root = solve(model).roots[0]

    def residual_at(points):
        cfg = oracle.FdConfig(-7.0, 7.0, points)
        return oracle.verify_root(model, root, cfg=cfg).residual

    coarse = residual_at(999)
    fine = residual_at(1999)
    assert fine < coarse / 8.0


def test_verify_root_peak_memory_on_the_largest_deep_grid():
    """xie-odd root 10 verifies on 80,149 points: the half line's 40,074
    nodes, and the 20,037 of its subgrid of step 2h.  (At the step 0.091 /
    max(1, E - min V) it verified on 250,329 points.)

    No phase holds more than five arrays of the grid's rows: the potential
    v and the four buffers of the level search's dgtsv solves, whose
    operator is v and h alone.  Sampling, the potential and the residual
    run in blocks.  The search's buffers are freed before the subgrid's is
    made, which holds v and four arrays of half the rows, and while
    counted a diagonal and e^2 of half the rows.  So the peak, ~20 bytes a
    point, is the grid's search.  Traced peaks by phase on the 325,427
    points of the step 0.07 / (E - min V), MiB, before and after blocking:
    sampling 7.5 -> 4.0, the potential 6.2 -> 3.7, the half-line residual
    8.7 -> 3.9, the search 8.7 -> 6.2 and its count 7.6 -> 5.1; the
    subgrid's search and count 3.8, where the operator with half the step,
    2N rows, took 6.2 to build and 7.6 to count.  Before,
    the residual's temporaries set the peak, ~28 bytes a point; with
    inverse iteration from a pseudo-random start it was ~38, and with
    dstebz's zero-filled count workspace ~76.
    """
    spectrum = solved("xie-odd")
    model, chain, root = spectrum.model, spectrum.chain, spectrum.roots[10]
    points = oracle.default_verify_config(model, root).points
    assert points == 80_149
    tracemalloc.start()
    try:
        report = oracle.verify_root(model, root, chain=chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 24 * points


def test_verify_root_peak_memory_on_the_radial_residual_mesh():
    """coulomb roots 0 and 10 solve 4,000 and 20,591 rows, but their
    residuals have a mesh of their own, 173,626 nodes each (see
    _radial_residual_config).  psi is sampled on the operator's nodes
    alone, and the residual evaluates it on the mesh a block at a time and
    sums its terms block by block, so no array of the mesh's length is
    made: the peak is the operator's, under the bound of the largest line
    grid (test_verify_root_peak_memory_on_the_largest_deep_grid).  It reads
    0.40 and 1.65 MB traced; while psi was sampled on the mesh and
    interpolated onto the operator's nodes, 4.5 and 4.6 MB, ~26 bytes a
    mesh node, and before the residual ran in blocks, ~48."""
    spectrum = solved("coulomb")
    model, chain = spectrum.model, spectrum.chain
    for index, points in ((0, 4000), (10, 20_591)):
        root = spectrum.roots[index]
        cfg = oracle.default_verify_config(model, root)
        nodes = oracle._radial_residual_config(model, root, cfg).points
        assert (cfg.points, nodes) == (points, 173_626)
        tracemalloc.start()
        try:
            report = oracle.verify_root(model, root, chain=chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak < 24 * 80_149, (index, peak)


class _RecordingLapack:
    """scipy.linalg as the oracle sees it, with each LAPACK routine it calls
    through ``sla.lapack`` recorded by name."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.lapack = self
        monkeypatch.setattr(oracle, "sla", self)

    def __getattr__(self, name):
        if not hasattr(sla.lapack, name):
            return getattr(sla, name)
        routine = getattr(sla.lapack, name)

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return routine(*args, **kwargs)

        return recorded


@pytest.mark.parametrize("key", DEEP_CASES)
def test_the_search_from_the_own_wavefunction_takes_at_most_two_solves(key, monkeypatch):
    """The level search factors nothing: each deep state's lowest and
    highest level take two searches, the grid's from the state's own
    wavefunction and the subgrid's from the grid's last iterate, each of
    one or two dgtsv solves, and no dgttrf or dgttrs (the inverse iteration
    from a pseudo-random start took one factorization and two solves before
    its Rayleigh steps)."""
    spectrum = solved(key)
    recorder = _RecordingLapack(monkeypatch)
    solves = []
    nearest = oracle._nearest

    def counted(*args):
        before = len(recorder.calls)
        found = nearest(*args)
        solves.append(len(recorder.calls) - before)
        return found

    monkeypatch.setattr(oracle, "_nearest", counted)
    for root in (spectrum.roots[0], spectrum.roots[-1]):
        recorder.calls.clear()
        solves.clear()
        oracle.verify_root(spectrum.model, root, chain=spectrum.chain)
        assert set(recorder.calls) == {"dgtsv"}, (root, recorder.calls)
        assert len(solves) == 2 and all(1 <= count <= 2 for count in solves), (root, solves)
