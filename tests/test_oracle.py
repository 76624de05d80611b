"""Unit tests for the independent finite-difference verifier."""

import ast
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import DEEP_CASES, solved
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
    full = models.make("dshg", 1, {"xi": 1})
    cfg = oracle.FdConfig(-5.0, 5.0, 999)
    xs = oracle.grid_nodes(full, cfg)
    assert len(xs) == 999
    assert xs[0] == pytest.approx(-5.0 + 10.0 / 1000)  # interior uniform grid
    # parity sectors: the half line i h with the full line's step, up to
    # M = points // 2; odd states start at i = 1
    cfg = oracle.FdConfig(-5.0, 5.0, 999)
    h = 10.0 / 1000
    for sector, start in (("even", 0), ("odd", 1)):
        xs = oracle.grid_nodes(_SectorWell(sector), cfg)
        assert xs.tobytes() == (h * np.arange(start, 500)).tobytes()
    even_points = oracle.grid_nodes(_SectorWell("even"), oracle.FdConfig(-5.0, 5.0, 1000))
    assert len(even_points) == 501 and even_points[-1] == 500 * (10.0 / 1001)


@pytest.mark.parametrize("box", [(-5.0, 5.5), (0.0, 5.0)])
def test_a_parity_sector_needs_a_symmetric_box(box):
    spectrum = solved("razavy")
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
# nearest-eigenvalue query against a full spectrum
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


class _RecordingQueries:
    """The oracle's eigenvalue queries, recorded in order while installed:
    its Sturm counts (``oracle._count_within``) and its bisections (its
    ``sla`` binding's ``eigvalsh_tridiagonal``)."""

    def __init__(self, monkeypatch):
        self.queries = []  # ("count", window, how many) or ("bisect", window, values)
        count_within = oracle._count_within

        def counted(diag, off, centre, radius):
            found = count_within(diag, off, centre, radius)
            self.queries.append(("count", (centre - radius, centre + radius), found))
            return found

        monkeypatch.setattr(oracle, "_count_within", counted)
        monkeypatch.setattr(oracle, "sla", self)

    def eigvalsh_tridiagonal(self, diag, off, **kwargs):
        found = sla.eigvalsh_tridiagonal(diag, off, **kwargs)
        self.queries.append(("bisect", kwargs.get("select_range"), found))
        return found

    def bisections(self):
        """The queries that bisect what they find: (window, values found)."""
        return [(window, found) for kind, window, found in self.queries if kind == "bisect"]

    def __getattr__(self, name):
        return getattr(sla, name)


def test_double_well_has_a_doublet_split_by_about_1e_10():
    spectrum = sla.eigvalsh_tridiagonal(*_double_well())
    assert 5e-11 < spectrum[1] - spectrum[0] < 2e-10
    assert np.diff(spectrum)[11:280].min() > 1.0


@pytest.mark.parametrize("where", [
    "below", "above", "midpoint", "beside-doublet-above", "beside-doublet-below",
    "inside-doublet", "isolated", "high",
])
def test_nearest_matches_the_full_spectrum(where):
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
    dist = np.sort(np.abs(spectrum - energy))
    got, ambiguous = oracle._nearest(diag, off, energy)
    # an eigenvalue, and no other lies nearer (a tie may go either way)
    assert np.abs(spectrum - got).min() <= floor
    assert abs(got - energy) <= dist[0] + floor
    if dist[1] - dist[0] > 2.0 * floor:
        assert abs(got - spectrum[np.argmin(np.abs(spectrum - energy))]) <= floor
    gap = abs(got - energy)
    assert oracle._ambiguous(diag, off, energy, gap) == (dist[1] < 2.0 * dist[0])
    assert ambiguous == (dist[1] < 2.0 * dist[0])


def test_ambiguity_is_read_both_ways():
    diag, off = _double_well()
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    # beside the 1e-10 doublet the partner sits within twice the gap
    energy = spectrum[1] + 3e-10
    assert oracle._ambiguous(diag, off, energy, abs(spectrum[1] - energy))
    # beside an isolated level it does not
    energy = spectrum[12] + 1e-4
    assert not oracle._ambiguous(diag, off, energy, abs(spectrum[12] - energy))
    assert not oracle._ambiguous(diag, off, spectrum[12], 0.0)


def test_nearest_on_an_exact_eigenvalue_returns_the_shift():
    # tridiag(-1, 2, -1) of odd order has the eigenvalue 2 exactly, and
    # elimination of T - 2 I runs in exact small integers to a zero pivot
    diag, off = np.full(201, 2.0), np.full(200, -1.0)
    assert sla.lapack.dgttrf(off.copy(), diag - 2.0, off.copy())[-1] > 0
    spectrum = sla.eigvalsh_tridiagonal(diag, off)
    assert np.abs(spectrum - 2.0).min() < 1e-14
    assert oracle._nearest(diag, off, 2.0)[0] == 2.0


def test_certificate_replaces_a_farther_eigenvalue(monkeypatch):
    """Rayleigh steps that settle on the farther of two levels are caught.

    Between two adjacent levels, inverse iteration barely separates them,
    so the Rayleigh steps settle on the level the fixed start vector weights
    more.  Put the target just on the side of the other one: the steps land
    on the farther level, and the certificate's disc must hold the nearer.
    """
    diag, off = _double_well()
    spectrum, vectors = sla.eigh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    weight = np.abs(vectors.T @ oracle._start_vector(len(diag)))
    k = next(k for k in range(12, 200) if max(weight[k], weight[k + 1])
             > 4.0 * min(weight[k], weight[k + 1]))
    near, far = (k, k + 1) if weight[k] < weight[k + 1] else (k + 1, k)
    energy = 0.5 * (spectrum[k] + spectrum[k + 1])
    energy += 1e-3 * (spectrum[near] - energy)
    recorder = _RecordingQueries(monkeypatch)
    got = oracle._nearest(diag, off, energy)[0]
    assert abs(got - spectrum[near]) <= floor
    # one bisection: its disc reached up to the farther level and held the nearer
    ((lo, hi), found), = recorder.bisections()
    assert abs(0.5 * (hi - lo) - abs(spectrum[far] - energy)) <= 2.0 * floor
    assert len(found) == 1


def test_a_nearer_level_found_by_the_certificate_is_counted_afresh(monkeypatch):
    """Start the steps on the eigenvector of the farther of two levels.

    They settle there, and the window twice that distance wide holds both
    levels; the certificate finds the nearer.  Twice its gap no longer
    reaches the farther level, so ambiguity takes a count of its own and
    comes out false.
    """
    diag, off = _double_well()
    spectrum, vectors = sla.eigh_tridiagonal(diag, off)
    floor = _floor(diag, off)
    k = 12
    energy = spectrum[k] + 0.2 * (spectrum[k + 1] - spectrum[k])
    monkeypatch.setattr(oracle, "_start_vector", lambda n: vectors[:, k + 1].copy())
    recorder = _RecordingQueries(monkeypatch)
    got, ambiguous = oracle._nearest(diag, off, energy)
    assert abs(got - spectrum[k]) <= floor
    assert not ambiguous
    count, certificate, recount = recorder.queries
    assert count[0] == "count" and count[2] == 2
    assert certificate[0] == "bisect" and len(certificate[2]) == 1
    assert recount[0] == "count" and recount[2] == 1


def test_count_within_closes_the_window_at_both_ends():
    # tridiag(-1, 2, -1) of odd order has the eigenvalue 2 exactly, and its
    # neighbours lie ~0.03 away; a window with 2 on either edge holds it
    diag, off = np.full(201, 2.0), np.full(200, -1.0)
    radius = 2.0 ** -10
    assert oracle._count_within(diag, off, 2.0 + radius, radius) == 1
    assert oracle._count_within(diag, off, 2.0 - radius, radius) == 1
    assert oracle._count_within(diag, off, 2.0 + 3.0 * radius, radius) == 0
    assert oracle._count_within(diag, off, 2.0, 0.1) == 7


def _dstebz_count(diag, off, centre, radius):
    """The count ``_count_within`` takes, by scipy's dstebz: its window
    closed below and its tolerance wider than the window."""
    lower = np.nextafter(centre - radius, -np.inf)
    return len(sla.eigvalsh_tridiagonal(
        diag, off, select="v", select_range=(lower, centre + radius), tol=4.0 * radius,
    ))


def _count_windows(diag, off, seed):
    """(centre, radius) windows: random about the lowest levels, wholly below
    and wholly above the spectrum, and with a level on either edge."""
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
    return windows


@pytest.mark.parametrize("key", ["dshg", "xie-even", "xie-odd", "coulomb"])
def test_sturm_count_is_the_dstebz_count(key):
    """The dlaebz count equals dstebz's on the coarse and refined operators
    of the deepest state of a well of each kind (full, even, odd, radial)."""
    spectrum = solved(key)
    model, root = spectrum.model, spectrum.roots[-1]
    cfg = oracle.default_verify_config(model, root)
    for seed, rows in enumerate((cfg, oracle._doubled(model, cfg))):
        diag, off = oracle._tridiag(model, root, rows)
        for centre, radius in _count_windows(diag, off, seed):
            assert oracle._count_within(diag, off, centre, radius) == _dstebz_count(
                diag, off, centre, radius), (rows.points, centre, radius)


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
        assert oracle._count_within(diag, off, centre, radius) == _dstebz_count(
            diag, off, centre, radius), (centre, radius)


def test_sturm_count_splits_where_a_diagonal_product_overflows():
    """|d_j d_(j+1)| past the float range is inf, which splits T, as in
    dstebz's own IEEE arithmetic, and raises no RuntimeWarning."""
    diag = np.array([1.0, 2.0, 3.0, 1e200, 2e200, 3e200])
    off = np.full(5, -1.0)
    for centre, radius in ((5.0, 5.0), (2e200, 1.5e200)):
        assert oracle._count_within(diag, off, centre, radius) == _dstebz_count(
            diag, off, centre, radius) == 3, (centre, radius)


def test_sturm_count_refuses_a_non_finite_operator():
    """A potential that overflows on the box raises, as dstebz's wrapper did,
    rather than passing for a count."""
    diag, off = _double_well()
    for i, bad in ((0, math.inf), (1, math.nan)):
        entries = [diag.copy(), off.copy()]
        entries[i][7] = bad
        with pytest.raises(ValueError):
            oracle._count_within(*entries, diag[20], 1.0)


def test_a_sturm_count_allocates_e_squared_alone():
    """8 bytes a row for e^2, and a few chunks; dstebz's f2py workspace
    took ~57 bytes a row beyond the inputs."""
    rows = 200_000
    diag = 2.0 + np.linspace(0.0, 1.0, rows)
    off = np.full(rows - 1, -0.4)
    tracemalloc.start()
    try:
        count = oracle._count_within(diag, off, 2.5, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == _dstebz_count(diag, off, 2.5, 0.01)
    assert peak <= 10 * rows


@pytest.mark.parametrize("seed", range(4))
def test_every_other_refined_node_is_a_coarse_node(seed):
    # h / 2 is exact, and so is 2j (h / 2) = j h before rounding
    rng = np.random.default_rng(seed)
    for _ in range(25):
        scale = 10.0 ** rng.uniform(-3, 3)
        xmin = -scale * rng.uniform(0.0, 2.0) if rng.random() < 0.8 else scale * rng.random()
        xmax = xmin + scale * rng.uniform(0.01, 3.0)
        cfg = oracle.FdConfig(xmin, xmax, int(rng.integers(100, 20_000)))
        coarse = oracle._uniform_nodes(cfg)
        fine = oracle._uniform_nodes(oracle._doubled(_QuadraticWell(), cfg))
        assert fine[1] == coarse[1] / 2.0
        assert fine[0][1::2].tobytes() == coarse[0].tobytes(), cfg
        # the half line of the symmetric box: even nodes keep [0::2], odd [1::2]
        half_width = abs(xmin) + abs(xmax)
        box = oracle.FdConfig(-half_width, half_width, cfg.points)
        for sector, kept in (("even", slice(0, None, 2)), ("odd", slice(1, None, 2))):
            model = _SectorWell(sector)
            coarse = oracle._nodes(model, box)
            fine = oracle._nodes(model, oracle._doubled(model, box))
            assert fine[1] == coarse[1] / 2.0
            assert fine[0][kept].tobytes() == coarse[0].tobytes(), (box, sector)


@pytest.mark.parametrize("key", [key for key in DEEP_CASES if key != "coulomb"])
def test_refined_operator_reuses_the_coarse_potential(key, monkeypatch):
    # the same operator as built from scratch, bit for bit, with the
    # potential taken at the new nodes alone: N + 1 on the full line, and
    # on the half line every fine node that is not a coarse one
    spectrum = solved(key)
    model = spectrum.model
    taken = []
    potential = oracle._potential

    def counted(model, xs, scan):
        taken.append(len(xs))
        return potential(model, xs, scan)

    for root in (spectrum.roots[0], spectrum.roots[-1]):
        cfg = oracle.default_verify_config(model, root)
        want = oracle._tridiag(model, root, oracle._doubled(model, cfg))
        v = oracle._potential(model, oracle.grid_nodes(model, cfg), root)
        monkeypatch.setattr(oracle, "_potential", counted)
        diag, off = oracle._refined(model, root, cfg, v)
        monkeypatch.setattr(oracle, "_potential", potential)
        assert diag.tobytes() == want[0].tobytes()
        assert off.tobytes() == want[1].tobytes()
        if key == "dshg":
            assert taken == [cfg.points + 1]
        else:
            assert taken == [len(diag) - len(v)]
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
    full = oracle._residual_full_line(_mirror(v, "even"), h, _mirror(psi, sector), 0.7)
    assert half == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("case", SECTOR_CASES[2:], ids=lambda c: f"{c[0]}-{c[1]}")
def test_half_line_residual_of_a_deep_state_is_its_full_line_residual(case):
    """The residual a deep state reports is the full-line one of its mirrored
    samples.  The residual is the small difference of large stencil terms,
    so rounding moves it by up to ~1e-4 of itself (measured: 4e-6 to 8e-5)."""
    model, root, energy, cfg, chain = _sector_case(case)
    xs, h = oracle._nodes(model, cfg)
    psi = wavefunctions.sample(model, root, xs=xs, chain=chain).psi
    half = oracle._residual_half_line(
        oracle._potential(model, xs, root), h, psi, energy, model.parity
    )
    v = oracle._potential(model, h * np.arange(cfg.points // 2 + 1), root)
    full = oracle._residual_full_line(
        _mirror(v, "even"), h, _mirror(psi, model.parity), energy
    )
    assert oracle.verify_root(model, root, chain=chain).residual == half
    assert half == pytest.approx(full, rel=1e-3)


def test_pdshg_20_root_5_reports_the_level_of_its_own_parity():
    """pdshg-20's root 5 is even.  On the mirrored full line its FD doublet
    puts the odd level 7.6e-5 above the energy and the even one 9.8e-5
    below; the full-line oracle reported the odd one.  The half line holds
    the even level alone, and nothing else within twice its gap."""
    model, root, energy, cfg, chain = _sector_case(("pdshg-20", 5))
    assert model.parity == "even"
    report = oracle.verify_root(model, root, chain=chain)
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
def test_convergence_decision_matches_the_refined_nearest_eigenvalue(key, index, offset):
    """The Sturm count decides as the nearest eigenvalue of the refined grid did.

    The reference solves the grid with half the step for its nearest
    eigenvalue gap2 and applies the old rule 3 gap2 <= gap or gap2 <= floor.
    No case puts gap2 within 8 eps max|off| of the edge of the window, so
    rounding decides none of them.  That is the rounding scale of both
    computations: near the state the entries are ~1/h^2 = max|off|.  The
    norm of the matrix is not: the wall potential dominates it (razavy's
    highest state lies 1.1 eps ||T|| from the edge), and no state sees the
    walls.
    """
    if key == "dshg-0":
        spectrum = solve(models.make("dshg", 0, {"xi": 1}))
    else:
        spectrum = solved(key)
    model, root = spectrum.model, spectrum.roots[index]
    energy = model.energy(root) + offset
    report = oracle.verify_root(model, root, energy=energy, chain=spectrum.chain)

    cfg = oracle.default_verify_config(model, root)
    diag, off = oracle._tridiag(model, root, oracle._doubled(model, cfg))
    gap2 = abs(oracle._nearest(diag, off, energy)[0] - energy)
    floor = oracle._GAP_FLOOR * max(1.0, abs(energy))
    old = gap2 * oracle._SHRINK <= report.abs_gap or gap2 <= floor
    assert report.converged == old
    assert report.converged == (offset == 0.0)
    reach = max(report.abs_gap / oracle._SHRINK, floor)
    assert abs(gap2 - reach) > 8.0 * np.finfo(float).eps * np.abs(off).max()


@pytest.mark.parametrize("t", [0.45, 0.55])
def test_convergence_threshold_is_a_third_of_the_gap(t):
    # E = lam2 + t (lam2 - lam1) puts the coarse level lam1 at (1 + t) / t
    # times the distance of the refined level lam2: 3.2 and 2.8
    model = models.make("dshg", 0, {"xi": 1})
    spectrum = solve(model)
    root = spectrum.roots[0]
    cfg = oracle.FdConfig(-7.0, 7.0, 999)
    target = model.energy(root)
    lam1, lam2 = (
        oracle._nearest(*oracle._tridiag(model, root, grid), target)[0]
        for grid in (cfg, oracle._doubled(model, cfg))
    )
    energy = lam2 + t * (lam2 - lam1)
    report = oracle.verify_root(model, root, energy=energy, cfg=cfg, chain=spectrum.chain)
    assert report.abs_gap == pytest.approx((1.0 + t) * abs(lam2 - lam1), rel=1e-6)
    assert abs(lam2 - lam1) > 1e3 * oracle._GAP_FLOOR
    assert report.converged == (t < 0.5)


def test_verify_root_solves_one_grid(monkeypatch):
    """One nearest-eigenvalue solve, on the coarse grid; the refined one is counted."""
    sizes = []
    nearest = oracle._nearest

    def counted(diag, off, energy):
        sizes.append(len(diag))
        return nearest(diag, off, energy)

    monkeypatch.setattr(oracle, "_nearest", counted)
    for model, root in (
        (models.make("coulomb", 1, {"lambda": Fraction(1, 2)}), 1.0),
        (solved("dshg").model, solved("dshg").roots[0]),
    ):
        del sizes[:]
        report = oracle.verify_root(model, root)
        assert report.converged
        assert sizes == [oracle.default_verify_config(model, root).points]


@pytest.mark.parametrize(
    "key,index", [(key, i) for key in DEEP_CASES for i in (0, -1)] + [("pdshg-20", 5)]
)
def test_verify_root_takes_two_queries_unless_ambiguous(key, index, monkeypatch):
    """One Sturm count certifies a state alone within twice its gap and
    says it is not ambiguous; convergence takes one more.  An ambiguous
    state takes the three queries every state took before: the count, the
    certificate and the convergence count.  No parity-sector state is
    ambiguous: its half line holds no level of the other parity, not even
    at pdshg-20's root 5, whose full-line certificate replaced the estimate
    (see below)."""
    spectrum = solved(key)
    model = spectrum.model
    recorder = _RecordingQueries(monkeypatch)
    report = oracle.verify_root(model, spectrum.roots[index], chain=spectrum.chain)
    assert len(recorder.queries) == (3 if report.ambiguous else 2)
    if oracle._kind(model) in ("even", "odd"):
        assert not report.ambiguous


def test_a_certified_level_inside_the_count_keeps_the_count(monkeypatch):
    """On the full line, which holds both parities, pdshg-20's root 5 sits
    between two FD levels ~1e-4 away, and the Rayleigh steps settle on the
    farther.  The certificate finds the nearer, and twice its gap still
    holds the farther: ambiguous, with no recount.  The oracle checks this
    sector on the half line; the full-line matrix is built here, on the
    interior nodes of the default box."""
    spectrum = solved("pdshg-20")
    model, root = spectrum.model, spectrum.roots[5]
    energy = model.energy(root)
    cfg = oracle.default_verify_config(model, root)
    h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
    xs = cfg.xmin + h * np.arange(1, cfg.points + 1)
    diag = 2.0 / (h * h) + model.potential(xs, root)
    off = np.full(cfg.points - 1, -1.0 / (h * h))
    near = sla.eigvalsh_tridiagonal(
        diag, off, select="v", select_range=(energy - 1e-3, energy + 1e-3)
    )
    dist = np.sort(np.abs(near - energy))
    assert len(near) == 2 and dist[1] < 2.0 * dist[0]
    recorder = _RecordingQueries(monkeypatch)
    got, ambiguous = oracle._nearest(diag, off, energy)
    assert abs(got - near[np.argmin(np.abs(near - energy))]) <= _floor(diag, off)
    assert ambiguous
    (_, found), = recorder.bisections()
    assert len(found) == 1
    assert len(recorder.queries) == 2


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


def test_radial_residual_mesh_tracks_the_coulomb_core():
    # stronger Coulomb coupling contracts the core scale and the residual
    # mesh must refine accordingly
    model = models.make("coulomb", 10, {"lambda": Fraction(1, 2)})
    cfg = oracle.default_verify_config(model, 24.85)
    weak = oracle._radial_residual_config(model, 3.5, cfg)
    strong = oracle._radial_residual_config(model, 24.85, cfg)
    assert strong.points > weak.points
    assert strong.points <= 900_000


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
    """xie-odd root 10 verifies on 325,427 points: the half line's 162,713
    coarse nodes and 325,427 refined ones.

    The coarse grid's arrays are freed before the refined grid is built, the
    Sturm counts allocate e^2 alone (8 bytes a row), and the 80-bit Horner
    runs in blocks, so the peak, ~38 bytes a point, is the refined operator's
    build.  With dstebz's zero-filled count workspace it was ~76 bytes a point.
    """
    spectrum = solved("xie-odd")
    model, chain, root = spectrum.model, spectrum.chain, spectrum.roots[10]
    points = oracle.default_verify_config(model, root).points
    assert points == 325_427
    tracemalloc.start()
    try:
        report = oracle.verify_root(model, root, chain=chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 45 * points
