"""Acceptance suite: one test per shipping criterion, frozen reference data.

Each test prints one pass/fail line under ``pytest -v``.  Reference spectra
are frozen to the published precision of the corresponding potentials;
comparisons are relative unless a root is exactly zero.
"""

import hashlib
import os
import struct
import subprocess
import sys
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import (
    DEEP_CASES,
    GAP_MARGIN,
    as_fractions,
    certified_roots,
    exact_root,
    relative_ode_residual,
)
from qespectra import models, oracle, recurrence, solve, wavefunctions
from qespectra.errors import NonPositiveLambda

# ---------------------------------------------------------------------------
# frozen reference spectra
# ---------------------------------------------------------------------------

XIE_EVEN_V3 = [
    50.6499, 62.9912, 85.016, 117.499, 158.65, 208.126,
    265.78, 331.54, 405.368, 487.239, 577.141,
]
XIE_ODD_V3 = [
    38.8277, 58.8256, 83.2712, 116.335, 157.819, 207.504,
    265.299, 331.158, 405.056, 486.981, 576.924,
]
CHEN_EVEN_V2 = [
    -378.075, -346.334, -325.892, -306.113,
    -272.536, -228.953, -176.075, -114.078,
]
CHEN_ODD_V2 = [
    -374.929, -342.812, -316.597, -287.269,
    -248.489, -200.236, -142.792, -76.2691,
]
COULOMB_BETA = [
    -24.8502, -18.676, -13.0012, -7.89603, -3.50671, 0.0,
    3.50671, 7.89603, 13.0012, 18.676, 24.8502,
]
RAZAVY_E = [
    -441.066, -361.073, -289.084, -225.099, -169.121, -121.157,
    -81.2206, -49.3476, -25.6452, -9.23983, 6.55323,
]
DSHG_E = [
    22.59494691, 22.59496818, 61.34425227, 61.35805469,
    89.87448537, 91.28081517, 106.4782162, 117.0076415,
    131.6165721, 147.9807662, 166.0915272, 185.7777543,
]
PDSHG_20_E = [
    48.5067, 140.039, 223.425, 298.596, 365.435, 423.725,
    472.987, 511.035, 534.418, 566.233, 609.075, 658.526,
]
PDSHG_21_E = [
    50.5262, 146.083, 233.507, 312.742, 383.69, 446.18,
    499.874, 544.126, 580.222, 617.352, 661.546, 712.152,
]


def assert_spectrum(got, want, rtol, zero_abs=1e-10):
    __tracebackhide__ = True
    assert len(got) == len(want), f"expected {len(want)} roots, got {len(got)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if w == 0.0:
            assert abs(g) < zero_abs, f"root {i}: {g!r} should be 0"
        else:
            rel = abs(g - w) / abs(w)
            assert rel <= rtol, f"root {i}: {g!r} vs {w!r} (rel {rel:.3g})"


# ---------------------------------------------------------------------------
# criteria 1-8: algebraic spectra against frozen references
# ---------------------------------------------------------------------------

def test_01_deep_even_sech_well_spectrum_and_baseline(deep):
    spectrum = deep("xie-even")
    assert_spectrum(spectrum.roots, XIE_EVEN_V3, rtol=1e-4)
    name, value = spectrum.model.baseline()
    assert name == "sqrt_minus_E" and value == 3


def test_02_deep_odd_sech_well_spectrum_and_baseline(deep):
    spectrum = deep("xie-odd")
    assert_spectrum(spectrum.roots, XIE_ODD_V3, rtol=1e-4)
    name, value = spectrum.model.baseline()
    assert name == "sqrt_minus_E" and value == 2


def test_03_rational_cosh_well_both_parities(deep):
    assert_spectrum(deep("chen-even").roots, CHEN_EVEN_V2, rtol=1e-4)
    assert_spectrum(deep("chen-odd").roots, CHEN_ODD_V2, rtol=1e-4)


def test_04_coulomb_oscillator_spectrum_antisymmetric(deep):
    roots = deep("coulomb").roots
    assert_spectrum(roots, COULOMB_BETA, rtol=1e-4)
    xs = np.asarray(roots)
    np.testing.assert_allclose(xs, -xs[::-1], atol=1e-10)
    assert abs(xs[len(xs) // 2]) < 1e-10


def test_05_deep_hyperbolic_double_well_spectrum(deep):
    assert_spectrum(deep("razavy").roots, RAZAVY_E, rtol=1e-4)


def test_06_shifted_gauss_well_dense_spectrum_with_doublets(deep):
    assert_spectrum(deep("dshg").roots, DSHG_E, rtol=1e-8)


def test_07_perturbed_gauss_well_both_parities(deep):
    assert_spectrum(deep("pdshg-20").roots, PDSHG_20_E, rtol=1e-4)
    assert_spectrum(deep("pdshg-21").roots, PDSHG_21_E, rtol=1e-4)


def test_08_parity_pair_union_rebuilds_unperturbed_spectrum():
    even = solve(models.make(
        "perturbed-dshg", n=5, params={"xi": 2, "alpha": 1, "beta": 0}
    )).roots
    odd = solve(models.make(
        "perturbed-dshg", n=5, params={"xi": 2, "alpha": 0, "beta": 1}
    )).roots
    assert len(even) == 6 and len(odd) == 6
    union = sorted(list(even) + list(odd))
    assert_spectrum(union, DSHG_E, rtol=1e-7)
    # levels strictly interlace, lowest state in the even chain
    merged = sorted(
        [(r, "even") for r in even] + [(r, "odd") for r in odd]
    )
    labels = [label for _, label in merged]
    assert labels == ["even", "odd"] * 6


# ---------------------------------------------------------------------------
# criterion 9: independent finite-difference verification of every root
# ---------------------------------------------------------------------------

# sha256 over repr(astuple(report)) of the 96 deep reports, in DEEP_CASES
# and root order: every float, flag and node count the verify layer emits.
# Re-pinned when the parity sectors came to be checked on the half line
# (test_oracle.py: test_half_line_levels_are_the_full_line_levels_of_one_parity
# and test_pdshg_20_root_5_reports_the_level_of_its_own_parity); the coulomb
# and dshg reports, whose operators did not change, kept their own digests,
# over their reports alone.  All three were re-pinned again when the search
# for the nearest level came to start from the state's own wavefunction;
# test_the_own_wavefunction_start_moves_only_the_nearest_level_within_the_floor
# stands behind that move.  The whole digest and dshg's were re-pinned when
# each state came to be paired with the FD level of its own node index:
# dshg's roots 0 and 1 moved, to levels 0 and 1, where both had read
# level 1; test_every_fd_energy_is_the_level_of_the_state_s_node_index
# stands behind that move.  The whole digest and dshg's were re-pinned
# again when dshg came to be checked on the half line of its node count's
# parity: every dshg report moved (its box is the mirrored nodes +-i h, and
# its residual is that of its projection onto one parity), no other did,
# and the same test stands behind the move, with
# test_oracle.py's test_a_dshg_state_reports_the_full_line_residual_of_its_projection
# (deleted with the projection, when dshg's states moved to its sectors).
# The whole digest and coulomb's (once
# 90daa13a4eb13d98ffee626123cb8c0e49b491d8c66919ca2710e23bbf8d5b77 and
# 5bbc8aa1c2c853fb0b4469c339aa9079c67fa759843820f81f7e88f0da9f8c30) were
# re-pinned when the oracle came to sample psi as a product over the
# certified zeros of S: every report but dshg's moved in its residual's
# digits, and in its level's within the rounding floor; test_wavefunctions.py's
# test_the_product_is_as_near_exact_as_the_horner_on_the_oracle_nodes stands
# behind that move, with the level test below.  All three were re-pinned
# (once 7464a32ffe71ee94a8bf4ce9931e58dacdea4a9de2ae0fb79d32df71d4ac1883,
# 3ecde983c44b9f3446834e33553bf9b9a637d2f2fc7ecbf91ead34cb1424e925 and
# aaf0a92e4439b4c286f5f1be631de973b8d737246eef212009e7de187d70f6c3) when
# convergence came to be attested by Richardson's rule on the subgrid, which
# added three fields, and the oracle's sums of squares left BLAS, which moved
# the last digits of levels and residuals: the extrapolation_error gate below
# and test_deep_reports_do_not_depend_on_the_blas_thread_count stand behind
# that move.  All three were re-pinned (once
# 8fe3aef6bc0792c5fb669df19f2add8cf797552bbce9c2ffa15728a349e45cec,
# 15a66950c030b9ef435a7919d7fb3541ae9ff0c3b8496ef63d70627c8152472c and
# 67c0042c2694d49b3f0b7f974c6b181ffd910a90470bc60d84da42f7cbab522f) when the
# default step grew from 0.07 to 0.091 / max(1, E - min V), which moved
# every report on a grid past the 4,000-point floor; the gates below and
# test_the_default_grid_keeps_a_margin_under_the_gap_gate stand behind that
# move.  The whole digest and dshg's (once
# e9595f3a76f43991c8769a004392f59253ef2c199f78bb4125a7a784ad92deb4 and
# 7d2e75513d6cf29da8124d696920adccd71d60a999649c0c05d3fab3aa3ebce4) were
# re-pinned when each line grid came to be sized from the gap its state's
# own psi predicts, h^2 <(V - E)^2> / 12 = 3e-4, which moved every line
# report on a grid past the 4,000-point floor; coulomb's grids, whose rule
# did not change, kept its digest.  The same gates and test stand behind
# that move.  The whole digest and coulomb's (once
# 80d806cb7e03ba4c740dd9ecea654b2ba21aaaf9142a4b6cb04d5e834a482fa2 and
# 5d6267bc821ba10386e3f70967227d81fdabd657e509c25101875f398c3b1afe) were
# re-pinned when every root came to be certified and correctly rounded,
# which moved the roots, and so the reports, that the float polish had
# left 1 ulp off; test_12, now at 0 ulp, stands behind that move.  The
# whole digest and coulomb's (once
# aebc4fb81792fd59a98bfa8d9df1922ff64c3c10c0271581f653c89305520ee5 and
# 25a45d4844c2cb13982805d3a18205f49f485a22ba5dc2a17a6d485aa4ab85fe) were
# re-pinned when coulomb's psi came to be sampled on the operator's nodes
# alone, and its residual to evaluate psi on its own mesh a block at a
# time; test_the_residual_in_blocks_moves_coulomb_only_by_rounding stands
# behind that move.  The whole digest and dshg's (once
# b1fb72bd7e40cf23da6868d364e04a64911b60f386f195c4b42b60819007d076 and
# 21b26a3159c828f99cc76c685e3f1c2902be6a5a9b87e5b168874a72a6cd1f72) were
# re-pinned when each dshg state came to be its parity sector's, sampled
# as a product over the certified zeros of the sector's S on the same grid
# and operator, where dshg's own psi was projected onto one parity: each
# level moved within the rounding floor, and each residual in its noise
# (at most 1.2e-7); test_wavefunctions.py's
# test_a_dshg_state_is_its_sector_state stands behind that move.
VERIFY_REPORTS_SHA256 = "c49f1226e9b12a90265581ccbc622ae8033fcba7677c81f1b9c870716c89c1b9"
UNCHANGED_REPORTS_SHA256 = {
    "coulomb": "14780fad92bec9e0f67beec845ae0c5668b3246c3147d9c17306b4b54e88bf62",
    "dshg": "2222b4789b032e313d9e61153ba29313b39bcd5928c1b0f3354f22c14b39cfc6",
}


def test_09_every_root_survives_fd_verification(deep):
    failures = []
    digest = hashlib.sha256()
    unchanged = {}
    for key in DEEP_CASES:
        spectrum = deep(key)
        own = hashlib.sha256()
        for index, (root, (model, chain)) in enumerate(zip(spectrum.roots, spectrum.states)):
            report = oracle.verify_root(model, root, chain=chain)
            digest.update(repr(astuple(report)).encode())
            own.update(repr(astuple(report)).encode())
            ok = (
                report.abs_gap < 1e-3
                and report.residual < 1e-4
                and report.converged
                and report.extrapolation_error
                <= 0.1 * abs(report.nearest_fd_energy - report.subgrid_fd_energy)
            )
            # a half line holds no level of the other parity
            if report.ambiguous:
                failures.append(f"{key}[{index}] is ambiguous")
            if not ok:
                failures.append(
                    f"{key}[{index}] root={root:.6g}: gap={report.abs_gap:.3g} "
                    f"residual={report.residual:.3g} "
                    f"converged={report.converged} "
                    f"extrapolation_error={report.extrapolation_error:.3g}"
                )
        if key in UNCHANGED_REPORTS_SHA256:
            unchanged[key] = own.hexdigest()
    assert not failures, "\n".join(failures)
    assert unchanged == UNCHANGED_REPORTS_SHA256
    assert digest.hexdigest() == VERIFY_REPORTS_SHA256


# The 96 deep default grids: their points in total and the largest (xie-odd's
# root 10), each line grid at the step whose predicted gap h^2 <(V - E)^2> / 12
# is 3e-4.  At the step 0.091 / max(1, E - min V) they held 4,279,483 points
# and the largest 250,329; at 0.07 / max(1, E - min V), before Richardson's
# extrapolation on the subgrid came to attest convergence, 5,548,607 and
# 325,427.
DEEP_GRID_POINTS = (2_460_360, 80_149)


def test_the_default_grid_keeps_a_margin_under_the_gap_gate(deep):
    """Each line grid is sized for the gap its state's own psi predicts,
    3e-4, and the grids keep a margin: the 96 deep states' worst abs_gap,
    3.0e-4 (5.1e-4 at the step 0.091 / max(1, E - min V)), is at most
    GAP_MARGIN.  test_09 holds every other gate on the same reports.

    The prediction holds: on each of the 85 line states the level lies
    below the energy by h^2 m2 / 12, m2 = sum psi^2 (V - E)^2 / sum psi^2
    over the default sampling grid, to 1e-3 of itself (2e-4 measured),
    at the grid's own step, on the 4,000-point floor too."""
    points, worst = [], 0.0
    for key in DEEP_CASES:
        spectrum = deep(key)
        for root, (model, chain) in zip(spectrum.roots, spectrum.states):
            cfg = oracle.default_verify_config(model, root)
            points.append(cfg.points)
            report = oracle.verify_root(model, root, chain=chain)
            worst = max(worst, report.abs_gap)
            if oracle._kind(model) == "radial":
                continue
            state = wavefunctions.sample(model, root, chain=chain)
            force = (model.potential(state.xs, root) - report.algebraic_energy) * state.psi
            m2 = np.sum(force ** 2) / np.sum(state.psi ** 2)
            h = (cfg.xmax - cfg.xmin) / (cfg.points + 1)
            predicted = -h * h * m2 / 12.0
            gap = report.nearest_fd_energy - report.algebraic_energy
            assert gap == pytest.approx(predicted, rel=1e-3), (key, root)
    assert (sum(points), max(points)) == DEEP_GRID_POINTS
    assert worst <= GAP_MARGIN


def test_every_fd_energy_is_the_level_of_the_state_s_node_index(deep):
    """Each of the 96 deep reports gives level k of its coarse operator,
    k the state's node index (on a parity sector's half line, c of
    node_count = 2c or 2c + 1), within the rounding floor 8 eps ||T||, as
    a bisection for that level alone finds it.  So dshg's lowest doublet,
    whose two roots both read level 1 while the oracle took the level
    nearest the energy, reads level 0 of each sector, node counts 0 and 1,
    and dshg's node counts run 0..11."""
    eps = np.finfo(float).eps
    for key in DEEP_CASES:
        spectrum = deep(key)
        counts = []
        for index, (root, (model, chain)) in enumerate(zip(spectrum.roots, spectrum.states)):
            report = oracle.verify_root(model, root, chain=chain)
            sector = oracle._kind(model) in ("even", "odd")
            level = report.node_count // 2 if sector else report.node_count
            diag, off = oracle._tridiag(model, root, oracle.default_verify_config(model, root))
            want = sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(level, level))[0]
            floor = 8.0 * eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())
            assert abs(report.nearest_fd_energy - want) <= floor, (key, index)
            counts.append(report.node_count)
        if key == "dshg":
            assert counts == list(range(len(spectrum.roots)))


_DEEP_REPORTS = """
from dataclasses import astuple
from conftest import DEEP_CASES, solved
from qespectra import oracle
for key in DEEP_CASES:
    spectrum = solved(key)
    for root, (model, chain) in zip(spectrum.roots, spectrum.states):
        print(repr(astuple(oracle.verify_root(model, root, chain=chain))))
"""


def test_deep_reports_do_not_depend_on_the_blas_thread_count():
    """The 96 deep reports, every field, are the same bytes at one BLAS
    thread and at two: the oracle takes no sum through BLAS, whose order
    follows the thread count (see oracle._sum_squares)."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _DEEP_REPORTS], env=env,
                              capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 96
    assert outputs[0] == outputs[1]


# The 96 deep reports as the oracle gave them while its search for the
# nearest level started with inverse iteration from a pseudo-random vector:
# their digest, as VERIFY_REPORTS_SHA256 above, and each nearest_fd_energy,
# in the same order.  dshg's root 0 read its partner's level there,
# 22.594741176390073; its entry, and so the digest (once
# cf7b89f0d25f4a9b2d7b6e92eecbdb502e6b0a770acab2600717cad35107a60a), were
# re-pinned to its own level 0 when each state came to be paired with the
# level of its node index (see the test above).  dshg's entries, and so
# the digest (once 1e200ea365122f2762fc717661e5b3cb98fb125fa85cfd059becac988266f66f),
# were re-pinned to its half-line levels when dshg left the full line.  The
# digest (once 29925f9f7e977d2a6f044f9be97c91ea979954ffa9f4a935346bd73173d681f9)
# was re-pinned when psi came to be sampled as a product over the zeros of
# S, which moved the residuals (see VERIFY_REPORTS_SHA256), and again (once
# 8f9f0101971aa0fc2a26ca76f35708311e19bcf9712b8e153ce9cc9095403f9c) with
# VERIFY_REPORTS_SHA256 when the subgrid's fields came, and again (once
# 023fa571c8016f9bbdd3577077f744fa87fc746f5643b3b340233105790572ad) with
# it when the roots came to be certified and correctly rounded, and again
# (once 88aa461d98b1d255331dc680eb62a67821e8a87b7e77a96a3006351e78f362ee)
# with it when coulomb's residual came to run in blocks on its own mesh,
# and again (once
# 993d440e3ef2c3b243c3a83c1514cfcd3c8a3187db6970dc3f8e56b4d08f7f37) with it
# when each dshg state came to be its parity sector's; every entry below
# holds unedited.
INVERSE_ITERATION_REPORTS_SHA256 = (
    "c7bb628103ceec0bdd330d0b310942ce3f17c9fcb97759d5542e9ab4ef84b299"
)
INVERSE_ITERATION_NEAREST = {
    "xie-even": (
        -9.000050603850672, -9.000132615423054, -9.000131336589044, -9.000084352486537,
        -9.00006305297312, -9.000051044186419, -9.000043136242772, -9.000037467808777,
        -9.000033172339291, -9.000029796598843, -9.000027053837774,
    ),
    "xie-odd": (
        -4.000069890736136, -4.000118109628803, -4.000094561314455, -4.000059534477216,
        -4.0000436864665, -4.000034981568579, -4.000029359623223, -4.000025381150938,
        -4.000022397591273, -4.000020071719354, -4.000018200597621,
    ),
    "chen-even": (
        -4.066238369188171, -4.06623104785961, -4.066215247427143, -4.066227136898363,
        -4.06623404865681, -4.066243447533094, -4.06626498822267, -4.066285093805914,
    ),
    "chen-odd": (
        -1.033259566580304, -1.033256955500955, -1.0332546176474087,
        -1.0332563957112693, -1.0332599409345709, -1.033267264845277,
        -1.0332867386392977, -1.0333490944500476,
    ),
    "coulomb": (
        10.99999892712087, 10.999994432496472, 10.999984975542269, 10.999969977335054,
        10.999948569163296, 10.999910324350388, 10.9999575303371, 10.999979249508831,
        10.99998834460698, 10.99999283336995, 10.999995336532335,
    ),
    "razavy": (
        -441.0659265131615, -361.0734199482508, -289.08390337105135,
        -225.09889805966301, -169.12140459307318, -121.15744592261672,
        -81.22063358252025, -49.347660781292134, -25.64519893031809, -9.239865558411301,
        6.553191804642754,
    ),
    "dshg": (
        22.594720450651433, 22.59474171858043, 61.34411476075833, 61.35791701095535,
        89.87440078926942, 91.28071130721982, 106.47814251784035, 117.0075249960429,
        131.61643632181676, 147.98060987061928, 166.09135310308113, 185.7775645985242,
    ),
    "pdshg-20": (
        48.506437909633284, 140.0386084006315, 223.42466270358068, 298.5957701442295,
        365.43480282576076, 423.72478072633817, 472.98683719336316, 511.0352423220863,
        534.4178849601942, 566.2333344570794, 609.0747397101889, 658.5255015331453,
    ),
    "pdshg-21": (
        50.5259245569975, 146.08241715648887, 233.50724309829334, 312.7419670259024,
        383.69003341338276, 446.180153004197, 499.87420639854406, 544.1262771197887,
        580.2215443542491, 617.3518440093214, 661.5454797295945, 712.1514688116383,
    ),
}


# The table above was recorded on the default grids of the step
# HISTORY_H_SCALE / max(1, E - min V), in the default box.  The test below
# builds those grids itself, as explicit FdConfigs, and verifies each state
# on its grid as on a default one, coulomb's residual mesh included,
# whatever the default step.  dshg's states, checked in their sectors since,
# keep their grids: at n = 11 each sector's default box is dshg's, bit for
# bit, and its potential is dshg's.
HISTORY_H_SCALE = 0.07


def _history_config(model, root):
    """The grid of the step HISTORY_H_SCALE / max(1, E - min V), with min V
    taken on a probe of the default box, as the default rule once took it."""
    xmin, xmax = oracle.default_box(model)
    probe = np.linspace(0.3, xmax, 1500) if xmin == 0.0 else np.linspace(xmin, xmax, 3001)
    h = HISTORY_H_SCALE / max(1.0, model.energy(root) - float(np.min(model.potential(probe, root))))
    return oracle.FdConfig(xmin, xmax, int(np.clip((xmax - xmin) / h, 4000, 900_000)))


def test_the_own_wavefunction_start_moves_only_the_nearest_level_within_the_floor(
        deep, monkeypatch):
    """Every nearest_fd_energy lies within the rounding floor 8 eps ||T|| of
    the coarse operator of its value from the pseudo-random start, and
    writing that value back, with its gap and its Richardson extrapolation
    from the subgrid's level, restores every report: no other field moved.
    Each state's historical grid stands in for its default one, so that
    coulomb's residual takes its own mesh, as it did."""
    monkeypatch.setattr(oracle, "_default_config",
                        lambda model, root, s: _history_config(model, root))
    eps = np.finfo(float).eps
    digest = hashlib.sha256()
    for key in DEEP_CASES:
        spectrum = deep(key)
        assert len(INVERSE_ITERATION_NEAREST[key]) == len(spectrum.roots), key
        for root, (model, chain), old in zip(
                spectrum.roots, spectrum.states, INVERSE_ITERATION_NEAREST[key]):
            report = oracle.verify_root(model, root, chain=chain)
            diag, off = oracle._tridiag(model, root, _history_config(model, root))
            floor = 8.0 * eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())
            assert abs(report.nearest_fd_energy - old) <= floor, (key, root)
            richardson = old + (old - report.subgrid_fd_energy) / 3.0
            report = replace(
                report, nearest_fd_energy=old, abs_gap=abs(old - report.algebraic_energy),
                richardson_energy=richardson,
                extrapolation_error=abs(richardson - report.algebraic_energy),
            )
            digest.update(repr(astuple(report)).encode())
    assert digest.hexdigest() == INVERSE_ITERATION_REPORTS_SHA256


# The deep coulomb reports while psi was sampled on the residual's own mesh,
# normalized there, and interpolated onto the operator's nodes to start the
# level search: (nearest_fd_energy, subgrid_fd_energy, residual), in root
# order.
MESH_SAMPLED_COULOMB = (
    (10.99999892712593, 10.999995708477503, 9.903942634504149e-08),
    (10.999994432495882, 10.99997772981713, 6.241359027298005e-08),
    (10.99998497554127, 10.999939901530315, 4.3020886702356545e-08),
    (10.999969977333738, 10.999879907588927, 2.1250959875934833e-08),
    (10.999948569164475, 10.999794273124284, 6.838636225644473e-09),
    (10.99991032435558, 10.99964128857371, 4.475299356774886e-08),
    (10.999928230194259, 10.999712917755716, 7.829283915092466e-09),
    (10.999964931035237, 10.999859723990346, 2.7851827050564067e-08),
    (10.999980303179624, 10.999921212957334, 6.279131455260976e-08),
    (10.999987888295438, 10.999951553053524, 1.1237383439080168e-07),
    (10.999992119525603, 10.999968478136427, 2.0938276908462952e-07),
)


def test_the_residual_in_blocks_moves_coulomb_only_by_rounding(deep):
    """coulomb's psi is sampled on the operator's nodes alone, and its
    residual evaluates psi on its own mesh a block at a time, at the scale
    of psi's norm on the operator's nodes.  Each report keeps its node
    count, its root index; each level lies within the rounding floor
    8 eps ||T|| of its operator of the value above, on the grid and on the
    subgrid; and each residual within 5% of its value above (0.2% measured),
    under the 1e-4 gate.  Past its third digit a residual on this mesh reads
    rounding noise: a new scale or order of summation moves it there."""
    spectrum = deep("coulomb")
    model = spectrum.model
    eps = np.finfo(float).eps
    assert len(MESH_SAMPLED_COULOMB) == len(spectrum.roots)
    for index, (root, old) in enumerate(zip(spectrum.roots, MESH_SAMPLED_COULOMB)):
        report = oracle.verify_root(model, root, chain=spectrum.chain)
        cfg = oracle.default_verify_config(model, root)
        operators = (oracle._tridiag(model, root, cfg), oracle._tridiag_radial(
            model, root, cfg, *oracle._offset_nodes(cfg, 0, cfg.points // 2, 2)))
        levels = (report.nearest_fd_energy, report.subgrid_fd_energy)
        for level, was, (diag, off) in zip(levels, old, operators):
            floor = 8.0 * eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())
            assert abs(level - was) <= floor, (index, level, was)
        assert report.node_count == index
        assert abs(report.residual / old[2] - 1.0) <= 0.05, (index, report.residual, old[2])
        assert report.residual < 1e-4


# ---------------------------------------------------------------------------
# criterion 10: invariant sweep over the deep cases
# ---------------------------------------------------------------------------

TABLE_PARAMS = {
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


def test_10_invariant_sweep(deep):
    # (a) positive chain products and (b) real simple ascending roots,
    # (c) assembled solutions solve the equation, (d) the roots are
    # certified against the exact constraint, all across the deep cases
    for key in DEEP_CASES:
        spectrum = deep(key)
        model = spectrum.model
        assert all(lam > 0 for lam in spectrum.ttrr.lam), key
        xs = np.asarray(spectrum.roots)
        assert len(xs) == model.n + 1, key
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0), key

        system = recurrence.build_baseline(model)
        for root in spectrum.roots:
            ode = model.ode_coefficients(root)
            solution = [float(c) for c in recurrence.exact_solution(system, root)]
            residual = relative_ode_residual(ode, solution)
            assert residual < 1e-10, f"{key} root {root}: residual {residual:.3g}"

        exact = [float(x) for x in certified_roots(spectrum.chain, spectrum.roots)]
        span = max(1.0, float(xs[-1] - xs[0]))
        np.testing.assert_allclose(exact, xs, rtol=1e-9, atol=1e-9 * span, err_msg=key)

    # (f) the baseline system's table at centre 0, carried to a probe scan
    # value, gives the multiplicators of the model's own ODE table there
    for model_id, params in TABLE_PARAMS.items():
        model = models.make(model_id, n=6, params=params)
        system = recurrence.build_baseline(model)
        table = system.centres[0][1]
        for probe in (Fraction(-3, 2), Fraction(7, 3)):
            ode = model.ode_coefficients(probe)
            for k in range(0, 9):
                f1, f0, fm1 = table.multiplicators(k)
                assert (f1, f0 + system.sigma0 * probe, fm1) == (
                    ode.multiplicators(k)
                ), (model_id, k)


# ---------------------------------------------------------------------------
# criterion 11: the sinh^2 coordinate variants reproduce the cosh^2 spectra
# ---------------------------------------------------------------------------

def test_11_sinh2_variants_reproduce_cosh2_spectra(deep):
    pairs = [
        ("razavy", models.make(
            "razavy-sinh2", n=10,
            params={"xi": Fraction(1, 2), "alpha": 0, "beta": 1},
        )),
        ("pdshg-20", models.make(
            "perturbed-dshg-sinh2", n=11,
            params={"xi": 2, "alpha": 2, "beta": 0},
        )),
        ("pdshg-21", models.make(
            "perturbed-dshg-sinh2", n=11,
            params={"xi": 2, "alpha": 2, "beta": 1},
        )),
    ]
    for key, variant_model in pairs:
        np.testing.assert_allclose(
            np.asarray(solve(variant_model).roots), np.asarray(deep(key).roots),
            rtol=1e-8, err_msg=key,
        )

    # the sinh^2 chain is the cosh^2 chain re-centred at z = 1, so the two
    # exact monic constraints are one polynomial at every chain length
    def monic(model):
        chain = recurrence.exact_chain(recurrence.build_baseline(model))
        constraint = as_fractions(chain.constraint_image)
        return [c / constraint[-1] for c in constraint]

    for model_id, params in (
        ("razavy", TABLE_PARAMS["razavy"]),
        ("perturbed-dshg", TABLE_PARAMS["perturbed-dshg"]),
    ):
        for n in (1, 10, 20, 40):
            assert monic(models.make(model_id, n, params)) == monic(
                models.make(f"{model_id}-sinh2", n, params)
            ), (model_id, n)


# ---------------------------------------------------------------------------
# criterion 12: every emitted root is the float nearest the exact root
# ---------------------------------------------------------------------------

# Long chains at deep parameters; at the model's own centre their products
# are all negative.
DEEP_RAZAVY = {"xi": Fraction(13, 4), "alpha": 1, "beta": 1}
DEEP_PDSHG = {"xi": Fraction(11, 4), "alpha": 1, "beta": 0}
LONG_CASES = {
    "chen-even-40": ("chen-even", 40, TABLE_PARAMS["chen-even"]),
    "chen-odd-40": ("chen-odd", 40, TABLE_PARAMS["chen-odd"]),
    "razavy-40": ("razavy", 40, DEEP_RAZAVY),
    "pdshg-40": ("perturbed-dshg", 40, DEEP_PDSHG),
}


def ulps(a, b):
    """How many doubles lie between ``a`` and ``b``, counting one end."""
    def ordinal(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordinal(a) - ordinal(b))


def test_12_roots_are_within_a_few_ulp_of_the_exact_roots(deep):
    # every root is certified: the float nearest the exact root, 0 ulp
    cases = [(key, deep(key)) for key in DEEP_CASES]
    for key, (model_id, n, params) in LONG_CASES.items():
        cases.append((key, solve(models.make(model_id, n, params))))
    far = []
    for key, spectrum in cases:
        for index, root in enumerate(spectrum.roots):
            distance = ulps(root, float(exact_root(spectrum.chain, root)))
            if distance:
                far.append(f"{key}[{index}]: {distance} ulp")
    assert not far, "\n".join(far)


# ---------------------------------------------------------------------------
# criterion 13: the supported envelope, n = 10, 20, 40
# ---------------------------------------------------------------------------

ENVELOPE = [
    *TABLE_PARAMS.items(),
    ("razavy", DEEP_RAZAVY), ("razavy-sinh2", DEEP_RAZAVY),
    ("perturbed-dshg", DEEP_PDSHG), ("perturbed-dshg-sinh2", DEEP_PDSHG),
]


def _positive_centres(model):
    """Centres at which the chain products, read off the ODE table, are all positive."""
    n = model.n
    at0 = model.ode_coefficients(0)
    table = recurrence.OdeCoefficients(*(Fraction(v) for v in astuple(at0)))
    positive = []
    for centre in [0, *recurrence.candidate_centres(table)]:
        ode = recurrence.recentre(table, centre)

        def grade(k, g):
            return ode.multiplicators(k)[g]

        if all(grade(n + 2 - k, 2) * grade(n + 1 - k, 0) > 0 for k in range(2, n + 2)):
            positive.append(centre)
    return positive


@pytest.mark.parametrize(
    "model_id, params, n",
    [
        pytest.param(
            model_id, params, n,
            id=f"{model_id}-{'-'.join(map(str, params.values()))}-n{n}",
        )
        for model_id, params in ENVELOPE
        for n in (10, 20, 40)
    ],
)
def test_13_envelope_roots_or_no_positive_centre(model_id, params, n):
    model = models.make(model_id, n, params)
    positive = _positive_centres(model)
    if not positive:
        # deep chen at n = 10 is mixed at every centre: 0, 1 and 1 + 1/g
        with pytest.raises(NonPositiveLambda):
            solve(model)
        return
    spectrum = solve(model)
    assert spectrum.ttrr.centre == positive[0]
    xs = np.asarray(spectrum.roots)
    assert len(xs) == n + 1
    # ascending; a float repeats only as two states of opposite parities
    # (dshg's doublets, from n = 20)
    parities = [getattr(state, "parity", None) for state, _ in spectrum.states]
    assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) >= 0)
    for i in np.flatnonzero(np.diff(xs) == 0):
        assert {parities[i], parities[i + 1]} == {"even", "odd"}, i
    # each root in the chain of its state: test_12 certifies four n = 40
    # chains exactly
    for chain in {id(chain): chain for _, chain in spectrum.states}.values():
        if chain.n < 40:
            certified_roots(chain, [r for r, (_, c) in zip(xs, spectrum.states) if c is chain])
