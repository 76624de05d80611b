"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import CATALOG_PARAMS, DEEP_CASES, GAP_MARGIN, as_fractions, poly_eval, solved
from qespectra import cli, models, oracle, polynomials, solve, wavefunctions
from qespectra.errors import InvalidParams


def run_cli(*argv, capsys=None):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out if capsys is not None else ""
    return code, out


# ---------------------------------------------------------------------------
# value parsing and emission
# ---------------------------------------------------------------------------

def test_parse_value_keeps_exact_forms():
    for text, want in (("3", 3), ("0.09", Fraction(9, 100)), ("1/4", Fraction(1, 4)),
                       ("-2.5e-3", Fraction(-1, 400))):
        v = cli._parse_value(text)
        assert isinstance(v, Fraction) and v == want, text
    for bad in ("not-a-number", "inf", "nan", "1/0", ""):
        with pytest.raises(InvalidParams):
            cli._parse_value(bad)


def test_parse_params_and_range():
    params = cli._parse_params(["V1=1", "V2=-50"])
    assert params == {"V1": 1, "V2": -50}
    with pytest.raises(InvalidParams):
        cli._parse_params(["V1"])
    xs = cli._parse_range("0:1:5")
    np.testing.assert_allclose(xs, [0.0, 0.25, 0.5, 0.75, 1.0])
    for bad in ("0:1", "1:0:5", "0:1:1", "a:b:c"):
        with pytest.raises(InvalidParams):
            cli._parse_range(bad)


def test_emit_json_round_trips_byte_identically():
    payload = {
        "name": "x",
        "float": 50.649910399999997,
        "int_like": 3.0,
        "neg": -1e-300,
        "flag": True,
        "nothing": None,
        "nan": math.nan,
        "list": [1, 2.5, {"deep": 0.1}],
        "empty": [],
        "emptyd": {},
    }
    text = cli.emit_json(payload)
    reparsed = json.loads(text)
    assert cli.emit_json(reparsed) == text


def test_emit_csv_formats():
    text = cli.emit_csv(["a", "b"], [[1, 2.5], [True, None], [math.inf, math.nan]])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5"
    assert lines[2] == "true,"
    assert lines[3] == "inf,nan"
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def test_models_listing_json(capsys):
    code, out = run_cli("models", capsys=capsys)
    assert code == 0
    listing = json.loads(out)
    ids = [e["model"] for e in listing]
    assert len(ids) == 10 and "xie-even" in ids and "perturbed-dshg-sinh2" in ids
    xie = next(e for e in listing if e["model"] == "xie-even")
    assert "V1 > 0" in xie["constraints"]
    pdshg = next(e for e in listing if e["model"] == "perturbed-dshg")
    assert "quadruplet" in pdshg["constraints"]


def test_models_listing_csv(capsys):
    code, out = run_cli("models", "--format", "csv", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith('"model"')
    assert len(lines) == 11


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_xie_even_deep(capsys):
    code, out = run_cli(
        "roots", "--model", "xie-even", "--n", "10",
        "--param", "V1=1", "--param", "V2=-50", capsys=capsys,
    )
    assert code == 0
    result = json.loads(out)
    assert list(result) == ["model", "params", "n", "baseline", "roots", "chain"]
    assert result["model"] == "xie-even"
    assert result["params"] == {"V1": 1, "V2": -50}
    assert result["baseline"] == {"name": "sqrt_minus_E", "value": 3}
    assert len(result["roots"]) == 11
    assert result["chain"]["p_nn_zero_flag"] is False
    assert result["chain"]["min_lambda"] > 0
    # double-well classification for the first four states: T T T F
    flags = [row["double_well"] for row in result["roots"][:4]]
    assert flags == [True, True, True, False]
    scans = [row["scan_value"] for row in result["roots"]]
    assert scans == sorted(scans)
    # emitted JSON round-trips byte-identically
    assert cli.emit_json(json.loads(out)) + "\n" == out


def test_roots_csv_format(capsys):
    code, out = run_cli(
        "roots", "--model", "coulomb", "--n", "2",
        "--param", "lambda=1/2", "--format", "csv", capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scan_value,energy,normalizable"
    assert len(lines) == 4
    middle = lines[2].split(",")
    assert float(middle[0]) == pytest.approx(0.0, abs=1e-12)


def test_roots_energy_scan_has_no_double_well_column(capsys):
    code, out = run_cli(
        "roots", "--model", "razavy", "--n", "2",
        "--param", "xi=1", "--param", "alpha=0", "--param", "beta=0",
        capsys=capsys,
    )
    assert code == 0
    rows = json.loads(out)["roots"]
    assert all("double_well" not in row for row in rows)
    assert all(row["normalizable"] for row in rows)


# sha256 of the `roots --format json` output of each deep case, recorded
# with the hand-written multiplicator tables the ODE-derived ones replaced.
# razavy, pdshg-20 and pdshg-21 were re-pinned when their roots moved from
# the comrade eigensolve to the Jacobi chain at centre z = 1, each root to
# within 2 ulp of the exact one (test_12 in test_acceptance.py).  All but
# xie-odd and dshg were re-pinned when every root came to be certified and
# correctly rounded, which moved the roots that the float polish had left
# 1 ulp off; test_12, now at 0 ulp, stands behind that move (the old
# digests are listed in CHANGES.md).
ROOTS_JSON_SHA256 = {
    "xie-even": "fe59bcda1253360acd7b1d848942225df7397a0fdda63393f446b5a527f26135",
    "xie-odd": "81ffac20e70839420b878b37fe757af6ebbc11509adfe935b27f7fce2f6e0341",
    "chen-even": "07ed57b1e9c5226b9606316198006cc1923231bb1bc70248fa3f403282a15629",
    "chen-odd": "bec0db06137576dd8174bbc0a42ae4be560bca76e154d6f0b04893009eaee001",
    "coulomb": "9188589ea7accdcab304cf428cd9d573599bce4f02cfa7465ec40bbee2e2bcdd",
    "razavy": "1d736aac351fe1ec543f796f5ce852f5aca00dc285e3fb89fc766c22d98c34e8",
    "dshg": "0ab60f97ec176512317685a750912ad0e8fd34b65b95b344739a07da123b4e1d",
    "pdshg-20": "253f78d633fac94376e04650c3960210566e993aa51a6c3c7cca54b190ba29a0",
    "pdshg-21": "1999d4cbb55d4fcecd022322d15eabf5dcd6193fa78e49a14b35e6934ed8e5e7",
}


# sha256 of the `models` listing, and of `verify --root-index k --format
# json` for the cheapest state k of each deep case, recorded while the
# catalog still repeated each model class in hand-written rows; razavy,
# pdshg-20 and pdshg-21 re-pinned with their roots, as above.  The verify
# digests were re-pinned again when the nearest FD eigenvalue came from
# shift-and-invert in place of bisection; BISECTION_VERIFY below checks that
# nothing else moved for coulomb and dshg.  The seven parity-sector digests
# were re-pinned once more when those wells came to be checked on the half
# line; test_oracle.py's half-line tests stand behind them.  All nine were
# re-pinned when the search for the nearest level came to start from the
# state's own wavefunction; test_acceptance.py's
# test_the_own_wavefunction_start_moves_only_the_nearest_level_within_the_floor
# stands behind that move.  dshg's was re-pinned when each state came to be
# paired with the FD level of its node index: its root 1 keeps level 1, now
# from a bisection of that level where the Rayleigh estimate stood before,
# 2.8e-8 away (BISECTION_VERIFY still holds); test_acceptance.py's
# test_every_fd_energy_is_the_level_of_the_state_s_node_index stands behind it.
# dshg's was re-pinned again (once
# eeef3c594a661232a5d22984c68fcf8ca8c36b5424cf0d8676d1b4d514500bed) when
# dshg came to be checked on the half line of its node count's parity, and
# no longer reads ambiguous; the same test stands behind that move.  The
# eight others were re-pinned when the oracle came to sample psi as a
# product over the certified zeros of S, which moved each residual's
# digits; test_wavefunctions.py's
# test_the_product_is_as_near_exact_as_the_horner_on_the_oracle_nodes
# stands behind that move (the old digests are listed in CHANGES.md).  All
# nine were re-pinned when convergence came to be attested by Richardson's
# rule on the subgrid of step 2h, which added three fields to each report,
# and the oracle's sums of squares left BLAS; test_acceptance.py's
# extrapolation_error gate in test_09 and
# test_deep_reports_do_not_depend_on_the_blas_thread_count stand behind that
# move (the old digests are listed in CHANGES.md).  xie-even, razavy,
# pdshg-20 and pdshg-21, whose states' grids lie past the 4,000-point floor,
# were re-pinned when the default step grew from 0.07 to
# 0.091 / max(1, E - min V); test_acceptance.py's
# test_the_default_grid_keeps_a_margin_under_the_gap_gate stands behind that
# move (the old digests are listed in CHANGES.md).  razavy, pdshg-20 and
# pdshg-21 were re-pinned again when each line grid came to be sized from
# the gap its state's own psi predicts, h^2 <(V - E)^2> / 12 = 3e-4; the
# same test stands behind that move (the old digests are listed in
# CHANGES.md).  pdshg-20 and pdshg-21 were re-pinned when their root 0,
# 1 ulp off under the float polish, came to be certified and correctly
# rounded; test_12 stands behind that move (the old digests are listed in
# CHANGES.md).  coulomb's was re-pinned (once
# 11e32bf37b16a0999c846209949177a76f4441a1f4a6e7eaceaa98178ed17313) when its
# residual came to evaluate psi on its own mesh a block at a time, at the
# scale of psi's norm on the operator's nodes, and to sum block by block,
# which moved its residual's last digits, and psi came to be sampled on the
# operator's nodes alone, which moved its level within the rounding floor;
# test_acceptance.py's
# test_the_residual_in_blocks_moves_coulomb_only_by_rounding stands behind
# that move.
MODELS_SHA256 = {
    "json": "451dd0969fba86ca0c69e56714eff6bca1b53ec6a6e5b4b193917f374c5768e7",
    "csv": "661184224dcd45302d6f07bef72cd28e3b5e1f7493a3a65e85bdfae2ada92c0d",
}
VERIFY_JSON_SHA256 = {
    "xie-even": (1, "5859a849bb231e55952fe8d5c3bfb4f4a6e7c5c402fd4a768e0f6b52391517a8"),
    "xie-odd": (0, "bbdc5f0b592398a6e06737b8711e20728af9ae2fe4a8fd3ed9c1eebcd6f801de"),
    "chen-even": (7, "1f51064e4064b6f42b4b08ae3e3b2fe2cad985fe9daecc67e768c9cc751c5eac"),
    "chen-odd": (7, "43944e3b9be4b0fe7c39bb6f5c9313cb6f4b5ba24fd3c0cc9d66053ab9cfd53c"),
    "coulomb": (5, "e4f8e5ab5c879ab6fc9faa389362d27eb0aa149924ea0b1d11bce005d1b11218"),
    "razavy": (0, "fb691c87e5d9c161d5216e7b3ca3658ed6a7e343d37cc21a97f1b926ee60c5c6"),
    "dshg": (1, "82ca7788b741a46f92a8b817c6dbe5c51b8c28dc5f31b31897ad8b4677a5c628"),
    "pdshg-20": (0, "471eff325ff7741b9b9d315a773af2afe04de13231fa77ee746d85325c877d1f"),
    "pdshg-21": (0, "81e5bde9bfb050377097ff624a1ef9845b6ec00b1d93b0f062e8b09216678bc9"),
}


def _deep_argv(command, key, *extra):
    model_id, n, params = DEEP_CASES[key]
    argv = [command, "--model", model_id, "--n", str(n), *extra, "--format", "json"]
    for name, value in params:
        argv += ["--param", f"{name}={value}"]
    return argv


def _sha256(out):
    return hashlib.sha256(out.encode()).hexdigest()


def test_roots_json_bytes_are_pinned(capsys, monkeypatch):
    # p_nn_zero_flag, in the pinned bytes, is read off the chain's
    # multiplicators: no polynomial gcd is taken

    def no_gcd(*args):
        raise AssertionError("roots took a polynomial gcd")

    monkeypatch.setattr(polynomials, "exact_gcd", no_gcd)
    changed = []
    for key in DEEP_CASES:
        code, out = run_cli(*_deep_argv("roots", key), capsys=capsys)
        assert code == 0, key
        if _sha256(out) != ROOTS_JSON_SHA256[key]:
            changed.append(key)
    assert not changed, f"roots JSON bytes changed for {changed}"


def test_models_bytes_are_pinned(capsys):
    for fmt, want in MODELS_SHA256.items():
        code, out = run_cli("models", "--format", fmt, capsys=capsys)
        assert code == 0
        assert _sha256(out) == want, fmt


def test_verify_json_bytes_are_pinned(capsys):
    changed = []
    for key, (k, want) in VERIFY_JSON_SHA256.items():
        argv = _deep_argv("verify", key, "--root-index", str(k))
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0, key
        if _sha256(out) != want:
            changed.append(key)
    assert not changed, f"verify JSON bytes changed for {changed}"


def test_verify_pairs_the_dshg_doublet_with_its_own_levels(capsys):
    """dshg n = 10's lowest doublet lies 1.9e-4 apart, narrower than the FD
    error.  Root 0 used to take root 1's level, the nearer, which moves on
    the grid with half the step, and read unconverged (exit 4); paired with level 0,
    its own node count, it passes."""
    code, out = run_cli("verify", "--model", "dshg", "--n", "10", "--param", "xi=2",
                        "--root-index", "0", capsys=capsys)
    assert code == cli.EXIT_OK
    row, = json.loads(out)["roots"]
    assert row["node_count"] == 0 and row["verification"]["converged"]


@pytest.mark.parametrize("n,index", [(30, 30), (40, 22)])
def test_verify_passes_dshg_states_that_failed_on_the_full_line(n, index, capsys):
    """On the full line these two states (xi = 2) read residuals 1.4e-4 and
    1.1e-4, over the gate (exit 4): each sample carries a part of the other
    parity, ~1e-13 of its norm, which the residual's second difference
    amplifies.  Projected onto the parity of its node count and checked on
    that half line, each passes, with its node count kept."""
    code, out = run_cli("verify", "--model", "dshg", "--n", str(n), "--param", "xi=2",
                        "--root-index", str(index), capsys=capsys)
    assert code == cli.EXIT_OK
    row, = json.loads(out)["roots"]
    assert row["node_count"] == index
    report = row["verification"]
    assert report["residual"] <= cli.VERIFY_RESIDUAL_MAX and report["converged"]
    assert not report["ambiguous"]


@pytest.mark.parametrize("argv", [
    ("coulomb", "15", "15", "lambda=1/2"),
    ("coulomb", "20", "20", "lambda=1/2"),
    ("razavy", "20", "20", "xi=1/2", "alpha=0", "beta=1"),
    ("perturbed-dshg", "20", "20", "xi=2", "alpha=2", "beta=0"),
], ids=lambda argv: f"{argv[0]}-{argv[1]}")
def test_verify_passes_top_states_that_the_horner_sampled_as_noise(argv, capsys):
    """The top normalizable state of each chain read residuals of 7.3e-4,
    1.08, 0.016 and 0.70 (exit 4) while the 80-bit Horner sampled psi: its
    pointwise error, amplified ~4/h^2 by the residual's second difference.
    Sampled as a product over the certified zeros of S, each passes."""
    model_id, n, index, *params = argv
    args = ["verify", "--model", model_id, "--n", n, "--root-index", index, "--format", "json"]
    for param in params:
        args += ["--param", param]
    code, out = run_cli(*args, capsys=capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)["roots"][0]["verification"]
    assert report["residual"] <= cli.VERIFY_RESIDUAL_MAX and report["converged"]


def test_verify_passes_razavy_n40_root_7_sized_for_its_own_gap(capsys):
    """razavy n = 40 root 7 failed on its residual alone, 1.06e-4 on the
    359,490 points of the step 0.091 / max(1, E - min V): the finer the
    grid, the more the residual's second difference amplifies rounding,
    as 1/h^2.  Sized for the gap its own psi predicts, 3e-4, its grid
    holds 312,067 points, and it passes with 15 nodes."""
    argv = ["verify", "--model", "razavy", "--n", "40", "--root-index", "7"]
    for name, value in CATALOG_PARAMS["razavy"].items():
        argv += ["--param", f"{name}={value}"]
    code, out = run_cli(*argv, capsys=capsys)
    assert code == cli.EXIT_OK
    row, = json.loads(out)["roots"]
    report = row["verification"]
    assert row["node_count"] == 15
    assert report["residual"] <= cli.VERIFY_RESIDUAL_MAX and report["converged"]
    assert report["abs_gap"] <= GAP_MARGIN and not report["ambiguous"]
    model = models.make("razavy", 40, CATALOG_PARAMS["razavy"])
    assert oracle.default_verify_config(model, solve(model).roots[7]).points == 312_067


def test_verify_takes_the_decay_width_once_per_model(capsys, monkeypatch):
    """The box, 1.15 L + 2, is the same for every root: L is the half-width
    of the model's default sampling grid, which the step rule samples too,
    so verifying all 11 roots of deep xie-odd takes one decay_halfwidth."""
    calls = []
    halfwidth = wavefunctions.decay_halfwidth

    def counted(model, degree):
        calls.append(degree)
        return halfwidth(model, degree)

    monkeypatch.setattr(wavefunctions, "decay_halfwidth", counted)
    code, out = run_cli(*_deep_argv("verify", "xie-odd"), capsys=capsys)
    assert code == cli.EXIT_OK
    assert len(json.loads(out)["roots"]) == 11
    assert calls == [10]


@pytest.mark.parametrize("points", [None, "4000"])
def test_verify_assembles_each_state_once_and_samples_it_where_it_must(
        points, capsys, monkeypatch):
    """Each root's S is assembled, and its zeros certified, once.  On a
    default grid, S is evaluated twice, on the default sampling grid that
    sizes the step and on the FD nodes; with --points the step is given,
    so S is evaluated on the FD nodes alone.  Either way the state is
    sampled once (``wavefunctions.sample``)."""
    calls = {"sample": 0, "_values": 0, "_zeros": 0}

    def counting(name):
        real = getattr(wavefunctions, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(wavefunctions, name, counted)

    for name in calls:
        counting(name)
    extra = () if points is None else ("--points", points)
    code, out = run_cli(*_deep_argv("verify", "xie-odd", *extra), capsys=capsys)
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY)
    roots = len(json.loads(out)["roots"])
    assert roots == 11
    assert calls == {"sample": roots, "_values": roots * (2 if points is None else 1),
                     "_zeros": roots}


def test_verify_of_a_wide_box_reads_its_level_and_exits_4_on_the_residual(capsys):
    """A box far wider than the state's reaches walls of 9.3e214 on the
    diagonal.  dstebz's default tolerance there, ~eps ||T||, put level 3
    at 5.4e198; bisection on Sturm counts to neighbouring floats puts it
    where dstebz with an explicit tolerance does: level 1 of the odd half
    line, built here from the potential.  The state fails on its residual
    alone: exit 4."""
    xmax = 123.80235792120567
    code, out = run_cli("verify", "--model", "dshg", "--n", "3", "--param", "xi=2",
                        "--root-index", "3", f"--xmin={-xmax}", f"--xmax={xmax}",
                        "--format", "json", capsys=capsys)
    assert code == cli.EXIT_VERIFY
    report = json.loads(out)["roots"][0]["verification"]
    model = models.make("dshg", 3, {"xi": Fraction(2)})
    root = solve(model).roots[3]
    points = oracle.default_verify_config(model, root).points
    h = 2.0 * xmax / (points + 1)
    xs = h * np.arange(1, points // 2 + 1)  # the odd half line's nodes i h, i >= 1
    diag = 2.0 / (h * h) + model.potential(xs, root)
    off = np.full(len(xs) - 1, -1.0 / (h * h))
    assert diag.max() > 9e214
    level, = sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(1, 1), tol=1e-12)
    assert abs(report["nearest_fd_energy"] - level) <= 1e-10 * abs(level)
    assert report["residual"] > cli.VERIFY_RESIDUAL_MAX


def test_verify_exits_4_on_a_node_count_past_the_last_level(capsys, monkeypatch):
    """A node count the FD operator has no level for is a shortfall: the
    report reads null for the level and its gap, not converged, exit 4."""
    sample = wavefunctions.sample

    def past_the_last_level(*args, **kwargs):
        return replace(sample(*args, **kwargs), node_count=10**7)

    monkeypatch.setattr(wavefunctions, "sample", past_the_last_level)
    code, out = run_cli("verify", "--model", "coulomb", "--n", "1", "--param", "lambda=1/2",
                        "--root-index", "0", "--points", "1000", capsys=capsys)
    assert code == cli.EXIT_VERIFY
    report = json.loads(out)["roots"][0]["verification"]
    assert report["nearest_fd_energy"] is None and report["abs_gap"] is None
    assert report["converged"] is False


def test_verify_exits_4_where_the_subgrid_has_no_level_of_the_node_count(capsys, monkeypatch):
    """On 1,000 points the radial line has 1,000 levels and its subgrid
    500: a node count of 700 has a level on the grid alone.  The report
    reads null for the subgrid's level and the extrapolation, not
    converged, exit 4, and nothing raises."""
    sample = wavefunctions.sample

    def between_the_grids(*args, **kwargs):
        return replace(sample(*args, **kwargs), node_count=700)

    monkeypatch.setattr(wavefunctions, "sample", between_the_grids)
    code, out = run_cli("verify", "--model", "coulomb", "--n", "1", "--param", "lambda=1/2",
                        "--root-index", "0", "--points", "1000", capsys=capsys)
    assert code == cli.EXIT_VERIFY
    report = json.loads(out)["roots"][0]["verification"]
    assert report["nearest_fd_energy"] > report["algebraic_energy"]
    assert report["subgrid_fd_energy"] is None and report["richardson_energy"] is None
    assert report["extrapolation_error"] is None and report["converged"] is False


# The coulomb and dshg states of VERIFY_JSON_SHA256 as the bisection oracle
# reported them, before the nearest FD eigenvalue was found by
# shift-and-invert: (nearest_fd_energy, abs_gap, sha256 of the whole
# output).  The parity sectors' entries went when they moved to the half
# line; test_oracle.py's half-line tests replace them.  dshg's entry was
# re-pinned when dshg moved to the half line of its node count's parity:
# it is now the bisection of level 1 of the mirrored line's operator, which
# the half line's odd level is (once 22.594741916011603, 0.0002262592315673828
# and bffdfd318f082a66e25701cd2f07b3930dbc5d57a8fc3d2438b103ef261c3b0e).
# coulomb's digest was re-pinned (once
# 2737794c4f5c2aceb1cde53f57b348fc81ee97ba77dae7ca17c5ded249ab56c5) when psi
# came to be sampled as a product over the zeros of S, which moved its
# residual; its bisection values hold unedited.  Both digests were re-pinned
# (once ca46b412703a5ad48e88ac5aa310e6e0eed7b6bf1100dc1ac53643c5796d6569 and
# a76ce8084d9cc64fa6f63569309f9f434775f1b447548426f31f0b1cc7b8e2f2) with
# VERIFY_JSON_SHA256 when the subgrid's fields came; their bisection values
# hold unedited.  coulomb's digest was re-pinned (once
# f01131932ac9053b2acc77a367685722dd6ae742df4e3803cb179dcb7eafd10f) with
# VERIFY_JSON_SHA256 when its residual came to run in blocks on its own
# mesh; its bisection values hold unedited.
BISECTION_VERIFY = {
    "coulomb": (10.999910324360826, 8.967563917394727e-05,
                "a423a31f6f8b0233cb89eccd56498926aa57e52de0f189e17535f752f89474d8"),
    "dshg": (22.594741676409363, 0.00022649883380765345,
             "55313a2d22f7f178c9d4549b836d39ce073512be840d21abd8380a89c0cc7cec"),
}


def test_verify_json_moves_only_in_the_nearest_fd_energy_and_gap(capsys):
    """Writing back the bisection values, and the extrapolation from them,
    must restore every byte.

    The nearest FD eigenvalue may move only by rounding: within 32 eps ||T||
    of the bisection value, where ||T|| = max|diag| + 2 max|off| bounds the
    coarse FD matrix (bisection itself is accurate to a few eps ||T||).
    """
    eps = np.finfo(float).eps
    for key, (nearest, gap, digest) in BISECTION_VERIFY.items():
        k = VERIFY_JSON_SHA256[key][0]
        code, out = run_cli(*_deep_argv("verify", key, "--root-index", str(k)),
                            capsys=capsys)
        assert code == 0, key
        result = json.loads(out)
        report = result["roots"][0]["verification"]
        spectrum = solved(key)
        model, root = spectrum.model, spectrum.roots[k]
        diag, off = oracle._tridiag(
            model, root, oracle.default_verify_config(model, root)
        )
        tnorm = np.abs(diag).max() + 2.0 * np.abs(off).max()
        assert abs(report["nearest_fd_energy"] - nearest) <= 32 * eps * tnorm, key
        richardson = nearest + (nearest - report["subgrid_fd_energy"]) / 3.0
        report["nearest_fd_energy"], report["abs_gap"] = nearest, gap
        report["richardson_energy"] = richardson
        report["extrapolation_error"] = abs(richardson - report["algebraic_energy"])
        assert _sha256(cli.emit_json(result) + "\n") == digest, key


# sha256 of `wavefunction --root-index k --format csv` for states of long
# chains, recorded while the solution was assembled by Fraction Horner, and
# for the full-line models re-pinned when the default grid became an exact
# mirror: (model, n, parameters, k) -> digest.  dshg roots 0 and 1 are the
# two members of its lowest doublet, which both round to root 0's float, so
# they cannot certify; root 1's was re-pinned when uncertified roots came
# to be the Newton-stepped eigenvalue seeds, 2 ulp above root 0 where the
# float polish had left it 1 ulp above (the old digest is listed in
# CHANGES.md).  test_13 and the node-count test of test_wavefunctions.py
# still hold it distinct and on its node ladder.
WAVEFUNCTION_CSV_SHA256 = {
    ("razavy-sinh2", 40, ("xi=1/2", "alpha=0", "beta=1"), 20):
        "1d48b9f9d7346f7150e28f2f25c1de2262008a4424d40f23e8e4d65999164446",
    ("coulomb", 29, ("lambda=1/2",), 14):
        "af3fa9404db0ba55e4ed24e84fcf253f5da69481f7fb600675b93781d65c8aa9",
    ("dshg", 20, ("xi=2",), 0):
        "fb36abb093c7ad9cdc9df0349d7693c266b20577d69929f3d0a4acf7f243bc31",
    ("dshg", 20, ("xi=2",), 1):
        "74817774e890825ab3ecff496a68539d71219f8e91f43cb12905c37111a91192",
}


def test_wavefunction_csv_bytes_are_pinned(capsys):
    changed = []
    for (model_id, n, params, k), want in WAVEFUNCTION_CSV_SHA256.items():
        argv = ["wavefunction", "--model", model_id, "--n", str(n),
                "--root-index", str(k), "--format", "csv"]
        for param in params:
            argv += ["--param", param]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0, (model_id, k)
        if _sha256(out) != want:
            changed.append((model_id, k))
    assert not changed, f"wavefunction CSV bytes changed for {changed}"


def test_wavefunction_on_an_even_chart_evaluates_half_the_grid(capsys, horner_rows):
    # the CLI passes its grid explicitly; it is the default exact mirror,
    # so the polynomial is evaluated at one point of each mirror pair
    key = ("razavy-sinh2", 40, ("xi=1/2", "alpha=0", "beta=1"), 20)
    argv = ["wavefunction", "--model", "razavy-sinh2", "--n", "40",
            "--root-index", "20", "--format", "csv"]
    for param in key[2]:
        argv += ["--param", param]
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert sum(horner_rows) == (2001 + 1) // 2
    assert _sha256(out) == WAVEFUNCTION_CSV_SHA256[key]


def test_roots_accepts_m_alias(capsys):
    code, out = run_cli(
        "roots", "--model", "dshg", "--param", "xi=2", "--param", "M=12",
        capsys=capsys,
    )
    assert code == 0
    result = json.loads(out)
    assert result["n"] == 11
    assert result["baseline"] == {"name": "M", "value": 12}
    assert len(result["roots"]) == 12


# ---------------------------------------------------------------------------
# constraint tabulation
# ---------------------------------------------------------------------------

def test_constraint_tabulation_brackets_roots(capsys):
    # hand-solved instance: at xi = 1/2 the two-state constraint is
    # proportional to E^2 + 9 E - 3/4, roots (-9 +- sqrt(84)) / 2
    code, out = run_cli(
        "constraint", "--model", "razavy", "--n", "1",
        "--param", "xi=1/2", "--param", "alpha=0", "--param", "beta=1",
        "--range=-12:3:61", capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scan_value,constraint"
    values = [(float(a), float(b)) for a, b in
              (line.split(",") for line in lines[1:])]
    signs = [math.copysign(1.0, v) for _, v in values if v != 0.0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 2
    lo = (-9.0 - math.sqrt(84.0)) / 2.0
    hi = (-9.0 + math.sqrt(84.0)) / 2.0
    for x, v in values:
        if x < lo - 0.3 or (lo + 0.3 < x < hi - 0.3) or x > hi + 0.3:
            assert v != 0.0


def test_constraint_json_variant(capsys):
    code, out = run_cli(
        "constraint", "--model", "coulomb", "--n", "1", "--param", "lambda=1/2",
        "--range=-2:2:5", "--format", "json", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scan_variable"] == "beta"
    # constraint is 1 - x^2 at lam = 1/2
    rows = dict((x, v) for x, v in payload["rows"])
    assert rows[0.0] == pytest.approx(1.0)
    assert rows[2.0] == pytest.approx(-3.0)


@pytest.mark.parametrize("key,grid", [("xie-even", "0:400:201"), ("razavy", "-200:200:201")])
def test_constraint_rows_are_the_exact_values_rounded_once(key, grid, capsys):
    # float Horner on rounded coefficients loses digits to cancellation on
    # these rows; the exact value rounded once does not
    code, out = run_cli(*_deep_argv("constraint", key, f"--range={grid}"), capsys=capsys)
    assert code == 0
    constraint = as_fractions(solved(key).chain.constraint_image)
    rows = json.loads(out)["rows"]
    assert len(rows) == 201
    for x, v in rows:
        assert v == float(poly_eval(constraint, Fraction(x))), x


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------

def test_wavefunction_csv(capsys):
    code, out = run_cli(
        "wavefunction", "--model", "coulomb", "--n", "1",
        "--param", "lambda=1/2", "--root-index", "0",
        "--grid-points", "501", capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,psi"
    assert len(lines) == 502


def test_wavefunction_json_has_nodes_and_parity(capsys):
    code, out = run_cli(
        "wavefunction", "--model", "dshg", "--n", "1", "--param", "xi=1",
        "--root-index", "-1", "--format", "json", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["node_count"] == 1
    assert payload["parity"] == "odd"
    assert len(payload["rows"]) == 2001
    # dshg n=1 roots are xi^2 + 3 -+ 2 xi: top root = 6 at xi = 1
    assert payload["energy"] == pytest.approx(6.0)


def test_wavefunction_root_index_range(capsys):
    code, _ = run_cli(
        "wavefunction", "--model", "coulomb", "--n", "1",
        "--param", "lambda=1/2", "--root-index", "5", capsys=capsys,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_coulomb_n0_is_machine_accurate(capsys):
    code, out = run_cli(
        "verify", "--model", "coulomb", "--n", "0", "--param", "lambda=1/2",
        capsys=capsys,
    )
    assert code == 0
    result = json.loads(out)
    row = result["roots"][0]
    assert row["scan_value"] == pytest.approx(0.0, abs=1e-14)
    ver = row["verification"]
    assert list(ver) == [
        "algebraic_energy", "nearest_fd_energy", "subgrid_fd_energy", "richardson_energy",
        "abs_gap", "extrapolation_error", "residual", "converged", "ambiguous",
    ]
    assert ver["residual"] < 1e-8
    assert ver["converged"] is True
    assert row["node_count"] == 0


def test_verify_exit_4_on_truncated_box(capsys):
    # an explicit box cut off at x = 2 chops the wavefunction tail: the
    # check must fail (huge residual / no convergence) and exit 4
    code, out = run_cli(
        "verify", "--model", "coulomb", "--n", "1", "--param", "lambda=1/2",
        "--root-index", "0", "--xmax", "2.0", "--points", "150",
        capsys=capsys,
    )
    assert code == 4
    result = json.loads(out)
    ver = result["roots"][0]["verification"]
    assert ver["residual"] > cli.VERIFY_RESIDUAL_MAX or not ver["converged"]


def test_verify_csv_flattens_verification(capsys):
    code, out = run_cli(
        "verify", "--model", "coulomb", "--n", "1", "--param", "lambda=1/2",
        "--format", "csv", capsys=capsys,
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "residual" in header and "abs_gap" in header
    assert "scan_value" in header and "node_count" in header
    assert len(out.splitlines()) == 3


# ---------------------------------------------------------------------------
# exit codes and plumbing
# ---------------------------------------------------------------------------

def test_exit_2_on_bad_requests(capsys):
    assert run_cli("roots", "--model", "nope", "--n", "1", capsys=capsys)[0] == 2
    assert run_cli(
        "roots", "--model", "xie-even", "--n", "1",
        "--param", "V1=0", "--param", "V2=-5", capsys=capsys,
    )[0] == 2
    assert run_cli(
        "roots", "--model", "xie-even", "--n", "1",
        "--param", "V1=1", "--param", "V2=-5", "--scan-var", "E",
        capsys=capsys,
    )[0] == 2
    assert run_cli(
        "roots", "--model", "dshg", "--n", "3",
        "--param", "xi=2", "--param", "M=12", capsys=capsys,
    )[0] == 2


def test_exit_2_on_argparse_errors(capsys):
    assert run_cli("roots", capsys=capsys)[0] == 2           # --model missing
    assert run_cli("no-such-command", capsys=capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ("wavefunction", "--grid-points", "10"),
    ("wavefunction", "--grid-l", "-1"),
    ("wavefunction", "--grid-l", "nan"),
    ("wavefunction", "--grid-l", "inf"),
    ("verify", "--points", "50"),
    ("verify", "--xmin", "3", "--xmax", "1"),
    ("verify", "--xmax", "inf"),
    ("verify", "--xmin=-1e-40", "--xmax=1e-40"),
], ids=" ".join)
def test_exit_2_on_bad_grid_options(argv, capsys):
    command, *options = argv
    code = cli.main([
        command, "--model", "dshg", "--n", "1", "--param", "xi=1",
        "--root-index", "0", *options,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("--model", "razavy", "--n", "2", "--param", "xi=1e400", "--param", "alpha=0",
     "--param", "beta=1"),
    ("--model", "xie-even", "--n", "2", "--param", "V1=1e400", "--param", "V2=-50"),
], ids=lambda argv: argv[1])
def test_exit_2_on_a_parameter_past_the_float_range(argv, capsys):
    # exact, but the potential is taken in floats: refused, naming the
    # parameter, where the pipeline raised OverflowError (exit 3)
    code = cli.main(["roots", *argv])
    captured = capsys.readouterr()
    name = argv[5].partition("=")[0]
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: parameter {name}=1e400 lies past the float range\n"


def test_wavefunction_exits_2_on_a_grid_step_below_the_floor(capsys):
    # a half-width of 1.5e-183 once sampled psi ~ 1.8e91 and exited 0
    code = cli.main([
        "wavefunction", "--model", "chen-even", "--n", "2", "--param", "V1=9/100",
        "--param", "V3=400", "--param", "g=1/4", "--root-index=0",
        "--grid-l=1.4675717386772963e-183", "--grid-points", "20",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: grid steps below 1e-30 cannot support sampling\n"


@pytest.mark.parametrize("command, option", [
    ("verify", "--points"),
    ("wavefunction", "--grid-points"),
])
def test_exit_2_on_too_many_grid_points(command, option, tmp_path, capsys):
    # one point above the oracle's ceiling is refused before any allocation
    target = tmp_path / "out.txt"
    code = cli.main([
        command, "--model", "dshg", "--n", "1", "--param", "xi=1",
        "--root-index", "0", option, str(oracle._MAX_POINTS + 1),
        "--out", str(target),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("steps", [oracle._MAX_POINTS + 1, 10 ** 15])
def test_constraint_exits_2_on_too_many_range_steps(steps, monkeypatch, tmp_path, capsys):
    # refused before np.linspace runs: 1e15 steps once escaped as numpy's
    # _ArrayMemoryError.  The stand-in fails the test instead of allocating.
    def linspace(lo, hi, count):
        assert count <= oracle._MAX_POINTS, f"np.linspace ran on {count} steps"
        return np.array([lo, hi])

    monkeypatch.setattr(np, "linspace", linspace)
    target = tmp_path / "out.txt"
    code = cli.main([
        "constraint", "--model", "dshg", "--n", "2", "--param", "xi=2",
        f"--range=0:1:{steps}", "--out", str(target),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: too many --range steps: {steps} > {oracle._MAX_POINTS}\n"
    assert not target.exists()
    assert len(cli._parse_range(f"0:1:{oracle._MAX_POINTS}")) == 2


def test_constraint_exits_2_on_a_range_span_past_the_float_range(tmp_path, capsys):
    # max - min overflows: np.linspace gave NaN and inf points, and the
    # exact evaluation raised ValueError out of main (exit 1)
    target = tmp_path / "out.txt"
    code = cli.main([
        "constraint", "--model", "dshg", "--n", "2", "--param", "xi=2",
        "--range=-1e308:1e308:3", "--out", str(target),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --range") and captured.err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("box", [("--xmin", "-5"), ("--xmin", "-5", "--xmax", "6")],
                         ids=" ".join)
def test_verify_exits_2_on_an_asymmetric_box_for_a_parity_sector(box, capsys):
    # a parity sector is checked on the half line, so its box must be
    # [-L, L]; --xmin alone leaves the default xmax.  So is each dshg
    # state, on the half line of its parity.
    for model in (("razavy", "--param", "xi=1/2", "--param", "alpha=0", "--param", "beta=1"),
                  ("dshg", "--param", "xi=2")):
        argv = ["verify", "--model", *model, "--n", "1", "--root-index", "0"]
        code = cli.main([*argv, *box])
        captured = capsys.readouterr()
        assert code == 2, model
        assert captured.out == ""
        assert "symmetric" in captured.err and captured.err.count("\n") == 1
        assert captured.err.startswith("error:")
        code = cli.main([*argv, "--xmin", "-6", "--xmax", "6"])
        capsys.readouterr()
        assert code == 0, model


@pytest.mark.parametrize("argv", [
    ("--model", "dshg", "--n", "2", "--param", "xi=2", "--root-index", "0",
     "--points", "2000"),
    ("--model", "perturbed-dshg", "--n", "1", "--param", "xi=2", "--param", "alpha=2",
     "--param", "beta=0", "--points", "100"),
], ids=lambda argv: argv[1])
def test_verify_exits_2_on_a_box_where_the_potential_overflows(argv, capsys):
    # V = (xi cosh 2x - m)^2 + ... leaves the float range near |x| = 177 at
    # xi = 2; the oracle refuses the box before it builds anything on it,
    # and no RuntimeWarning escapes on the way
    code = cli.main(["verify", *argv, "--xmin", "-300", "--xmax", "300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the potential overflows on this box\n"


def test_verify_exits_2_on_a_half_line_model_without_a_discretization(capsys):
    # fractional beta puts perturbed-dshg on the half line, where only the
    # Coulomb model has a radial FD discretization
    code = cli.main([
        "verify", "--model", "perturbed-dshg", "--n", "3", "--param", "xi=1",
        "--param", "alpha=1", "--param", "beta=1/4", "--root-index", "0",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# One admissible parameter set per catalog id, and the half-line case.
SMOKE_PARAMS = {
    "xie-even": ("V1=1", "V2=-50"),
    "xie-odd": ("V1=1", "V2=-50"),
    "chen-even": ("V1=0.09", "V3=400", "g=1/4"),
    "chen-odd": ("V1=0.09", "V3=400", "g=1/4"),
    "coulomb": ("lambda=1/2",),
    "razavy": ("xi=1/2", "alpha=0", "beta=1"),
    "razavy-sinh2": ("xi=1/2", "alpha=0", "beta=1"),
    "dshg": ("xi=2",),
    "perturbed-dshg": ("xi=2", "alpha=2", "beta=0"),
    "perturbed-dshg-sinh2": ("xi=2", "alpha=2", "beta=0"),
    "perturbed-dshg-half-line": ("xi=1", "alpha=1", "beta=1/4"),
}


@pytest.mark.parametrize("key", SMOKE_PARAMS)
def test_verify_smoke_every_catalog_id(key, capsys):
    # each call verifies or fails verification, or is refused in one line;
    # an exception would propagate out of cli.main and fail the test
    model_id = key.removesuffix("-half-line")
    argv = ["verify", "--model", model_id, "--n", "1", "--root-index", "0"]
    for param in SMOKE_PARAMS[key]:
        argv += ["--param", param]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 4), key
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, key


def test_exit_3_on_numerical_failure(capsys):
    # a state that underflows on every node of a valid grid is a pipeline
    # failure, not a usage error
    code = cli.main([
        "wavefunction", "--model", "coulomb", "--n", "1",
        "--param", "lambda=1/2", "--root-index", "0",
        "--grid-l", "1e5", "--grid-points", "16",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and "identically zero" in err


def test_exit_3_when_the_constraint_overflows_float(capsys):
    # the n = 150 constraint's values at -10, 0 and 10 lie beyond the float range
    code = cli.main([
        "constraint", "--model", "razavy-sinh2", "--n", "150",
        "--param", "xi=1/2", "--param", "alpha=0", "--param", "beta=1",
        "--range=-10:10:3",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "listing.json"
    code, out = run_cli("models", "--out", str(target), capsys=capsys)
    assert code == 0
    assert out == ""
    listing = json.loads(target.read_text())
    assert len(listing) == 10


def _child_env():
    """The environment of a child process that imports the same package
    this suite imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qespectra", "roots", "--model", "coulomb",
         "--n", "1", "--param", "lambda=1/2"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    scans = [row["scan_value"] for row in result["roots"]]
    assert scans == pytest.approx([-1.0, 1.0])


# Run in a fresh interpreter: import the CLI, report whether scipy came with
# it, then make any later scipy import fail and run each argv of stdin's
# JSON list through cli.main, reporting (exit code, sha256 of stdout).
_WITHOUT_SCIPY = """
import contextlib, hashlib, io, json, sys
import qespectra.cli
loaded = "scipy" in sys.modules
sys.modules["scipy"] = None
runs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qespectra.cli.main(argv)
    runs.append((code, hashlib.sha256(out.getvalue().encode()).hexdigest()))
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def test_the_algebraic_commands_run_without_scipy(capsys):
    """Only `verify` needs the FD oracle, the one module that imports scipy:
    `import qespectra.cli` leaves it unloaded, and `models`, `roots`,
    `constraint` and `wavefunction` print their pinned bytes with every
    scipy import refused."""
    expected = [(["models", "--format", fmt], want) for fmt, want in MODELS_SHA256.items()]
    expected += [(_deep_argv("roots", key), want) for key, want in ROOTS_JSON_SHA256.items()]
    for (model_id, n, params, k), want in WAVEFUNCTION_CSV_SHA256.items():
        argv = ["wavefunction", "--model", model_id, "--n", str(n),
                "--root-index", str(k), "--format", "csv"]
        for param in params:
            argv += ["--param", param]
        expected.append((argv, want))
    # no pinned digest for `constraint`: the bytes this process prints
    argv = _deep_argv("constraint", "xie-even", "--range=0:400:201")
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 0
    expected.append((argv, _sha256(out)))

    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        input=json.dumps([argv for argv, _ in expected]),
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] is False
    assert result["runs"] == [[0, want] for _, want in expected]


def test_verify_without_scipy_is_one_error_line():
    """`verify` needs scipy; without it the command prints one `error:`
    line and exits 2, with no traceback."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; import qespectra.cli as cli; "
         "sys.exit(cli.main(sys.argv[1:]))",
         "verify", "--model", "dshg", "--n", "2", "--param", "xi=2"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == ""
    line, = proc.stderr.splitlines()
    assert line.startswith("error: verify needs scipy")
    assert "Traceback" not in proc.stderr
