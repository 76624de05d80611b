"""Command-line front end.

Subcommands
-----------
models
    List the model catalog: ids, parameters, scan variables, admissibility
    constraints.
roots
    Full pipeline for one model instance: baseline, coefficient chain,
    canonical recurrence, real roots; emits a spectrum result.
constraint
    Tabulate the constraint polynomial over a scan-variable range, for
    external plotting.
wavefunction
    Emit one root's normalized wavefunction on a sampling grid.
verify
    Run the finite-difference check for each root (or one root) and attach
    the reports to the spectrum result; exits 4 when any report misses the
    verification thresholds.

Output is JSON (default for models/roots/verify) or CSV (default for
constraint/wavefunction); numbers carry 17 significant digits so emitted
files round-trip bit-exactly through a parse/re-emit cycle.

Exit codes: 0 success; 2 invalid request (unknown model, bad parameters or
grid options, too many grid points, inadmissible baseline, no FD
discretization for the model, `verify` without scipy installed); 3
numerical failure inside the pipeline; 4 verification shortfall.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import models, polynomials, recurrence, wavefunctions
from .errors import (
    BaselineUnsolvable,
    DegenerateGrid,
    DomainError,
    InvalidParams,
    MissingDependency,
    QesError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

_USAGE_ERRORS = (InvalidParams, DomainError, BaselineUnsolvable, MissingDependency)

# verify: a root fails its check when the action residual exceeds this or
# the gap does not shrink under grid refinement.
VERIFY_RESIDUAL_MAX = 1e-4

# ---------------------------------------------------------------------------
# number parsing / emission
# ---------------------------------------------------------------------------

def _parse_value(text):
    """Parse a CLI parameter value exactly, as a ``Fraction``.

    Integers, decimals (exponents included) and ratios are all exact:
    ``0.09`` parses to 9/100 and ``1/4`` to 1/4, so model coefficient
    tables built from CLI input stay exact rationals end to end.
    """
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParams(f"cannot parse parameter value {text!r} as a finite number")


def _parse_params(pairs):
    """Parameter bindings; one past the float range, where V is taken, is a bad request."""
    out = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise InvalidParams(f"--param expects key=value, got {item!r}")
        out[key] = _parse_value(value)
        try:
            float(out[key])
        except OverflowError:
            raise InvalidParams(f"parameter {key}={value} lies past the float range")
    return out


def _parse_range(text):
    parts = (text or "").split(":")
    if len(parts) != 3:
        raise InvalidParams(f"--range expects min:max:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParams(f"--range expects numeric min:max:steps, got {text!r}")
    # max - min past the float range would make np.linspace's points NaN
    if not (hi > lo and math.isfinite(hi - lo)):
        raise InvalidParams("--range needs finite min < max, max - min within the float range")
    if steps < 2:
        raise InvalidParams("--range needs at least 2 steps")
    if steps > wavefunctions._MAX_POINTS:  # refused before anything is allocated
        raise InvalidParams(f"too many --range steps: {steps} > {wavefunctions._MAX_POINTS}")
    return np.linspace(lo, hi, steps)


def _fmt(x):
    """17-significant-digit text for a finite float (round-trip exact)."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid "-0": it reparses as int 0 and would emit differently
    return format(x, ".17g")


def _json_scalar(x):
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return _fmt(x)


def emit_json(obj, indent=0):
    """Deterministic JSON text: insertion-ordered keys, '.17g' floats.

    Parsing the output with ``json.loads`` and re-emitting through this
    function reproduces the bytes exactly (floats carry every bit; a float
    that prints as an integer literal reparses as int and prints the same).
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {emit_json(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        inner = ",\n".join(f"{pad}  {emit_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _json_scalar(obj)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return _fmt(value)
    return str(value)


def emit_csv(header, rows):
    """CSV text: comma delimiter, '.' decimal separator, header row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _build_model(args):
    model = models.make(args.model, n=args.n, params=_parse_params(args.param))
    scan_var = getattr(args, "scan_var", None)
    if scan_var is not None and scan_var != model.scan_name:
        raise InvalidParams(
            f"model {args.model!r} scans {model.scan_name!r}, not {scan_var!r}"
        )
    return model


def _requested_grid(make, *args, points, **kwargs):
    """A grid built from command-line options: a bad one is a bad request."""
    if points > wavefunctions._MAX_POINTS:  # refused before anything is allocated
        raise InvalidParams(f"too many grid points: {points} > {wavefunctions._MAX_POINTS}")
    try:
        return make(*args, points=points, **kwargs)
    except DegenerateGrid as exc:
        raise InvalidParams(str(exc)) from exc


def _pick_indices(roots, root_index):
    count = len(roots)
    if root_index is None:
        return list(range(count))
    if not -count <= root_index < count:
        raise InvalidParams(
            f"--root-index {root_index} out of range for {count} roots"
        )
    return [root_index % count]


def _scalar_param(value):
    """An exact parameter for JSON: an int when integral, else a float."""
    return int(value) if value.denominator == 1 else float(value)


def _root_row(model, root):
    row = {
        "scan_value": float(root),
        "energy": float(model.energy(root)),
        "normalizable": bool(model.normalizable(root)),
    }
    double_well = getattr(model, "double_well", None)
    if double_well is not None:
        row["double_well"] = bool(double_well(root))
    return row


def _spectrum_result(model_id, spectrum, rows):
    name, value = spectrum.model.baseline()
    lam_tail = spectrum.ttrr.lam[1:]
    return {
        "model": model_id,
        "params": {k: _scalar_param(v) for k, v in models.params(spectrum.model).items()},
        "n": int(spectrum.model.n),
        "baseline": {"name": name, "value": float(value)},
        "roots": rows,
        "chain": {
            "p_nn_zero_flag": spectrum.chain.p_nn_zero_flag,
            "min_lambda": float(min(lam_tail)) if lam_tail else 1.0,
        },
    }


def _write_result(result, args):
    """A spectrum result as JSON, or as CSV with one row per root.

    The CSV header is the union of the row keys in order of appearance, with
    the verification fields flattened into the row.
    """
    if args.format != "csv":
        _write(emit_json(result) + "\n", args.out)
        return
    rows = []
    for row in result["roots"]:
        flat = dict(row)
        flat.update(flat.pop("verification", {}))
        rows.append(flat)
    header = list(dict.fromkeys(key for row in rows for key in row))
    cells = [[row.get(key) for key in header] for row in rows]
    _write(emit_csv(header, cells), args.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_models(args):
    listing = models.catalog()
    if args.format == "csv":
        header = ["model", "scan_variable", "parameters", "constraints", "summary"]
        rows = [
            [
                e["model"],
                e["scan_variable"],
                ";".join(e["parameters"]),
                e["constraints"],
                e["summary"],
            ]
            for e in listing
        ]
        # free-text cells may contain commas; quote them the simple way
        text = "\n".join(
            ",".join('"' + c.replace('"', '""') + '"' for c in row)
            for row in [header] + rows
        ) + "\n"
    else:
        text = emit_json(listing) + "\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_roots(args):
    spectrum = recurrence.solve(_build_model(args))
    rows = [_root_row(spectrum.model, r) for r in spectrum.roots]
    _write_result(_spectrum_result(args.model, spectrum, rows), args)
    return EXIT_OK


def cmd_constraint(args):
    """Tabulate the constraint's exact value, correctly rounded, on a grid.

    Each grid float is x = p / 2^k, so the integer image evaluates there
    with no rounding and one int / int division rounds the value; past the
    float range that division raises OverflowError (exit 3).
    """
    model = _build_model(args)
    chain = recurrence.exact_chain(recurrence.build_baseline(model))
    rows = []
    for x in map(float, _parse_range(args.range)):
        p, q = x.as_integer_ratio()
        value, den = polynomials.image_value(chain.constraint_image, p, q.bit_length() - 1)
        rows.append([x, value / den])
    if args.format == "json":
        payload = {
            "model": args.model,
            "scan_variable": model.scan_name,
            "n": int(model.n),
            "rows": rows,
        }
        text = emit_json(payload) + "\n"
    else:
        text = emit_csv(["scan_value", "constraint"], rows)
    _write(text, args.out)
    return EXIT_OK


def cmd_wavefunction(args):
    model = _build_model(args)
    xs = _requested_grid(
        wavefunctions.default_grid,
        model,
        model.n,
        points=args.grid_points,
        halfwidth=args.grid_l,
    )
    spectrum = recurrence.solve(model)
    root = spectrum.roots[_pick_indices(spectrum.roots, args.root_index)[0]]
    grid = wavefunctions.sample(model, root, xs=xs, chain=spectrum.chain)
    if args.format == "json":
        payload = {
            "model": args.model,
            "scan_value": float(root),
            "energy": float(model.energy(root)),
            "node_count": int(grid.node_count),
            "parity": grid.parity,
            "rows": [[float(x), float(p)] for x, p in zip(grid.xs, grid.psi)],
        }
        text = emit_json(payload) + "\n"
    else:
        text = emit_csv(["x", "psi"], list(zip(grid.xs, grid.psi)))
    _write(text, args.out)
    return EXIT_OK


def cmd_verify(args):
    try:
        from . import oracle  # the one command that needs scipy
    except ImportError as exc:
        raise MissingDependency(f"verify needs scipy: {exc}") from exc

    model = _build_model(args)
    spectrum = recurrence.solve(model)
    indices = _pick_indices(spectrum.roots, args.root_index)
    overrides = (args.xmin, args.xmax, args.points)
    rows = []
    all_ok = True
    for index in indices:
        root = spectrum.roots[index]
        cfg = None
        if any(v is not None for v in overrides):
            xmin, xmax = oracle.default_box(model)
            points = args.points
            if points is None:  # the default step, which samples the state
                points = oracle.default_verify_config(model, root).points
            cfg = _requested_grid(
                oracle.FdConfig,
                xmin=xmin if args.xmin is None else args.xmin,
                xmax=xmax if args.xmax is None else args.xmax,
                points=points,
            )
        try:
            report = oracle.verify_root(model, root, cfg=cfg, chain=spectrum.chain)
        except DegenerateGrid as exc:
            if cfg is None:
                raise
            raise InvalidParams(str(exc)) from exc  # the requested box is unusable
        row = _root_row(model, root)
        row["node_count"] = report.node_count
        row["verification"] = {
            "algebraic_energy": report.algebraic_energy,
            "nearest_fd_energy": report.nearest_fd_energy,
            "subgrid_fd_energy": report.subgrid_fd_energy,
            "richardson_energy": report.richardson_energy,
            "abs_gap": report.abs_gap,
            "extrapolation_error": report.extrapolation_error,
            "residual": report.residual,
            "converged": report.converged,
            "ambiguous": report.ambiguous,
        }
        if report.residual > VERIFY_RESIDUAL_MAX or not report.converged:
            all_ok = False
        rows.append(row)
    _write_result(_spectrum_result(args.model, spectrum, rows), args)
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_model_options(sub):
    sub.add_argument("--model", required=True, help="model id (see `models`)")
    sub.add_argument("--n", type=int, default=None,
                     help="polynomial slice count (or give --param M=...)")
    sub.add_argument("--param", action="append", default=[], metavar="K=V",
                     help="model parameter binding; repeatable")
    sub.add_argument("--scan-var", default=None,
                     help="optional scan-variable name; checked against the model")


def _add_output_options(sub, default_format):
    sub.add_argument("--format", choices=("json", "csv"), default=default_format,
                     help=f"output format (default {default_format})")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write to PATH instead of standard output")


@cache
def build_parser():
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="qespectra",
        description="Algebraic spectra of quasi-solvable potentials via "
                    "terminating recurrence chains, with a finite-difference "
                    "cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list the model catalog")
    _add_output_options(p, "json")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("roots", help="compute the algebraic root spectrum")
    _add_model_options(p)
    _add_output_options(p, "json")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("constraint",
                       help="tabulate the constraint polynomial over a range")
    _add_model_options(p)
    p.add_argument("--range", required=True, metavar="MIN:MAX:STEPS",
                   help="inclusive scan-variable range to tabulate "
                        "(write --range=MIN:MAX:STEPS when MIN is negative)")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_constraint)

    p = sub.add_parser("wavefunction",
                       help="emit one root's normalized wavefunction")
    _add_model_options(p)
    p.add_argument("--root-index", type=int, required=True,
                   help="index into the ascending root list (negatives allowed)")
    p.add_argument("--grid-l", type=float, default=None,
                   help="half-width of the sampling box (default: auto decay width)")
    p.add_argument("--grid-points", type=int, default=2001,
                   help="number of sampling points (default 2001)")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("verify",
                       help="finite-difference check of each algebraic root")
    _add_model_options(p)
    p.add_argument("--root-index", type=int, default=None,
                   help="verify only this root (default: all)")
    p.add_argument("--xmin", type=float, default=None,
                   help="override the verifier box lower edge (every line "
                        "model needs xmin = -xmax, coulomb xmin = 0)")
    p.add_argument("--xmax", type=float, default=None,
                   help="override the verifier box upper edge")
    p.add_argument("--points", type=int, default=None,
                   help="override the verifier grid point count")
    _add_output_options(p, "json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QesError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
