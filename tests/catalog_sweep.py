"""Sweep the finite-difference verdicts of the catalog at n = 3, 10, 15 and 20.

Every CATALOG_PARAMS model (see conftest.py) is solved at each n, and each
of its roots is checked by ``oracle.verify_root`` on its default grid, as
the state of its own model and chain (``Spectrum.states``: dshg's are its
parity sectors').  A
state's verdict is three words: whether it passes test_09's gates
(abs_gap < 1e-3, residual < 1e-4 and converged), whether it converged,
and whether it is ambiguous.  A model or state the pipeline refuses reads
the class of its error.  The verdicts must equal the table pinned in
catalog_verdicts.txt, and the worst gap of a passing state must keep the
margin GAP_MARGIN under the 1e-3 gate.

    PYTHONPATH=src python tests/catalog_sweep.py            # check; exit 1 if a verdict moved
    PYTHONPATH=src python tests/catalog_sweep.py --write    # rewrite the table
    PYTHONPATH=src python tests/catalog_sweep.py --print 25 30 40  # print, check nothing

``--print`` writes the verdict lines at other chain lengths in the table's
format, to diff two trees at lengths the table does not pin.

pytest does not collect this file (its name does not start with test_);
it takes ~8 s on one core of a 2-core x86-64 VM.  Rewrite the table only
behind a change that means to move a verdict, and say which moved.
"""

import argparse
import os
import sys

from conftest import CATALOG_PARAMS, GAP_MARGIN
from qespectra import models, oracle, solve
from qespectra.errors import QesError

CHAIN_LENGTHS = (3, 10, 15, 20)
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog_verdicts.txt")


def sweep(chain_lengths=CHAIN_LENGTHS):
    """{(model id, n, root index): verdict}, and the worst passing gap."""
    verdicts, worst = {}, 0.0
    for model_id in sorted(CATALOG_PARAMS):
        for n in chain_lengths:
            try:
                model = models.make(model_id, n, CATALOG_PARAMS[model_id])
                spectrum = solve(model)
            except QesError as exc:
                verdicts[model_id, n, "-"] = f"error:{type(exc).__name__}"
                continue
            for index, (root, (state, chain)) in enumerate(zip(spectrum.roots, spectrum.states)):
                try:
                    report = oracle.verify_root(state, root, chain=chain)
                except QesError as exc:
                    verdicts[model_id, n, str(index)] = f"error:{type(exc).__name__}"
                    continue
                ok = report.abs_gap < 1e-3 and report.residual < 1e-4 and report.converged
                if ok:
                    worst = max(worst, report.abs_gap)
                verdicts[model_id, n, str(index)] = " ".join((
                    "pass" if ok else "fail",
                    "converged" if report.converged else "unconverged",
                    "ambiguous" if report.ambiguous else "clear",
                ))
    return verdicts, worst


def read_table():
    """The pinned verdicts, keyed as :func:`sweep` keys them."""
    table = {}
    with open(TABLE) as lines:
        for line in lines:
            if line.strip() and not line.startswith("#"):
                model_id, n, index, verdict = line.split(maxsplit=3)
                table[model_id, int(n), index] = verdict.strip()
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite the pinned table")
    mode.add_argument("--print", type=int, nargs="+", metavar="N", dest="lengths",
                      help="print the verdicts at these chain lengths and check nothing")
    args = parser.parse_args(argv)
    if args.lengths:
        for (model_id, n, index), verdict in sweep(args.lengths)[0].items():
            print(model_id, n, index, verdict)
        return 0
    verdicts, worst = sweep()
    if args.write:
        with open(TABLE, "w") as out:
            out.write("# model n root verdict: written by tests/catalog_sweep.py --write\n")
            for (model_id, n, index), verdict in verdicts.items():
                out.write(f"{model_id} {n} {index} {verdict}\n")
    table = read_table()
    moved = [
        f"{' '.join(map(str, key))}: {table.get(key)} -> {verdicts.get(key)}"
        for key in sorted(table.keys() | verdicts.keys())
        if table.get(key) != verdicts.get(key)
    ]
    passed = sum(verdict.startswith("pass") for verdict in verdicts.values())
    print(f"{len(verdicts)} entries, {passed} pass; worst passing abs_gap {worst:.3g}")
    for line in moved:
        print("moved:", line)
    if worst > GAP_MARGIN:
        print(f"the worst passing abs_gap exceeds {GAP_MARGIN:g}")
    return 1 if moved or worst > GAP_MARGIN else 0


if __name__ == "__main__":
    sys.exit(main())
