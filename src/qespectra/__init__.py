"""Algebraic spectra of quasi-solvable Schrödinger potentials.

The package computes the polynomial-sector ("algebraic") part of the
spectrum for a catalog of one-dimensional and radial potentials whose
bound-state equation, after a change of variable and gauge factor, closes on
a finite polynomial space:

* ``models`` — the potential catalog: coefficient tables, baselines,
  prefactors, potentials;
* ``recurrence`` — gradation slicing of the canonical equation into a
  terminating three-term recurrence and the constraint polynomial whose
  roots are the algebraic spectrum;
* ``polynomials`` — canonical chain form, and root extraction by a
  symmetric-tridiagonal eigensolve with Newton polishing;
* ``wavefunctions`` — exact assembly and stable sampling of the polynomial
  wavefunctions, node counting, parity;
* ``oracle`` — independent finite-difference verification of every
  algebraic energy;
* ``cli`` — the ``qespectra`` command.
"""

from . import errors, models, oracle, polynomials, recurrence, wavefunctions
from .errors import QesError
from .models import catalog, make
from .oracle import FdConfig, VerificationReport, verify_root
from .polynomials import RootSet, real_roots, to_canonical_ttrr
from .recurrence import build_baseline, exact_solution, run_ttrr, solve
from .wavefunctions import sample

__version__ = "0.1.0"

__all__ = [
    "FdConfig",
    "QesError",
    "RootSet",
    "VerificationReport",
    "__version__",
    "build_baseline",
    "catalog",
    "cli",
    "errors",
    "exact_solution",
    "make",
    "models",
    "oracle",
    "polynomials",
    "real_roots",
    "recurrence",
    "run_ttrr",
    "sample",
    "solve",
    "to_canonical_ttrr",
    "verify_root",
]
