"""Catalog of quasi-exactly-solvable potential families.

Each model maps a one-dimensional Schrodinger problem, through a change of
variable ``z = z(x)`` and a prefactor ansatz ``psi = Q(x) * S(z(x))``, onto
the canonical ODE handled by :mod:`qespectra.recurrence`.  A model instance
carries the potential parameters that stay fixed plus the slice count ``n``;
the one remaining free parameter (the *scan variable*) is what the
constraint polynomial pins down.

Two families of scan variable occur:

* potential-scan models (both sech-power wells, the rational-in-cosh well,
  and the radial oscillator with a Coulomb term): the baseline condition
  eliminates the energy, and the constraint roots are admissible values of
  a potential coefficient (V3, V2 or beta), each with its energy fixed by
  the baseline;
* energy-scan models (the hyperbolic double wells): the potential is fully
  fixed and the constraint roots are the algebraic energies themselves.

Each model describes its recurrence once, by its ODE coefficient table;
:meth:`~qespectra.recurrence.OdeCoefficients.multiplicators` reads the
slice multiplicators straight off that table.  Every parameter is an exact
:class:`~fractions.Fraction` from the moment the model is built (a float
is taken as the binary rational it already is), so every table entry is
an exact rational.  Only the sech-power well classifies its admissible
potentials as double wells (``double_well``); the other models have no
such method.

Each class also declares its user-facing parameters once, as ``PARAMS``
(user name -> field).  A :data:`CATALOG` row adds only the fixed fields
(parity sector or chain variant) and the notes; :func:`catalog`,
:func:`make` and :func:`params` derive everything else from the class.

The hyperbolic double wells additionally come in a second algebraization
through the squared-sinh variable instead of squared-cosh.  Since
sinh^2 x = cosh^2 x - 1, its table is not written out: it is the cosh^2
table shifted to z = 1 + w by :func:`qespectra.recurrence.recentre`, the
same shift root finding applies to any chain.  The two catalog ids differ
in the coordinate their states are sampled on, and their exact constraints
agree, which the tests check.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .errors import BaselineUnsolvable, DomainError, InvalidParams
from .recurrence import OdeCoefficients, recentre


def _num(value):
    """A finite real parameter as a Fraction (a float is the binary rational it is)."""
    if not isinstance(value, str):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidParams(f"parameters must be finite real numbers, got {value!r}")


# Working precision (decimal digits) for rational square roots.
_SQRT_DIGITS = 10**40


def _sqrt(value):
    """Square root of a non-negative Fraction, as a Fraction.

    Perfect squares come back exact.  Anything else gets a 40-digit rational
    approximation via exact integer sqrt, so model tables stay in Fraction
    arithmetic throughout.  That matters: the map from table entries to the
    low-order solution coefficients amplifies input rounding by up to ~1e20
    for deep wells, so float(sqrt(...)) in a table poisons every sampled
    wavefunction downstream, while a 1e-40 rational detune of one table
    entry only redefines the solved Hamiltonian by the same negligible
    amount.
    """
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return Fraction(math.isqrt(num * den * _SQRT_DIGITS**2), den * _SQRT_DIGITS)


def _log_cosh(x):
    """log(cosh(x)) without overflow for large |x|."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidParams(f"slice count n must be a non-negative integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# sech-power triple well (scan variable V3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SechPowerWell:
    """V(x) = -V1 sech^6 x - V2 sech^4 x - V3 sech^2 x on the full line.

    The squared-tanh variable algebraizes each parity sector separately;
    ``parity`` selects the sector.  The baseline eliminates the energy
    through s = sqrt(-E), and the constraint roots are admissible V3 values.
    """

    v1: Fraction
    v2: Fraction
    n: int
    parity: str = "even"

    PARAMS: ClassVar[dict] = {"V1": "v1", "V2": "v2"}
    scan_name: ClassVar[str] = "V3"
    half_line: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "v1", _num(self.v1))
        object.__setattr__(self, "v2", _num(self.v2))
        object.__setattr__(self, "n", _check_n(self.n))
        if self.parity not in ("even", "odd"):
            raise InvalidParams(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if not self.v1 > 0:
            raise InvalidParams("V1 must be positive (it sets the depth scale)")

    # -- derived baseline quantities ------------------------------------
    @property
    def _r(self):
        return _sqrt(self.v1)

    @property
    def s(self):
        """sqrt(-E), fixed by the termination condition."""
        offset = Fraction(3 if self.parity == "even" else 5, 2)
        return -2 * self.n - (self.v1 + self.v2) / (2 * self._r) - offset

    def baseline(self):
        return ("sqrt_minus_E", self.s)

    def energy(self, root):
        s = float(self.s)
        return -s * s

    def ode_coefficients(self, scan):
        r, s = self._r, self.s
        if self.parity == "even":
            return OdeCoefficients(
                a3=0, a2=4, a1=-4,
                b2=4 * r, b1=6 + 4 * (s - r), b0=-2,
                c1=self.v1 + self.v2 + 3 * r + 2 * r * s,
                c0=s * (s + 1) - r - self.v1 - self.v2 - scan,
            )
        return OdeCoefficients(
            a3=0, a2=4, a1=-4,
            b2=4 * r, b1=10 + 4 * (s - r), b0=-6,
            c1=self.v1 + self.v2 + 5 * r + 2 * r * s,
            c0=(s + 1) * (s + 2) - 3 * r - self.v1 - self.v2 - scan,
        )

    def normalizable(self, root=None):
        bound = -((4 * self.n + (3 if self.parity == "even" else 5)) * self._r + self.v1)
        return self.v2 < bound

    def coordinate(self, x):
        return np.tanh(x) ** 2

    def prefactor(self, x):
        x = np.asarray(x, dtype=float)
        r, s = float(self._r), float(self.s)
        q = np.exp(0.5 * r * np.tanh(x) ** 2 - s * _log_cosh(x))
        if self.parity == "odd":
            q = q * np.tanh(x)
        return q

    def potential(self, x, scan):
        x = np.asarray(x, dtype=float)
        sech2 = 1.0 / np.cosh(x) ** 2
        return -(float(self.v1) * sech2 ** 3 + float(self.v2) * sech2 ** 2
                 + float(scan) * sech2)

    def double_well(self, scan):
        """True when the admissible potential has two symmetric minima."""
        v1, v2, v3 = float(self.v1), float(self.v2), float(scan)
        return v1 > 0 and v2 < 0 and v3 > 0 and (-v3 / (2 * v2)) < 1


# ---------------------------------------------------------------------------
# rational-in-cosh^2 well (scan variable V2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalCoshWell:
    """V(x) = V1/cosh^2 x + V2/(1 + g cosh^2 x) + V3/(1 + g cosh^2 x)^2.

    Algebraized through z = -sinh^2 x; the baseline fixes the energy from
    two exponents lam1, lam2 and the constraint roots are admissible V2
    values.  Only the lower branch of the lam2 quadratic gives decaying
    states, so that branch is hard-coded.
    """

    v1: Fraction
    v3: Fraction
    g: Fraction
    n: int
    parity: str = "even"

    PARAMS: ClassVar[dict] = {"V1": "v1", "V3": "v3", "g": "g"}
    scan_name: ClassVar[str] = "V2"
    half_line: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "v1", _num(self.v1))
        object.__setattr__(self, "v3", _num(self.v3))
        object.__setattr__(self, "g", _num(self.g))
        object.__setattr__(self, "n", _check_n(self.n))
        if self.parity not in ("even", "odd"):
            raise InvalidParams(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if not self.g > 0:
            raise InvalidParams("g must be positive")
        if 4 * self.v1 > 1:
            raise InvalidParams("V1 must satisfy 4*V1 <= 1 (real exponent lam1)")
        if self.v3 < -(1 + self.g):
            raise InvalidParams("V3 must satisfy V3 >= -(1+g) (real exponent lam2)")

    @property
    def lam1(self):
        return (1 + _sqrt(1 - 4 * self.v1)) / 4

    @property
    def lam2(self):
        return (1 - _sqrt(1 + self.v3 / (1 + self.g))) / 2

    @property
    def _en(self):
        L = self.lam1 + self.lam2
        if self.parity == "even":
            return -4 * (self.n + L) ** 2
        return -1 - 4 * (self.n + L) * (self.n + L + 1)

    def baseline(self):
        return ("E", self._en)

    def energy(self, root):
        return float(self._en)

    def ode_coefficients(self, scan):
        l1, l2, g = self.lam1, self.lam2, self.g
        L = l1 + l2
        en = self._en
        if self.parity == "even":
            return OdeCoefficients(
                a3=1, a2=-2 - 1 / g, a1=1 + 1 / g,
                b2=2 * L + 1,
                b1=-(2 * L + Fraction(3, 2) + (2 * l1 + 1) / g),
                b0=(1 + g) / (2 * g),
                c1=L * L + en / 4,
                c0=-(1 + g) / (4 * g) * (
                    2 * l1 + (2 * l2 * g - scan) / (1 + g)
                    - self.v1 - self.v3 / (1 + g) ** 2 + en
                ),
            )
        return OdeCoefficients(
            a3=1, a2=-2 - 1 / g, a1=1 + 1 / g,
            b2=2 * (L + 1),
            b1=-(2 * L + Fraction(7, 2) + 2 * (l1 + 1) / g),
            b0=3 * (1 + g) / (2 * g),
            c1=L * (L + 1) + (en + 1) / 4,
            c0=-(1 + g) / (4 * g) * (
                6 * l1 + 4 * l2 + 1 + (2 * l2 * g - scan) / (1 + g)
                - self.v1 - self.v3 / (1 + g) ** 2 + en
            ) + l2 / g,
        )

    def normalizable(self, root=None):
        L = self.lam1 + self.lam2
        if self.parity == "even":
            return L + self.n < 0
        return 2 * (L + self.n) < -1

    def coordinate(self, x):
        return -np.sinh(x) ** 2

    def prefactor(self, x):
        x = np.asarray(x, dtype=float)
        l1, l2, g = float(self.lam1), float(self.lam2), float(self.g)
        log_shell = np.logaddexp(0.0, math.log(g) + 2.0 * _log_cosh(x))
        q = np.exp(2.0 * l1 * _log_cosh(x) + l2 * log_shell)
        if self.parity == "odd":
            q = q * np.sinh(x)
        return q

    def potential(self, x, scan):
        x = np.asarray(x, dtype=float)
        c2 = np.cosh(x) ** 2
        shell = 1.0 + float(self.g) * c2
        return float(self.v1) / c2 + float(scan) / shell + float(self.v3) / shell ** 2


# ---------------------------------------------------------------------------
# radial oscillator with a Coulomb term (scan variable beta)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoulombOscillator:
    """u'' + (eps + lam + 1/2 - x^2/4 - lam(lam-1)/x^2 + beta/x) u = 0 on x > 0.

    In these rescaled units the eigenvalue alpha/omega equals
    n + lam + 1/2 on the baseline, the polynomial variable is x itself, and
    the constraint roots are the admissible Coulomb strengths beta.  The
    physical coupling is beta * sqrt(omega/2); the default omega = 2 makes
    the rescaling the identity.
    """

    lam: Fraction
    omega: Fraction = 2
    n: int = 0

    PARAMS: ClassVar[dict] = {"lambda": "lam", "omega": "omega"}
    scan_name: ClassVar[str] = "beta"
    half_line: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "lam", _num(self.lam))
        object.__setattr__(self, "omega", _num(self.omega))
        object.__setattr__(self, "n", _check_n(self.n))
        if not self.omega > 0:
            raise InvalidParams("omega must be positive")
        if not 2 * self.lam > -1:
            raise InvalidParams("lam must exceed -1/2 for a normalizable origin")

    def baseline(self):
        return ("epsilon", self.n)

    def energy(self, root):
        """Eigenvalue alpha/omega; independent of which beta root is taken."""
        return float(self.n + self.lam + Fraction(1, 2))

    def beta_physical(self, root):
        return float(root) * math.sqrt(float(self.omega) / 2.0)

    def ode_coefficients(self, scan):
        return OdeCoefficients(
            a3=0, a2=0, a1=1,
            b2=-1, b1=0, b0=2 * self.lam,
            c1=self.n, c0=scan,
        )

    def normalizable(self, root=None):
        return True

    def coordinate(self, x):
        return np.asarray(x, dtype=float)

    def prefactor(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("the radial coordinate must be positive")
        return np.exp(float(self.lam) * np.log(x) - 0.25 * x * x)

    def potential(self, x, scan):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("the radial coordinate must be positive")
        lam = float(self.lam)
        return lam * (lam - 1) / x ** 2 + 0.25 * x * x - float(scan) / x


# ---------------------------------------------------------------------------
# hyperbolic double wells (energy scan)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicDoubleWell:
    """V(x) = (xi^2/4) sinh^2 2x - (M+1) xi cosh 2x with M = 2n + alpha + beta.

    The exponents alpha, beta in {0, 1} select the parity sector.  Both the
    squared-cosh and the squared-sinh algebraizations are provided; they
    share potential, prefactor and spectrum, and the sinh^2 table is the
    cosh^2 one re-centred at z = 1.
    """

    xi: Fraction
    alpha: int
    beta: int
    n: int
    variant: str = "cosh2"

    PARAMS: ClassVar[dict] = {"xi": "xi", "alpha": "alpha", "beta": "beta"}
    scan_name: ClassVar[str] = "E"
    half_line: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "xi", _num(self.xi))
        object.__setattr__(self, "n", _check_n(self.n))
        if not self.xi > 0:
            raise InvalidParams("xi must be positive")
        if self.alpha not in (0, 1) or self.beta not in (0, 1):
            raise InvalidParams("alpha and beta must each be 0 or 1")
        object.__setattr__(self, "alpha", int(self.alpha))
        object.__setattr__(self, "beta", int(self.beta))
        if self.variant not in ("cosh2", "sinh2"):
            raise InvalidParams(f"unknown variant {self.variant!r}")

    @property
    def m_quantum(self):
        return 2 * self.n + self.alpha + self.beta

    @property
    def parity(self):
        return "odd" if self.beta == 1 else "even"

    def baseline(self):
        return ("M", self.m_quantum)

    def energy(self, root):
        return float(root)

    def ode_coefficients(self, scan):
        xi, a, b, m = self.xi, self.alpha, self.beta, self.m_quantum
        ode = OdeCoefficients(
            a3=0, a2=4, a1=-4,
            b2=-4 * xi, b1=4 * (a + b + xi + 1), b0=-2 * (2 * a + 1),
            c1=2 * xi * (m - a - b),
            c0=scan + (a + b) ** 2 + xi * (2 * a - m),
        )
        # sinh^2 x = cosh^2 x - 1
        return ode if self.variant == "cosh2" else recentre(ode, 1)

    def normalizable(self, root=None):
        return True

    def coordinate(self, x):
        x = np.asarray(x, dtype=float)
        if self.variant == "cosh2":
            return np.cosh(x) ** 2
        return np.sinh(x) ** 2

    def prefactor(self, x):
        x = np.asarray(x, dtype=float)
        q = np.exp(-0.25 * float(self.xi) * np.cosh(2 * x))
        if self.alpha:
            q = q * np.cosh(x)
        if self.beta:
            q = q * np.sinh(x)
        return q

    def potential(self, x, scan=None):
        x = np.asarray(x, dtype=float)
        xi, m = float(self.xi), float(self.m_quantum)
        return 0.25 * xi * xi * np.sinh(2 * x) ** 2 - (m + 1) * xi * np.cosh(2 * x)


@dataclass(frozen=True)
class ShiftedGaussWell:
    """V(x) = (xi cosh 2x - M)^2 with M = n + 1, in the exponential variable.

    The natural polynomial variable is z = exp(2x), which covers the whole
    line in one chart; parity is not built into the ansatz and emerges only
    numerically.  Scan variable is the energy.
    """

    xi: Fraction
    n: int

    PARAMS: ClassVar[dict] = {"xi": "xi"}
    scan_name: ClassVar[str] = "E"
    half_line: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "xi", _num(self.xi))
        object.__setattr__(self, "n", _check_n(self.n))
        if not self.xi > 0:
            raise InvalidParams("xi must be positive")

    @property
    def m_quantum(self):
        return self.n + 1

    def baseline(self):
        return ("M", self.m_quantum)

    def energy(self, root):
        return float(root)

    def ode_coefficients(self, scan):
        xi, m = self.xi, self.m_quantum
        return OdeCoefficients(
            a3=0, a2=4, a1=0,
            b2=-2 * xi, b1=8 - 4 * m, b0=2 * xi,
            c1=2 * xi * (m - 1),
            c0=scan + 1 - 2 * m - xi * xi,
        )

    def normalizable(self, root=None):
        return True

    def coordinate(self, x):
        return np.exp(2.0 * np.asarray(x, dtype=float))

    def prefactor(self, x):
        x = np.asarray(x, dtype=float)
        xi, m = float(self.xi), float(self.m_quantum)
        return np.exp((1.0 - m) * x - 0.5 * xi * np.cosh(2 * x))

    def potential(self, x, scan=None):
        x = np.asarray(x, dtype=float)
        xi, m = float(self.xi), float(self.m_quantum)
        return (xi * np.cosh(2 * x) - m) ** 2


@dataclass(frozen=True)
class PerturbedGaussWell:
    """The squared shifted-cosh well plus inverse-square barrier terms:

        V(x) = (xi cosh 2x - M)^2 - alpha(alpha-1)/cosh^2 x + beta(beta-1)/sinh^2 x

    with M = 2n + alpha + beta + 1.  Integer beta in {0, 1} gives the usual
    full-line parity sectors; fractional beta in (0, 1) keeps the chain
    perfectly sensible but the wavefunction only lives on the half line
    (the sinh^beta factor has a branch point at the origin).
    """

    xi: Fraction
    alpha: Fraction
    beta: Fraction
    n: int
    variant: str = "cosh2"

    PARAMS: ClassVar[dict] = {"xi": "xi", "alpha": "alpha", "beta": "beta"}
    scan_name: ClassVar[str] = "E"

    def __post_init__(self):
        object.__setattr__(self, "xi", _num(self.xi))
        object.__setattr__(self, "alpha", _num(self.alpha))
        object.__setattr__(self, "beta", _num(self.beta))
        object.__setattr__(self, "n", _check_n(self.n))
        if not self.xi > 0:
            raise InvalidParams("xi must be positive")
        if self.beta < 0 or self.beta > 1 or 2 * self.beta == 1:
            raise InvalidParams(
                "beta must lie in [0, 1] excluding 1/2 "
                "(inverse-square coupling in (-1/4, 0])"
            )
        if self.variant not in ("cosh2", "sinh2"):
            raise InvalidParams(f"unknown variant {self.variant!r}")

    @property
    def m_quantum(self):
        return 2 * self.n + self.alpha + self.beta + 1

    @property
    def half_line(self):
        return self.beta not in (0, 1)

    @property
    def parity(self):
        if self.beta == 0:
            return "even"
        if self.beta == 1:
            return "odd"
        return "none"

    def baseline(self):
        return ("M", self.m_quantum)

    def energy(self, root):
        return float(root)

    def ode_coefficients(self, scan):
        xi, a, b, m = self.xi, self.alpha, self.beta, self.m_quantum
        ode = OdeCoefficients(
            a3=0, a2=4, a1=-4,
            b2=-8 * xi, b1=4 * (a + b + 2 * xi + 1), b0=-2 * (2 * a + 1),
            c1=4 * xi * (m - a - b - 1),
            c0=scan - m * m - xi * xi + (a + b) ** 2 + 2 * xi * (2 * a - m + 1),
        )
        # sinh^2 x = cosh^2 x - 1
        return ode if self.variant == "cosh2" else recentre(ode, 1)

    def normalizable(self, root=None):
        return True

    def coordinate(self, x):
        x = np.asarray(x, dtype=float)
        if self.variant == "cosh2":
            return np.cosh(x) ** 2
        return np.sinh(x) ** 2

    def prefactor(self, x):
        x = np.asarray(x, dtype=float)
        a, b = float(self.alpha), float(self.beta)
        if self.half_line and np.any(x <= 0):
            raise DomainError(
                "fractional beta confines the wavefunction to the half line x > 0"
            )
        q = np.exp(-0.5 * float(self.xi) * np.cosh(2 * x))
        if a:
            q = q * np.cosh(x) ** a
        if b == 1:
            q = q * np.sinh(x)
        elif b:
            q = q * np.sinh(x) ** b
        return q

    def potential(self, x, scan=None):
        x = np.asarray(x, dtype=float)
        xi, m = float(self.xi), float(self.m_quantum)
        a, b = float(self.alpha), float(self.beta)
        v = (xi * np.cosh(2 * x) - m) ** 2
        v = v - a * (a - 1) / np.cosh(x) ** 2
        if b * (b - 1) != 0:
            v = v + b * (b - 1) / np.sinh(x) ** 2
        return v


# ---------------------------------------------------------------------------
# registry and construction
# ---------------------------------------------------------------------------

# model id -> (class, fixed fields, summary, admissibility note).  Everything
# else the catalog lists is read off the class.
CATALOG = {
    "xie-even": (
        SechPowerWell, {"parity": "even"},
        "sech-power triple well, even sector; roots are V3 values",
        "V1 > 0; normalizable needs V2 < -(4n+3)*sqrt(V1) - V1"),
    "xie-odd": (
        SechPowerWell, {"parity": "odd"},
        "sech-power triple well, odd sector; roots are V3 values",
        "V1 > 0; normalizable needs V2 < -(4n+5)*sqrt(V1) - V1"),
    "chen-even": (
        RationalCoshWell, {"parity": "even"},
        "rational-in-cosh^2 well, even sector; roots are V2 values",
        "g > 0; 4*V1 <= 1; V3 >= -(1+g)"),
    "chen-odd": (
        RationalCoshWell, {"parity": "odd"},
        "rational-in-cosh^2 well, odd sector; roots are V2 values",
        "g > 0; 4*V1 <= 1; V3 >= -(1+g)"),
    "coulomb": (
        CoulombOscillator, {},
        "radial oscillator with Coulomb term; roots are beta values",
        "omega > 0; lambda > -1/2"),
    "razavy": (
        HyperbolicDoubleWell, {"variant": "cosh2"},
        "hyperbolic double well; roots are energies (cosh^2 chain)",
        "xi > 0; alpha and beta each 0 or 1"),
    "razavy-sinh2": (
        HyperbolicDoubleWell, {"variant": "sinh2"},
        "hyperbolic double well; sinh^2 chain (same spectrum)",
        "xi > 0; alpha and beta each 0 or 1"),
    "dshg": (
        ShiftedGaussWell, {},
        "squared shifted-cosh well in the exponential variable",
        "xi > 0; M = n + 1"),
    "perturbed-dshg": (
        PerturbedGaussWell, {"variant": "cosh2"},
        "squared shifted-cosh well with inverse-square terms (cosh^2 chain)",
        "xi > 0; beta in [0, 1] excluding 1/2; the four (alpha, beta) "
        "parity choices form the quadruplet that covers one level family"),
    "perturbed-dshg-sinh2": (
        PerturbedGaussWell, {"variant": "sinh2"},
        "perturbed well through the sinh^2 chain (same spectrum)",
        "xi > 0; beta in [0, 1] excluding 1/2; the four (alpha, beta) "
        "parity choices form the quadruplet that covers one level family"),
}


def _defaults(cls):
    """Dataclass defaults of the user-facing parameters that have one."""
    default = {f.name: f.default for f in fields(cls)}
    return {
        name: default[field]
        for name, field in cls.PARAMS.items()
        if default[field] is not MISSING
    }


def catalog():
    """Machine-readable list of available models for the CLI."""
    return [
        {
            "model": key,
            "scan_variable": cls.scan_name,
            "parameters": list(cls.PARAMS),
            "defaults": _defaults(cls),
            "summary": summary,
            "constraints": constraints,
        }
        for key, (cls, _, summary, constraints) in CATALOG.items()
    ]


def params(model):
    """A model instance's parameters under their user-facing names."""
    return {name: getattr(model, field) for name, field in model.PARAMS.items()}


def _n_for_m(build, m):
    """The slice count n with ``m_quantum == m``, solved exactly.

    ``m_quantum`` is affine in n, so the instances at n = 0 and n = 1 fix
    it; M is reachable only when n comes out a non-negative integer.
    """
    m0 = Fraction(build(0).m_quantum)
    step = Fraction(build(1).m_quantum) - m0
    n = (_num(m) - m0) / step
    if n.denominator != 1 or n < 0:
        raise BaselineUnsolvable(
            f"M = {m} is not reachable: M = {m0} + {step}*n needs an integer n >= 0"
        )
    return int(n)


def make(model_id, n=None, params=None):
    """Build a model instance from user-facing names and a parameter dict.

    ``params`` keys are case-insensitive and may also be the field names
    (``lam`` for ``lambda``); energy-scan models accept ``M`` instead of
    (or alongside, consistently) ``n``.
    """
    if model_id not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise InvalidParams(f"unknown model {model_id!r}; known models: {known}")
    cls, fixed, _, _ = CATALOG[model_id]
    spelled = {}
    for name, field in cls.PARAMS.items():
        spelled[name.lower()] = spelled[field.lower()] = name
    values = _defaults(cls)
    m_given = None
    for key, value in (params or {}).items():
        lowered = str(key).lower()
        if lowered == "m" and hasattr(cls, "m_quantum"):
            m_given = value
        elif lowered in spelled:
            values[spelled[lowered]] = value
        else:
            raise InvalidParams(f"unknown parameter {key!r} for model {model_id!r}")
    missing = [name for name in cls.PARAMS if name not in values]
    if missing:
        raise InvalidParams(f"model {model_id!r} is missing parameters: {missing}")
    kwargs = {cls.PARAMS[name]: value for name, value in values.items()}

    def build(k):
        return cls(n=k, **fixed, **kwargs)

    if m_given is not None:
        n_from_m = _n_for_m(build, m_given)
        if n is None:
            n = n_from_m
        elif int(n) != n_from_m:
            raise InvalidParams(
                f"inconsistent n={n} and M={m_given} (M implies n={n_from_m})"
            )
    if n is None:
        raise InvalidParams("the slice count n (or, for energy scans, M) is required")
    return build(int(n))
