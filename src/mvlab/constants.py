"""The constant ledger: closed-form roots, mean-value right-hand sides, and
the quantization dichotomy."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import BothLinearTermsZero, BothNonlinearitiesZero, MVLabError, RadiusOutOfRange
from .grid import SUPPORTED_DIMENSIONS
from .report import record


@dataclass(frozen=True)
class BoundParams:
    """Constants of the hypotheses
    Delta e <= A0 + A1 e + a e^((n+2)/n)  and
    d e / d nu <= B0 + B1 e + b e^((n+1)/n)."""

    n: int
    A0: float = 0.0
    A1: float = 0.0
    a: float = 0.0
    B0: float = 0.0
    B1: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.n not in SUPPORTED_DIMENSIONS:
            raise MVLabError(f"dimension {self.n} not in {SUPPORTED_DIMENSIONS}")
        for name in ("A0", "A1", "a", "B0", "B1", "b"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # False at NaN too
                raise MVLabError(f"bound constant {name!r} must be finite and >= 0, "
                                 f"got {value!r}")


def epsilon_ab(a: float, b: float, c: float) -> float:
    """Unique positive root of a*eps^2 + b*eps = 1/(2c).

    Uses the conjugate form 2q / (b + sqrt(b^2 + 4aq)) with q = 1/(2c),
    which stays accurate when b^2 dominates the discriminant."""
    if a < 0 or b < 0 or not 0.0 < c < math.inf:
        raise MVLabError(f"epsilon_ab needs a, b >= 0 and a finite master constant 'C' > 0, "
                         f"got {c!r}")
    if a == 0 and b == 0:
        raise BothNonlinearitiesZero(
            "a = b = 0 has no root; the linear theory needs no energy threshold")
    q = 0.5 / c
    try:
        root = q / b if a == 0 else 2.0 * q / (b + math.sqrt(b * b + 4.0 * a * q))
    except ZeroDivisionError:  # 4aq underflowed with b = 0
        root = math.inf
    if not math.isfinite(root) or root <= 0.0:
        raise MVLabError(
            f"root of a*eps^2 + b*eps = {q} overflows for a={a}, b={b}")
    return root


def mu_ab(a: float, b: float, c: float, n: int) -> float:
    """Energy quantum hbar = eps(a,b)^n / (2c)."""
    if n not in SUPPORTED_DIMENSIONS:
        raise MVLabError(f"dimension {n} not in {SUPPORTED_DIMENSIONS}")
    return epsilon_ab(a, b, c) ** n / (2.0 * c)


def interior_rhs(params: BoundParams, r: float, energy: float, c: float) -> float:
    """Right-hand side c*A0*r^2 + c*(A1^(n/2) + r^-n)*energy of the interior
    mean value inequality (stated for radii r <= 1)."""
    if not 0.0 < r <= 1.0:
        raise RadiusOutOfRange(f"interior inequality requires 0 < r <= 1, got {r}")
    if energy < 0:
        raise MVLabError("energy must be nonnegative")
    n = params.n
    return c * params.A0 * r**2 + c * (params.A1 ** (n / 2.0) + r ** (-n)) * energy


def boundary_rhs(params: BoundParams, r: float, energy: float, c: float) -> float:
    """Right-hand side c*A0*r^2 + c*B0*r + c*(A1^(n/2) + B1^n + r^-n)*energy
    of the boundary mean value inequality (any r > 0)."""
    if r <= 0:
        raise MVLabError("radius must be positive")
    if energy < 0:
        raise MVLabError("energy must be nonnegative")
    n = params.n
    bracket = params.A1 ** (n / 2.0) + params.B1 ** n + r ** (-n)
    return c * params.A0 * r**2 + c * params.B0 * r + c * bracket * energy


class DichotomyBranch(str, Enum):
    CONCENTRATION_FORCED = "ConcentrationForced"
    BOUND_CONSISTENT = "BoundConsistent"


@dataclass(frozen=True)
class DichotomyResult:
    R: float
    lhs: float
    rhs: float
    branch: DichotomyBranch

    @property
    def forced(self) -> bool:
        return self.branch is DichotomyBranch.CONCENTRATION_FORCED


def quantization_dichotomy(R: float, params: BoundParams, hbar: float,
                           c: float) -> DichotomyResult:
    """Compare R^(n/2) against the rescaled mean-value bound.

    When the left side wins, the low-energy alternative is impossible, so the
    ball of radius R^(-1/2) around the blow-up witness must carry more than
    hbar of energy. Ties go to BoundConsistent (concentration needs strict
    inequality)."""
    if R <= 0:
        raise MVLabError("R must be positive")
    n = params.n
    lhs = R ** (n / 2.0)
    rhs = (c * params.A0 * R ** (-(n + 2) / 2.0)
           + c * params.B0 * R ** (-(n + 1) / 2.0)
           + c * hbar * (params.A1 ** (n / 2.0) * R ** (-n / 2.0)
                         + params.B1 ** n * R ** (-n / 2.0)
                         + 1.0))
    branch = (DichotomyBranch.CONCENTRATION_FORCED if lhs > rhs
              else DichotomyBranch.BOUND_CONSISTENT)
    return DichotomyResult(float(R), float(lhs), float(rhs), branch)


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    precondition_holds: bool
    lower_bound: float
    value: float

    @property
    def bound_holds(self) -> bool:
        return (not self.precondition_holds) or self.value >= self.lower_bound - 1e-12


@dataclass(frozen=True)
class EpsilonPrimeResult:
    value: float           # eps', already divided by r
    capped: bool           # True when the cap branch eps' = eps applied
    certificates: tuple[CertificateCheck, ...]

    def all_certified(self) -> bool:
        return any(c.precondition_holds and c.bound_holds for c in self.certificates)


def epsilon_prime(params: BoundParams, r: float, c: float, eps: float) -> EpsilonPrimeResult:
    """Positive root of A1 (eps' r)^2 + B1 (eps' r) = 2^(-n-1) / c, divided
    by r and capped at ``eps`` when the equation value at eps*r already sits
    below the target.

    The completion-of-square lower bounds are evaluated with the renormalized
    constant c_eff = 2^(n+1) c, for which the root equation reads
    A1 t^2 + B1 t = 1/c_eff: either B1 <= 2 sqrt(A1 / c_eff) and
    t >= (sqrt 2 - 1) / sqrt(c_eff A1), or A1 <= c_eff B1^2 / 4 and
    t >= 2 (sqrt 2 - 1) / (c_eff B1). Certificates apply to the uncapped root.
    """
    if r <= 0 or c <= 0:
        raise MVLabError("epsilon_prime needs r > 0 and c > 0")
    if not 0.0 < eps <= 0.5:
        raise MVLabError(f"eps must lie in (0, 1/2], got {eps}")
    a1, b1 = params.A1, params.B1
    if a1 == 0 and b1 == 0:
        raise BothLinearTermsZero(
            "A1 = B1 = 0: the root equation is empty and the cap always applies")
    n = params.n
    target = 2.0 ** (-n - 1) / c

    at_eps = a1 * (eps * r) ** 2 + b1 * (eps * r)
    if at_eps <= target:
        capped = True
        value = eps
        t = eps * r
    else:
        capped = False
        if a1 == 0:
            t = target / b1
        else:
            t = 2.0 * target / (b1 + math.sqrt(b1 * b1 + 4.0 * a1 * target))
        value = t / r

    c_eff = 2.0 ** (n + 1) * c
    certs = []
    if not capped:
        pre1 = b1 <= 2.0 * math.sqrt(a1 / c_eff) if a1 > 0 else False
        lb1 = (math.sqrt(2.0) - 1.0) / math.sqrt(c_eff * a1) if a1 > 0 else math.inf
        certs.append(CertificateCheck("linear_term_small", pre1, lb1, t))
        pre2 = a1 <= 0.25 * c_eff * b1 * b1 if b1 > 0 else False
        lb2 = 2.0 * (math.sqrt(2.0) - 1.0) / (c_eff * b1) if b1 > 0 else math.inf
        certs.append(CertificateCheck("quadratic_term_small", pre2, lb2, t))
    return EpsilonPrimeResult(float(value), capped, tuple(certs))


class Provenance(str, Enum):
    CONFIGURED = "configured"
    MEASURED = "measured"
    DERIVED = "derived"


@dataclass(frozen=True)
class ConstantLedger:
    """All constants a verification run depends on, with provenance.

    hbar is definitionally mu(a, b); no independent hbar is accepted. With
    a = b = 0 the nonlinear threshold is vacuous and eps/mu/hbar are None.
    """

    n: int
    c_master: float
    delta: float
    a: float
    b: float
    eps_ab: float | None
    mu_ab: float | None
    hbar: float | None
    eps_prime: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.c_master < math.inf:  # False at NaN too
            raise MVLabError(f"ledger 'C' must be finite and > 0, got {self.c_master!r}")
        if not 0.0 <= self.delta < math.inf:
            raise MVLabError(f"ledger 'delta' must be finite and >= 0, got {self.delta!r}")
        if self.a + self.b > 0:
            residual = abs(self.a * self.eps_ab**2 + self.b * self.eps_ab
                           - 0.5 / self.c_master)
            if residual >= 1e-12:
                raise MVLabError(f"eps(a,b) root residual {residual} too large")
            if self.mu_ab != self.eps_ab**self.n / (2.0 * self.c_master):
                raise MVLabError("mu(a,b) inconsistent with eps(a,b)")
            if self.hbar != self.mu_ab:
                raise MVLabError("hbar must equal mu(a,b)")

    def energy_threshold_interior(self) -> float:
        """mu * a^(-n/2), the interior small-energy hypothesis (inf if a=0)."""
        if self.a == 0 or self.mu_ab is None:
            return math.inf
        return self.mu_ab * self.a ** (-self.n / 2.0)

    def energy_threshold_boundary(self) -> float:
        """mu(a, b), the boundary small-energy hypothesis (inf if a=b=0)."""
        return math.inf if self.mu_ab is None else self.mu_ab

    def as_dict(self) -> dict:
        return record(self)

    def with_eps_prime(self, value: float) -> "ConstantLedger":
        prov = dict(self.provenance)
        prov["eps_prime"] = Provenance.DERIVED.value
        return replace(self, eps_prime=value, provenance=prov)


def make_ledger(n: int, a: float, b: float, c: float, delta: float = 0.05,
                c_provenance: Provenance | str = Provenance.CONFIGURED) -> ConstantLedger:
    """Assemble a ledger from the nonlinearities and the master constant."""
    if isinstance(c_provenance, Provenance):
        c_provenance = c_provenance.value
    prov = {
        "c_master": c_provenance,
        "delta": Provenance.CONFIGURED.value,
        "a": Provenance.CONFIGURED.value,
        "b": Provenance.CONFIGURED.value,
    }
    if a == 0 and b == 0:
        eps = mu = hbar = None
        prov["eps_ab"] = prov["mu_ab"] = prov["hbar"] = "vacuous"
    else:
        eps = epsilon_ab(a, b, c)
        mu = eps**n / (2.0 * c)
        hbar = mu
        prov["eps_ab"] = prov["mu_ab"] = prov["hbar"] = Provenance.DERIVED.value
    return ConstantLedger(n, float(c), float(delta), float(a), float(b),
                          eps, mu, hbar, provenance=prov)
