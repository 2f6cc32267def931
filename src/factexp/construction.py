"""Representing e_p(n) modulo m by a completely q-additive function.

For an odd prime p and a modulus m >= 2 with p not dividing m, let
lambda be the least positive integer with the base-p repunit
(p^lambda - 1)/(p - 1) divisible by m.  On base q = p^lambda, the
function whose value at 0 <= a < q with base-p digits a_0..a_{lambda-1}
is

    f(a) = sum_j a_j * (p^j - 1)/(p - 1)

is completely q-additive and satisfies f(n) = e_p(n) (mod m) for every
n >= 0: folding the digit-weight identity for e_p through j mod lambda
only changes each weight by a multiple of m.  Its invariants come out
F = 0 (the weight at j = 0 vanishes) and d = 1 (f(p) - p*F = 1), so any
collection of these functions on distinct primes passes the joint-system
hypotheses, giving equidistribution of the residue tuples of
(e_{p_1}(n), ..., e_{p_k}(n)) with error exponent
1/(120 k^2 p^{3m} m^2).

The coverage functions at the bottom quantify the same machinery aimed
at parity patterns over the first k odd primes: a scan bound satisfying
`coverage_log_threshold` guarantees every length-k pattern appears, and
`coverage_depth` inverts that guarantee into a pattern length as a
function of the bound.  The thresholds are astronomically large; they
are formula-level tools, not scan parameters.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import e as _E, floor, gcd, log

import numpy as np

from .experiments import ScanConfig, map_spans
from .exponents import exponent_range
from .primes import is_prime, nth_odd_prime
from .qadditive import (
    TABLE_CAP,
    QAdditiveFunction,
    derive_invariants,
    evaluate_range,
    kim_error_exponent,
)

__all__ = [
    "LambdaCertificate",
    "ConstructionResult",
    "CongruenceReport",
    "CoverageParams",
    "euler_phi",
    "split_modulus",
    "lambda_index",
    "build_function",
    "folded_value",
    "verify_congruence",
    "construction_error_exponent",
    "coverage_log_threshold",
    "coverage_depth",
    "nth_odd_prime",
]


def _require_odd_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    if p == 2:
        raise ValueError(
            "the construction is defined for odd primes only; "
            "the scan harness handles p = 2 directly"
        )


def euler_phi(n: int) -> int:
    """Euler's totient by trial-division factorization."""
    if n < 1:
        raise ValueError(f"totient needs n >= 1, got {n}")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            pe = 1
            while n % d == 0:
                n //= d
                pe *= d
            result *= pe - pe // d
        d += 1 if d == 2 else 2
    if n > 1:
        result *= n - 1
    return result


def split_modulus(p: int, m: int) -> tuple[int, int]:
    """Split m = m' * m'' with m' carrying exactly the prime powers of m
    whose primes divide p - 1, and m'' coprime to p - 1."""
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    m_prime = 1
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            pe = 1
            while rest % d == 0:
                rest //= d
                pe *= d
            if (p - 1) % d == 0:
                m_prime *= pe
        d += 1 if d == 2 else 2
    if rest > 1 and (p - 1) % rest == 0:
        m_prime *= rest
    return m_prime, m // m_prime


def _only_factors_of(x: int, base: int) -> bool:
    """True when every prime factor of x divides base."""
    while x > 1:
        g = gcd(x, base)
        if g == 1:
            return False
        while x % g == 0:
            x //= g
    return True


@dataclass(frozen=True)
class LambdaCertificate:
    """The repunit order lambda of p modulo m, with the split m = m'*m''
    and the bound mu = m' * phi(m'') that caps the search.

    Self-validating: construction re-checks minimality and the bound
    chain lambda >= 2, lambda <= mu <= m.
    """

    p: int
    m: int
    lam: int
    m_prime: int
    m_dprime: int
    mu: int

    def __post_init__(self):
        _require_odd_prime(self.p)
        if self.m < 2 or self.m % self.p == 0:
            raise ValueError(f"modulus must be >= 2 and not divisible by p, got {self.m}")
        if self.m_prime * self.m_dprime != self.m or gcd(self.m_prime, self.m_dprime) != 1:
            raise ValueError("m' and m'' must be a coprime factorization of m")
        if not _only_factors_of(self.m_prime, self.p - 1):
            raise ValueError("every prime factor of m' must divide p - 1")
        if gcd(self.m_dprime, self.p - 1) != 1:
            raise ValueError("m'' must be coprime to p - 1")
        if self.mu != self.m_prime * euler_phi(self.m_dprime):
            raise ValueError("mu must equal m' * phi(m'')")
        if not (2 <= self.lam <= self.mu <= self.m):
            raise ValueError(f"need 2 <= lambda <= mu <= m, got {self.lam}, {self.mu}, {self.m}")
        acc = 0
        power = 1
        for j in range(1, self.lam + 1):
            acc = (acc + power) % self.m
            power = power * self.p % self.m
            if acc == 0 and j < self.lam:
                raise ValueError(f"lambda = {self.lam} is not minimal: repunit({j}) = 0 mod {self.m}")
        if acc != 0:
            raise ValueError(f"repunit({self.lam}) is not divisible by {self.m}")


def lambda_index(p: int, m: int) -> LambdaCertificate:
    """Find the least lambda with (p^lambda - 1)/(p - 1) = 0 mod m.

    The repunit is accumulated incrementally mod m, so the search is
    O(lambda) without big powers.  The bound mu = m' * phi(m'') always
    stops it; running past mu would contradict the Lucas-sequence
    divisibility fact backing the bound, so that is a hard internal error.
    """
    _require_odd_prime(p)
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if m % p == 0:
        raise ValueError(
            f"the construction requires p not dividing m, got p = {p}, m = {m}"
        )
    m_prime, m_dprime = split_modulus(p, m)
    mu = m_prime * euler_phi(m_dprime)
    acc = 0
    power = 1
    lam = 0
    for j in range(1, mu + 1):
        acc = (acc + power) % m
        power = power * p % m
        if acc == 0:
            lam = j
            break
    else:
        raise RuntimeError(
            f"no repunit of length <= mu = {mu} is divisible by m = {m}; "
            "this contradicts the divisibility bound"
        )
    return LambdaCertificate(p=p, m=m, lam=lam, m_prime=m_prime, m_dprime=m_dprime, mu=mu)


def _repunit_weights(p: int, lam: int) -> tuple[int, ...]:
    # (p^j - 1)/(p - 1) for j = 0..lam-1, built by w <- w*p + 1
    weights = []
    w = 0
    for _ in range(lam):
        weights.append(w)
        w = w * p + 1
    return tuple(weights)


@dataclass(frozen=True)
class ConstructionResult:
    """The q-additive function representing e_p mod m, with its
    certificate, weight vector, and recomputed invariants."""

    p: int
    m: int
    certificate: LambdaCertificate
    q: int
    f: QAdditiveFunction
    F: int
    d: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.q != self.p**self.certificate.lam or self.q != self.f.q:
            raise ValueError("base must be p^lambda and match the function")
        if len(self.weights) != self.certificate.lam:
            raise ValueError("one weight per digit position is required")
        if self.F != 0 or self.d != 1:
            raise ValueError(f"construction invariants must be F = 0, d = 1, got {self.F}, {self.d}")


def folded_value(n: int, p: int, weights: tuple[int, ...]) -> int:
    """Evaluate the construction directly from base-p digits of n, with
    the weight index folded modulo lambda = len(weights).

    This is the closed form of the q-additive extension; it is kept
    independent of the value table so the two can check each other.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    lam = len(weights)
    acc = 0
    j = 0
    while n:
        acc += (n % p) * weights[j % lam]
        n //= p
        j += 1
    return acc


def build_function(p: int, m: int) -> ConstructionResult:
    """Materialize the value table on [0, p^lambda) and derive (F, d).

    The derived invariants are recomputed through the generic q-additive
    path and must come out F = 0, d = 1; anything else is an internal
    error, not a user mistake.
    """
    cert = lambda_index(p, m)
    q = p**cert.lam
    if q > TABLE_CAP:
        raise ValueError(
            f"table for q = {p}^{cert.lam} = {q} exceeds the {TABLE_CAP}-entry cap"
        )
    weights = _repunit_weights(p, cert.lam)
    a = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    pj = 1
    for j in range(cert.lam):
        acc += (a // pj) % p * weights[j]
        pj *= p
    f = QAdditiveFunction(q=q, table=tuple(acc.tolist()))
    F, d = derive_invariants(f, m)
    if F != 0 or d != 1:
        raise RuntimeError(
            f"construction for p = {p}, m = {m} derived F = {F}, d = {d}; expected 0 and 1"
        )
    return ConstructionResult(
        p=p, m=m, certificate=cert, q=q, f=f, F=F, d=d, weights=weights
    )


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of an exhaustive f(n) = e_p(n) (mod m) check on [0, N)."""

    p: int
    m: int
    limit: int
    counterexample: int | None
    f_value: int | None = None
    e_value: int | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def verify_congruence(p: int, m: int, limit: int, chunk_size: int = 1 << 20) -> CongruenceReport:
    """Check f(n) = e_p(n) (mod m) for all 0 <= n < limit.

    The two sides are computed chunk by chunk by independent routes that
    share only the block loop of the tiled kernels: e_p from a floor-sum
    table on base p^J with scalar Legendre offsets, and f from a table
    folded out of the lambda-digit value table on base q^j with scalar
    `f.evaluate` offsets.  The report carries the smallest counterexample
    if there is one.
    """
    config = ScanConfig(primes=(p,), mods=(m,), limit=limit, chunk_size=chunk_size)
    built = build_function(p, m)

    def mismatches(start, stop):
        lhs = evaluate_range(built.f, start, stop, mod=m)
        rhs = exponent_range(start, stop, p, mod=m)
        return start, rhs, np.flatnonzero(lhs != rhs)

    for start, rhs, bad in map_spans(mismatches, config):
        if bad.size:
            n = start + int(bad[0])
            return CongruenceReport(
                p=p, m=m, limit=limit, counterexample=n,
                f_value=built.f.evaluate(n), e_value=int(rhs[bad[0]]),
            )
    return CongruenceReport(p=p, m=m, limit=limit, counterexample=None)


def construction_error_exponent(k: int, p: int, m: int) -> Fraction:
    """The equidistribution error exponent 1/(120 k^2 p^{3m} m^2) for a
    system of k factorial-exponent congruences with maxima p and m: the
    generic 1/(120 k^2 q^3 m^2) at q = p^m."""
    if p < 2 or m < 2:
        raise ValueError(f"need p >= 2 and m >= 2, got p={p}, m={m}")
    return kim_error_exponent(k, p**m, m)


@dataclass(frozen=True)
class CoverageParams:
    """User-supplied absolute constants for the coverage formulas.

    Neither constant is pinned by theory, so both are mandatory inputs:
    c1 scales the guaranteed pattern length, c3 the error-term constant
    entering the threshold.
    """

    c1: float
    c3: float
    k: int

    def __post_init__(self):
        if not self.c1 > 0 or not self.c3 > 0:
            raise ValueError(f"c1 and c3 must be positive, got {self.c1}, {self.c3}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def coverage_log_threshold(params: CoverageParams, p_k: int) -> float:
    """ln N above which every parity pattern of length k over the first k
    odd primes is guaranteed a witness below N:

        480 k^2 p_k^6 (ln c3 + k ln 2 + 0.5 ln k + 2 ln p_k)

    Natural logs throughout.  Already at k = 1 this exceeds any scannable
    magnitude; it exists to study the formula, not to schedule scans.
    """
    _require_odd_prime(p_k)
    k = params.k
    return 480.0 * k * k * float(p_k**6) * (
        log(params.c3) + k * log(2.0) + 0.5 * log(k) + 2.0 * log(p_k)
    )


def coverage_depth(x: float, c1: float) -> int:
    """floor(c1 * (ln x / (ln ln x)^6)^(1/9)): the guaranteed coverable
    pattern length below x.  Requires x > e so the inner log is positive."""
    if not c1 > 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if not x > _E:
        raise ValueError(f"x must exceed e, got {x}")
    return int(floor(c1 * (log(x) / log(log(x)) ** 6) ** (1.0 / 9.0)))
