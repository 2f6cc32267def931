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
from math import e as _E, floor, gcd, inf, log, prod

import numpy as np

from .experiments import CHUNK_SIZE, ScanConfig, _check_chunk_size, map_spans
from .exponents import _exponent_rows, _fold, _require_prime, exponent_range, legendre_exponent
from .primes import _U64, _shown, factorize, nth_odd_prime
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
    "euler_phi",
    "split_modulus",
    "lambda_index",
    "build_function",
    "verify_congruence",
    "construction_error_exponent",
    "coverage_log_threshold",
    "coverage_depth",
    "nth_odd_prime",
]


def _require_odd_prime(p: int) -> None:
    _require_prime(p)
    if p == 2:
        raise ValueError(
            "the construction is defined for odd primes only; "
            "the scan harness handles p = 2 directly"
        )


def _require_modulus_below_2_64(m: int) -> None:
    if m >= _U64:
        raise ValueError(f"modulus must be below 2**64, got a {m.bit_length()}-bit number")


def euler_phi(n: int) -> int:
    """Euler's totient from the factorization of n."""
    if n < 1:
        raise ValueError(f"totient needs n >= 1, got {n}")
    return prod((r - 1) * r ** (e - 1) for r, e in factorize(n).items())


def split_modulus(p: int, m: int) -> tuple[int, int]:
    """Split m = m' * m'' with m' carrying exactly the prime powers of m
    whose primes divide p - 1, and m'' coprime to p - 1."""
    _require_prime(p)
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    m_prime = prod(r**e for r, e in factorize(m).items() if (p - 1) % r == 0)
    return m_prime, m // m_prime


@dataclass(frozen=True)
class LambdaCertificate:
    """The repunit order lambda of p modulo m, with the split m = m'*m''
    and the bound mu = m' * phi(m'') that caps it.

    Self-validating.  The repunit (p^j - 1)/(p - 1) is divisible by m
    exactly when p^j = 1 mod m(p - 1), and the lengths j that pass are
    the multiples of the least one.  So construction checks that lambda
    passes and lambda/r fails for every prime r dividing lambda, plus the
    bound chain lambda >= 2, lambda <= mu <= m.
    """

    p: int
    m: int
    lam: int
    m_prime: int
    m_dprime: int
    mu: int

    def __post_init__(self):
        _require_odd_prime(self.p)
        # before any factorization or power, whose cost grows with m's digits
        _require_modulus_below_2_64(self.m)
        if self.m < 2 or self.m % self.p == 0:
            raise ValueError(f"modulus must be >= 2 and not divisible by p, got {_shown(self.m)}")
        if self.m_prime * self.m_dprime != self.m or gcd(self.m_prime, self.m_dprime) != 1:
            raise ValueError("m' and m'' must be a coprime factorization of m")
        if any((self.p - 1) % r for r in factorize(self.m_prime)):
            raise ValueError("every prime factor of m' must divide p - 1")
        if gcd(self.m_dprime, self.p - 1) != 1:
            raise ValueError("m'' must be coprime to p - 1")
        if self.mu != self.m_prime * euler_phi(self.m_dprime):
            raise ValueError("mu must equal m' * phi(m'')")
        if not (2 <= self.lam <= self.mu <= self.m):
            raise ValueError("need 2 <= lambda <= mu <= m, got "
                             f"{_shown(self.lam)}, {_shown(self.mu)}, {_shown(self.m)}")
        modulus = self.m * (self.p - 1)
        if pow(self.p, self.lam, modulus) != 1:
            raise ValueError(f"repunit({self.lam}) is not divisible by {self.m}")
        for r in factorize(self.lam):
            if pow(self.p, self.lam // r, modulus) == 1:
                raise ValueError(
                    f"lambda = {self.lam} is not minimal: "
                    f"repunit({self.lam // r}) = 0 mod {self.m}"
                )


def lambda_index(p: int, m: int) -> LambdaCertificate:
    """Find the least lambda with (p^lambda - 1)/(p - 1) = 0 mod m.

    That is the multiplicative order of p modulo m(p - 1).  The bound
    mu = m' * phi(m'') is a length whose repunit m divides, so lambda
    divides mu: starting at mu, each prime factor r is stripped while
    p^(lambda/r) = 1 mod m(p - 1), one modular power per try.  A repunit
    of length mu that m does not divide would contradict the
    Lucas-sequence divisibility fact backing the bound, so that is a hard
    internal error.

    m must stay below 2**64, the bound `is_prime` puts on p: a larger m is
    refused before anything is factored or raised to a power, since the
    powers mod m(p - 1) grow with m's digits and a smooth m of thousands
    of digits would take minutes.
    """
    _require_odd_prime(p)
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {_shown(m)}")
    _require_modulus_below_2_64(m)
    if m % p == 0:
        raise ValueError(
            f"the construction requires p not dividing m, got p = {p}, m = {m}"
        )
    m_prime, m_dprime = split_modulus(p, m)
    mu = m_prime * euler_phi(m_dprime)
    modulus = m * (p - 1)
    if pow(p, mu, modulus) != 1:
        raise RuntimeError(
            f"the repunit of length mu = {mu} is not divisible by m = {m}; "
            "this contradicts the divisibility bound"
        )
    lam = mu
    for r in factorize(mu):
        while lam % r == 0 and pow(p, lam // r, modulus) == 1:
            lam //= r
    return LambdaCertificate(p=p, m=m, lam=lam, m_prime=m_prime, m_dprime=m_dprime, mu=mu)


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


def build_function(p: int, m: int) -> ConstructionResult:
    """Materialize the value table on [0, p^lambda) and derive (F, d).

    The table is e_p's digit rows on [0, p^lambda) folded digit level by
    digit level, lowest first (`exponents._fold`): level j puts base-p
    digit a_j on top with weight (p^j - 1)/(p - 1), so each level is one
    broadcast add, t <- (w_j*arange(p)[:, None] + t).ravel(), and the
    last one writes the int64 table the function keeps.  The
    derived invariants are recomputed through the generic q-additive
    path and must come out F = 0, d = 1; anything else is an internal
    error, not a user mistake.
    """
    cert = lambda_index(p, m)
    # p^lambda >= 2^lambda, so a long lambda is refused before the power
    if cert.lam >= TABLE_CAP.bit_length() or p**cert.lam > TABLE_CAP:
        raise ValueError(
            f"table for q = {p}^{cert.lam} exceeds the {TABLE_CAP}-entry cap"
        )
    q = p**cert.lam
    weights = tuple((p**j - 1) // (p - 1) for j in range(cert.lam))
    f = QAdditiveFunction(q=q, table=_fold(_exponent_rows(p, q, None)))
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
    """Outcome of an exhaustive f(n) = e_p(n) (mod m) check on [0, N).

    At the smallest counterexample n, f_value is f(n) and e_value is
    e_p(n), both exact and unreduced, so they differ mod m; all three are
    None when the check passed."""

    p: int
    m: int
    limit: int
    counterexample: int | None
    f_value: int | None = None
    e_value: int | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def verify_congruence(p: int, m: int, limit: int, chunk_size: int = CHUNK_SIZE) -> CongruenceReport:
    """Check f(n) = e_p(n) (mod m) for all 0 <= n < limit.

    The two sides are computed chunk by chunk: e_p mod m off the row
    table of `exponents._shifted_tiles` on base p^j, block weight
    (p^j - 1)/(p - 1), and f mod m off a table folded out of the
    lambda-digit value table on base q^j, block weight 0.  (A modulus too
    large for a row table sends e_p through its reduced tile.)  Both
    sides share the table fold, the block writer and the offset
    recursion of `exponents`, on different tables and weights, so they
    are not independent routes; the tests pin each side to independent
    oracles (the floor sum, the digit-by-digit `folded_value` and scalar
    `f.evaluate`).  Each chunk is checked with no mismatch mask: e_p's
    residues are XORed into f's in place and the nonzeros counted, and
    only a chunk with one is searched for its first.  The report carries
    the smallest counterexample if there is one, with f and e_p there
    exact (scalar `f.evaluate` and `legendre_exponent`).
    """
    config = ScanConfig(primes=(p,), mods=(m,), limit=limit, chunk_size=chunk_size)
    # an over-wide chunk is refused before f's table is built
    _check_chunk_size(chunk_size)
    built = build_function(p, m)

    def first_mismatch(start, stop):
        # f's residues are freshly written, so e_p's are XORed into them in
        # place: a chunk that agrees everywhere is left all zero
        diff = evaluate_range(built.f, start, stop, mod=m)
        diff ^= exponent_range(start, stop, p, mod=m)
        if not np.count_nonzero(diff):
            return None
        return start + int(np.flatnonzero(diff)[0])

    for n in map_spans(first_mismatch, config):
        if n is not None:
            return CongruenceReport(
                p=p, m=m, limit=limit, counterexample=n,
                f_value=built.f.evaluate(n), e_value=legendre_exponent(n, p),
            )
    return CongruenceReport(p=p, m=m, limit=limit, counterexample=None)


def construction_error_exponent(k: int, p: int, m: int) -> Fraction:
    """The equidistribution error exponent 1/(120 k^2 p^{3m} m^2) for a
    system of k factorial-exponent congruences with maxima p and m: the
    generic 1/(120 k^2 q^3 m^2) at q = p^m.  Once p^{3m} alone reaches
    2^64 the overflow is certain, and it is raised before p^m is formed."""
    if k < 1 or p < 2 or m < 2:
        raise ValueError(f"need k >= 1, p >= 2 and m >= 2, got k={k}, p={p}, m={m}")
    # p^(3m) >= 2^(3m(b - 1)) for a b-bit p
    bits = 3 * m * (p.bit_length() - 1)
    if bits >= 64:
        raise OverflowError(
            f"error-exponent denominator 120*k^2*p^(3m)*m^2 for k = {k}, p = {p}, "
            f"m = {m} has over {bits} bits, exceeding 64"
        )
    return kim_error_exponent(k, p**m, m)


def coverage_log_threshold(k: int, c3: float) -> float:
    """ln N above which every parity pattern of length k over the first k
    odd primes is guaranteed a witness below N:

        480 k^2 p_k^6 (ln c3 + k ln 2 + 0.5 ln k + 2 ln p_k)

    with p_k = nth_odd_prime(k) and c3 the error-term constant, which
    theory does not pin.  Natural logs throughout.  Already at k = 1 this
    exceeds any scannable magnitude; it exists to study the formula, not
    to schedule scans.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {_shown(k)}")
    if not 0 < c3 < inf:
        raise ValueError(f"c3 must be positive and finite, got {c3}")
    p_k = nth_odd_prime(k)
    return 480.0 * k * k * float(p_k**6) * (
        log(c3) + k * log(2.0) + 0.5 * log(k) + 2.0 * log(p_k)
    )


def coverage_depth(x: float, c1: float) -> int:
    """floor(c1 * (ln x / (ln ln x)^6)^(1/9)): the guaranteed coverable
    pattern length below x.  Requires ln x > 1, so that the inner log is
    positive: x must exceed e by more than rounding."""
    if not 0 < c1 < inf:
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    # ln x rounds to 1.0 for the doubles just above e, and ln ln x to 0
    if not (_E < x < inf and log(x) > 1):
        raise ValueError(f"x must be finite and exceed e, got {x}")
    return int(floor(c1 * (log(x) / log(log(x)) ** 6) ** (1.0 / 9.0)))
