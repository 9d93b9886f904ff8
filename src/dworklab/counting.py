"""Exact point counts for Dwork fibers over finite fields.

The fiber Y_t is the projective hypersurface

    x_1^N + ... + x_N^N = N t x_1^{w_1} ... x_N^{w_N}   in P^{N-1}(F_q),

for gcd(q, N) = 1 and g = gcd(N, w_1, ..., w_N), smooth exactly when

    t^(N/g) * prod_{w_i > 0} w_i^(w_i/g) != 1   in F_q,

which is t^N != 1 for the classical weight.  Off the primitive middle
cohomology there is one Tate class per even degree 0, 2, ..., 2(N-2) (for
even N the one in the middle degree is the power of the hyperplane class),
so the Lefschetz trace formula reads

    #Y_t(F_q) = 1 + q + ... + q^{N-2} + (-1)^N Tr(Frob | H^{N-2}_prim)

and the point count determines the middle trace exactly, for every N
(`middle_trace`).  For odd N it is a_q in #Y = 1 + ... + q^{N-2} - a_q.

Two counters are provided and must agree.  Both read the same field
tables: logs over a generator, with Zech logs for addition
(`FiniteField.log_tables`), each of size q.  A prime field computes its
scalars and builds its tables on plain integers; an extension field
computes in logs, and builds its modulus, generator and tables on F_p
matrices (the companion matrix of the modulus and its powers), testing
candidate moduli and generators a block at a time in one matrix stack.  A
test checks the tables on every pair of elements against schoolbook
polynomial arithmetic.

* ``count_projective_naive`` walks every normalized projective point (first
  nonzero coordinate scaled to 1) and evaluates the equation in logs, one
  code path for every field.  It works for any weight and any small field,
  prime or extension, and is the reference.
* ``count_projective_fast`` (classical weight, any GF(p^m)) splits off the
  points with a zero coordinate, which satisfy the diagonal equation
  sum x_i^N = 0; the number of tuples with a given power sum is constant on
  the d + 1 cyclotomic classes {0} and g^i H (H the N-th powers, d =
  gcd(N, q-1)), so they are counted by a (d+1) x (d+1) matrix of
  cyclotomic numbers.  On the totally nonzero torus it normalizes the last
  coordinate to 1, reads k of the others, R, from a table of
  M_k[c][a] = #{R in (F_q^*)^k : sum R_i^N - c prod R_i = a} and sweeps
  the remaining N-1-k: a meet in the middle.  Scaling R and the roots of
  unity fold M_k into d + 1 rows of r = (q-1)/d entries (`_torus_table`).
  The roots of unity mu_d act on the torus without changing a term, so
  the sweep is quotiented by them.  A term depends only on the sum of the
  middle logs and of their N-th powers, so the sweep visits each multiset
  of N-1-k logs in [0, r) once, C(r+N-2-k, N-1-k) of them, weighted by its
  multinomial.  k is the one of least estimated work (`_fast_plan`), in
  all O((d+1) C(r+k-1, k) + C(r+N-2-k, N-1-k) + q) instead of
  O(q^(N-1)): about r^2 at N = 5 and r^3 at N = 7.

``tower_counts`` uses the stratified counter for the classical weight and
the naive one otherwise.  Both counters split their outer loop into ranges
of about equal work; workers > 1 spreads the ranges over threads, and the
total is the same either way.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import product as iproduct
from math import comb, gcd
from typing import Sequence

import numpy as np

from .characters import WeightVector
from .hodge import total_dimension

__all__ = [
    "SmoothnessError",
    "CharacteristicError",
    "CapabilityError",
    "BudgetError",
    "DEFAULT_BUDGET",
    "is_prime",
    "field_make",
    "FiniteField",
    "FiberSpec",
    "FiberCount",
    "candidate_count",
    "count_projective_naive",
    "count_projective_fast",
    "middle_trace",
    "weil_bound_ok",
    "enumerate_points",
    "group_elements",
    "group_action_check",
    "tower_counts",
]

DEFAULT_BUDGET = 2_000_000_000  # evaluated candidates per invocation
_MAX_TABLE_Q = 1 << 22  # exp/log tables refuse beyond this
_BUILD_BLOCK = 1 << 16  # exp entries computed per vector step
_GEN_BLOCK = 8  # candidate moduli or generators tested per matrix stack


class SmoothnessError(ValueError):
    """The fiber is outside the smooth locus (t^N = 1 for the classical weight)."""


class CharacteristicError(ValueError):
    """The field characteristic divides N (or a root-of-unity condition fails)."""


class CapabilityError(ValueError):
    """The requested combination is outside what this strategy supports."""


class BudgetError(RuntimeError):
    """The work estimate exceeds the candidate budget."""

    def __init__(self, required: int, budget: int, what: str = "count"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} needs about {required} evaluated candidates, over the budget of "
            f"{budget}; pass a budget >= {required} to force it"
        )


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _check_table_q(q: int) -> None:
    if q > _MAX_TABLE_Q:
        raise CapabilityError(f"field of order {q} exceeds the table limit {_MAX_TABLE_Q}")


# ---------------------------------------------------------------------------
# F_p matrices, used only to build fields
#
# An element h of F_p[x]/f is the row vector of its digits, low degree first,
# and multiplication by h is the matrix M(h) whose row j holds the digits of
# x^j h.  M(x) is the companion matrix C of f, and M(h) = sum_j h_j C^j.
# Only extension fields use them.  Entries stay below p, so
# the sums in a product stay below m p^2, which q = p^m <= _MAX_TABLE_Q keeps
# far below 2^63.


def _companion(tails: np.ndarray, p: int) -> np.ndarray:
    """C = M(x) for each monic f = x^m + ... + c_0 with tail (c_0, ..., c_(m-1)) on the last axis.

    Row j of C holds the digits of x^(j+1) mod f.
    """
    m = tails.shape[-1]
    c = np.broadcast_to(np.eye(m, k=1, dtype=np.int64), tails.shape + (m,)).copy()
    c[..., -1, :] = -tails % p
    return c


def _mat_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p for an F_p matrix, or elementwise for a stack of them (e >= 0)."""
    out = np.broadcast_to(np.eye(a.shape[-1], dtype=np.int64), a.shape).copy()
    while e:
        if e & 1:
            out = out @ a % p
        e >>= 1
        if e:
            a = a @ a % p
    return out


def _is_irreducible(tails: np.ndarray, p: int) -> np.ndarray:
    """Rabin's test on a stack of monic f: C^(p^m) = C, and C^(p^(m/l)) - C is a unit for primes l | m.

    Row i of `tails` holds (c_0, ..., c_(m-1)) of f = x^m + ... + c_0, and
    the mask says which f are irreducible; C is the companion matrix of f.
    C^(p^m) = C says that f divides x^(p^m) - x, so F_p[x]/f is a product of
    fields F_(p^d) with d | m.  In such a ring h is a unit, that is
    gcd(h, f) = 1, exactly when h^(p^m - 1) = 1.  Every f is tested in the
    same matrix stack, and the unit condition only where the first holds.
    """
    m = tails.shape[1]
    if m == 1:
        return np.ones(len(tails), dtype=bool)
    ok = tails[:, 0] != 0  # x divides f when c_0 = 0
    c = _companion(tails, p)
    checkpoints = {m // ell for ell in _prime_factors(m)}
    h, diffs = c, []
    for i in range(1, m + 1):
        h = _mat_pow(h, p, p)
        if i in checkpoints:
            diffs.append((h - c) % p)
    ok &= (h == c).all(axis=(1, 2))
    units = _mat_pow(np.stack(diffs, axis=1)[ok], p ** m - 1, p) == np.eye(m, dtype=np.int64)
    ok[ok] = units.all(axis=(1, 2, 3))
    return ok


class FiniteField:
    """GF(p^m) with elements encoded as integers 0..q-1.

    The digits of an element base p are its polynomial coefficients, low
    degree first, reduced modulo the stored monic irreducible.  The modulus
    is the lexicographically least monic irreducible of degree m (constant
    coefficient compared first), so two builds of the same field agree.

    Scalar arithmetic on prime fields is plain integer arithmetic.  Every
    other field computation goes through one representation: logs over the
    generator, with Zech logs for addition (`log_tables`).  Both counters
    read these arrays; extension fields build them on construction, prime
    fields on first use, by integer doubling.  F_p matrices, the matrices
    M(h) of multiplication by h, appear only inside the construction of an
    extension field: in the modulus test, the generator search and the
    table build.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_zech", "_generator")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self._exp = None
        self._log = None
        self._zech = None
        self._generator = None
        self._spot_check()

    def _matrices(self, codes: np.ndarray) -> np.ndarray:
        """The stack of M(h) for the codes h (see `_companion`)."""
        p, m = self.p, self.m
        c = _companion(np.array(self.modulus[:m]), p)
        powers = [np.eye(m, dtype=np.int64)]
        for _ in range(1, m):
            powers.append(powers[-1] @ c % p)
        digits = codes[:, None] // p ** np.arange(m, dtype=np.int64) % p
        return np.tensordot(digits, np.stack(powers), axes=1) % p

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp, log, zech), built on first use; see `log_tables`."""
        if self._exp is None:
            self._build_tables()
        return self._exp, self._log, self._zech

    def _build_tables(self):
        """exp, log and Zech-log arrays of size q over the generator g.

        exp doubles: g^(k+i) is exp[i] times g^k for i < k, and g^2k is
        (g^k)^2, about log2(q) vector steps in all.  A prime field multiplies
        integers mod p.  In an extension field multiplication by g^k is the
        F_p matrix M(g^k), which has the digits of x^j g^k in row j.
        exp[q-1] = 0 is the antilog of the log of 0.
        """
        q, p, m = self.q, self.p, self.m
        _check_table_q(q)
        n = q - 1
        exp = np.zeros(q, dtype=np.int64)
        exp[0] = 1
        if m == 1:
            # products stay below p^2 <= 2^44
            step = self.generator()
        else:
            place = p ** np.arange(m, dtype=np.int64)
            step = self._matrices(np.array([self.generator()]))[0]
        k = 1
        while k < n:
            if m == 1:
                b = min(2 * k, n)
                exp[k:b] = exp[: b - k] * step % p
                step = step * step % p
            else:
                for a in range(k, min(2 * k, n), _BUILD_BLOCK):
                    b = min(a + _BUILD_BLOCK, 2 * k, n)
                    digits = exp[a - k : b - k, None] // place % p
                    exp[a:b] = ((digits @ step) % p) @ place
                step = (step @ step) % p
            k *= 2
        # exp must hit every nonzero code exactly once
        if not np.array_equal(np.bincount(exp[:n], minlength=q), np.arange(q) > 0):
            raise RuntimeError("generator power table failed to close")
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(q)
        # 1 + x adds one to the constant coefficient, the lowest base-p digit
        zech = log[exp - exp % p + (exp % p + 1) % p]
        for table in (exp, log, zech):
            table.flags.writeable = False
        self._exp, self._log, self._zech = exp, log, zech

    def _spot_check(self):
        # field axioms on a deterministic sample of triples
        samples = [(1, 2 % self.q, (self.q - 1))]
        step = max(1, self.q // 7)
        samples += [((3 * i) % self.q, (5 * i + 1) % self.q, (7 * i + 2) % self.q)
                    for i in range(1, self.q, step)]
        for a, b, c in samples[:12]:
            ok = (
                self.add(self.add(a, b), c) == self.add(a, self.add(b, c))
                and self.mul(self.mul(a, b), c) == self.mul(a, self.mul(b, c))
                and self.mul(a, self.add(b, c)) == self.add(self.mul(a, b), self.mul(a, c))
                and self.mul(a, 1) == a
                and self.add(a, 0) == a
            )
            if not ok:
                raise RuntimeError(f"field axiom spot check failed on {(a, b, c)} in {self}")

    # -- scalar arithmetic

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        exp, log, zech = self._tables()
        n = self.q - 1
        z = zech[(log[b] - log[a]) % n]  # g^la + g^lb = g^la (1 + g^(lb - la))
        return 0 if z == n else int(exp[(log[a] + z) % n])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if a == 0:
            return 0
        exp, log, _ = self._tables()
        # -1 is the code p - 1
        return int(exp[(log[a] + log[self.p - 1]) % (self.q - 1)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        exp, log, _ = self._tables()
        return int(exp[(log[a] + log[b]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.m == 1:
            return pow(a, e, self.p)
        exp, log, _ = self._tables()
        return int(exp[(log[a] * e) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._tables()
        return int(exp[(-log[a]) % (self.q - 1)])

    def generator(self) -> int:
        """The least multiplicative generator by code, the base of the exp/log tables.

        For prime q > 2 this is the least primitive root; for F_2 it is 1.
        In an extension field the candidates are tested `_GEN_BLOCK` at a
        time, as a stack of matrices M(g).
        """
        if self._generator is None:
            q, p = self.q, self.p
            exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
            if self.m == 1:
                # g = 1 passes only for q = 2, where q - 1 has no prime factor
                self._generator = next(
                    g for g in range(1, q) if all(pow(g, e, p) != 1 for e in exponents)
                )
            else:
                identity = np.eye(self.m, dtype=np.int64)
                # codes below p lie in F_p, whose orders divide p - 1 < q - 1
                for start in range(p, q, _GEN_BLOCK):
                    codes = np.arange(start, min(start + _GEN_BLOCK, q), dtype=np.int64)
                    mats = self._matrices(codes)
                    ok = np.ones(len(codes), dtype=bool)
                    for e in exponents:
                        ok &= (_mat_pow(mats, e, p) != identity).any(axis=(1, 2))
                    if ok.any():
                        self._generator = int(codes[ok.argmax()])
                        break
        return self._generator

    # -- vectorized helpers for the counters

    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, zech) index arrays of size q over the generator g, built once.

        Logs run over 0..q-2, and q-1 stands for the log of 0: log[a] is the
        log of the element with code a, and zech[i] = log(1 + g^i), with
        zech[q-1] = log 1 = 0.  Then log(g^a + g^b) = a + zech[b - a], so
        addition becomes index arithmetic (`_log_add`).  This is the one
        representation every vectorised field computation uses; the arrays
        are read-only and refused past `_MAX_TABLE_Q`.
        """
        return self._tables()[1:]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@lru_cache(maxsize=32)
def field_make(p: int, m: int) -> FiniteField:
    """GF(p^m) with the lexicographically least monic irreducible modulus.

    Candidate moduli x^m + c_{m-1} x^{m-1} + ... + c_0 are scanned in
    lexicographic order of (c_0, ..., c_{m-1}) with each coefficient a
    canonical lift; the first irreducible wins, so the construction is
    reproducible.  The scan tests `_GEN_BLOCK` candidates at a time, in one
    matrix stack (`_is_irreducible`).  m = 1 yields the prime field
    (modulus x).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    if m == 1:
        return FiniteField(p, 1, (0, 1))
    q = p ** m
    # refused before the modulus search, which alone would take seconds
    _check_table_q(q)
    # the tail of candidate i has c_0 as its most significant base-p digit;
    # the scan starts at c_0 = 1, as x divides every tail with c_0 = 0
    place = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(q // p, q, _GEN_BLOCK):
        tails = np.arange(start, min(start + _GEN_BLOCK, q), dtype=np.int64)[:, None] // place % p
        ok = _is_irreducible(tails, p)
        if ok.any():
            return FiniteField(p, m, tuple(tails[ok.argmax()].tolist()) + (1,))
    raise RuntimeError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True, slots=True)
class FiberSpec:
    """One fiber Y_t of the degree-N family over a finite field.

    Refused unless gcd(q, N) = 1 and the fiber is smooth.  A singular point
    has x_i = 0 where w_i = 0 and x_i^N = t w_i x^W != 0 elsewhere.  N-th
    roots y_i of t w_i fix the monomial prod y_i^(w_i) up to mu_(N/g),
    g = gcd(N, W), and a singular point needs it to be 1; so singular
    points exist over the algebraic closure exactly when
    t^(N/g) prod_{w_i > 0} w_i^(w_i/g) = 1.
    """

    N: int
    weight: WeightVector
    t: int
    field: FiniteField

    def __post_init__(self):
        if self.weight.modulus != self.N:
            raise ValueError("weight vector length does not match N")
        if gcd(self.field.q, self.N) != 1:
            raise CharacteristicError(
                f"gcd(q, N) must be 1: the base ring inverts N, got q = {self.field.q}, N = {self.N}"
            )
        if not (0 <= self.t < self.field.q):
            raise ValueError(f"t must be an element index in 0..{self.field.q - 1}, got {self.t}")
        g = self.N // self.weight.order
        value = self.field.pow(self.t, self.N // g)
        for w in self.weight.entries:
            value = self.field.mul(value, self.field.pow(w % self.field.p, w // g))
        if value == 1:
            raise SmoothnessError(
                f"t = {self.t} has t^{self.N // g} * prod w_i^(w_i/{g}) = 1 in {self.field}; "
                "the fiber is singular (smooth locus requires it != 1)"
            )

    @property
    def notes(self) -> tuple[str, ...]:
        if self.field.q <= self.N:
            return (f"q = {self.field.q} <= N = {self.N}: bad reduction possible; "
                    "the count is exact but the cohomological reading may degrade",)
        return ()


@dataclass(frozen=True, slots=True)
class FiberCount:
    """Exact projective count of one fiber plus the extracted middle trace."""

    spec: FiberSpec
    projective_count: int
    trace: int
    strategy: str
    # wall time of the count; not part of the result, so equal counts compare equal
    elapsed: float = dc_field(compare=False)


def candidate_count(q: int, N: int) -> int:
    """Number of normalized representatives of P^{N-1}(F_q)."""
    return (q ** N - 1) // (q - 1)


def middle_trace(count: int, q: int, N: int) -> int:
    """Trace of Frobenius on primitive middle cohomology: (-1)^N (count - sum_{j<N-1} q^j).

    For odd N this is a_q in count = 1 + q + ... + q^(N-2) - a_q; for even N
    the Tate class in the middle degree is part of the sum.
    """
    return (-1) ** N * (count - sum(q ** j for j in range(N - 1)))


def weil_bound_ok(trace: int, q: int, N: int, weight: WeightVector | None = None) -> bool:
    """|trace| <= b * q^((N-2)/2) with b the total middle dimension, checked in integers."""
    b = total_dimension(N, weight)
    return trace * trace <= b * b * q ** (N - 2)


# ---------------------------------------------------------------------------
# arithmetic on logs over the generator g, elementwise; n = q-1 is the log of 0
# (see FiniteField.log_tables)


def _log_add(a, b, zech: np.ndarray, n: int):
    """log(x + y) from a = log x and b = log y."""
    d = np.where(b == n, n, (b - a) % n)
    z = zech[d]
    out = np.where(z == n, n, (a + z) % n)
    return np.where(a == n, b, out)


def _log_mul(a, b, n: int):
    """log(x y) from a = log x and b = log y."""
    return np.where((a == n) | (b == n), n, (a + b) % n)


def _log_power(log: np.ndarray, e: int, n: int) -> np.ndarray:
    """log(x^e) for every code x, from the log table; e >= 0, with 0^0 = 1."""
    out = log * e % n
    if e:
        out[0] = n
    return out


def _zech2(zech: np.ndarray, n: int) -> np.ndarray:
    """zech over two periods, so that a shifted index needs no reduction.

    Its log-0 entries become 2n, which `_fold` sends to n after any shift
    below n.
    """
    out = np.tile(zech[:n], 2)
    out[out == n] = 2 * n
    return out


def _fold(n: int) -> np.ndarray:
    """f[k] = k mod n for k < 2n and n for 2n <= k < 3n, as int32.

    It reduces a sum of two logs once the log of 0 in one of them has been
    moved to 2n, so that the sum lands past 2n whenever that factor is 0.
    """
    f = np.arange(3 * n, dtype=np.int32) % n
    f[2 * n :] = n
    return f


# ---------------------------------------------------------------------------
# the naive counter

_INNER_CAP = 1 << 21  # rows of the inner block, unless one coordinate alone exceeds it


def _split_sum(run, cost: np.ndarray, workers: int) -> int:
    """Sum of run(start, stop) over consecutive ranges of items, one per worker thread.

    cost[i] is the work of item i; the ranges are cut where its running sum
    crosses the multiples of its total over workers, so each thread gets
    about the same share.
    """
    total = len(cost)
    if workers <= 1 or total < workers:
        return run(0, total)
    cum = np.cumsum(cost)
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, workers) / workers) + 1
    bounds = np.unique(np.concatenate([[0], np.minimum(cuts, total), [total]])).tolist()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(run, bounds[:-1], bounds[1:]))


def _count_stratum(spec: FiberSpec, lead: int, workers: int) -> int:
    """Candidates with leading-one coordinate `lead` (earlier coordinates zero).

    One code path for every GF(p^m), on logs over the generator: power sums
    go through the Zech table, and the monomial is a weighted sum of logs,
    dead (the log of 0) once a coordinate with positive weight vanishes.  The
    last `inner` free coordinates form a block whose sums and monomials are
    built once and reduced to their distinct pairs with multiplicities; the
    block holds at least one coordinate and grows while it stays within
    `_INNER_CAP` rows.  The remaining outer coordinates are iterated,
    optionally split across worker threads, each outer tuple with work
    proportional to the block: one vector pass over its pairs, or, when the
    outer tuple kills the monomial, one read of a histogram of its sums.
    """
    field = spec.field
    q, N, n = field.q, spec.N, field.q - 1
    weights = spec.weight.entries
    log, zech = field.log_tables()
    zech = zech.astype(np.int32)
    pow_n = _log_power(log, N, n).astype(np.int32)
    pow_w = {w: _log_power(log, w, n).astype(np.int32) for w in set(weights)}

    def grid(positions, sum0: int, mono0: int) -> tuple[np.ndarray, np.ndarray]:
        """Logs of sum0 + sum x_i^N and of mono0 prod x_i^(w_i), over all tuples at `positions`."""
        s = np.array([sum0], dtype=np.int32)
        m = np.array([mono0], dtype=np.int32)
        for pos in positions:
            s = _log_add(s[:, None], pow_n, zech, n).ravel()
            m = _log_mul(m[:, None], pow_w[weights[pos]], n).ravel()
        return s, m

    free = N - 1 - lead
    inner = min(free, 1)
    while inner < free and q ** (inner + 1) <= _INNER_CAP:
        inner += 1
    sum_in, mono_in = grid(range(N - inner, N), n, 0)
    # outer tuples carry the leading 1 (1^N in the sum) and the factor N t of
    # the monomial, which a zero coordinate with positive weight kills
    mono0 = int(log[field.mul(N % field.p, spec.t)])
    if any(weights[i] > 0 for i in range(lead)):
        mono0 = n
    sum_out, mono_out = grid(range(lead + 1, N - inner), 0, mono0)

    # dead[l]: block tuples whose sum is -s, where l = log s
    dead = np.bincount(sum_in, minlength=q)[_log_mul(np.arange(q), int(log[field.neg(1)]), n)]
    pairs = sum_in.astype(np.int64)
    pairs *= q
    pairs += mono_in
    pairs, mult = np.unique(pairs, return_counts=True)
    sum_in, mono_in = (pairs // q).astype(np.int32), (pairs % q).astype(np.int32)
    # move the log of 0 in the block to 2n, so that a shifted log of 0 lands
    # past 2n in the tables below: fold reduces logs, and one_plus[k] is
    # log(1 + g^k), or log 1 = 0 from 2n on
    sum_in[sum_in == n] = 2 * n
    mono_in[mono_in == n] = 2 * n
    fold = _fold(n)
    one_plus = np.concatenate([zech[:n], zech[:n], np.zeros(n, dtype=np.int32)])

    def run(start: int, stop: int) -> int:
        idx = np.empty(len(mult), dtype=np.int32)
        lhs = np.empty_like(idx)
        rhs = np.empty_like(idx)
        hits = 0
        for ls, lm in zip(sum_out[start:stop].tolist(), mono_out[start:stop].tolist()):
            if lm == n:
                hits += int(dead[ls])
                continue
            # A + s = m B for block sum A and monomial B, outer sum s and
            # monomial m != 0: compare log(1 + A/s) with log(m B/s), or
            # log A with log(m B) when s = 0
            if ls == n:
                table, shift, ratio = fold, 0, lm
            else:
                table, shift, ratio = one_plus, -ls % n, (lm - ls) % n
            np.take(table, np.add(sum_in, shift, out=idx), out=lhs)
            np.take(fold, np.add(mono_in, ratio, out=idx), out=rhs)
            hits += int(mult[lhs == rhs].sum())
        return hits

    return _split_sum(run, np.ones(len(sum_out)), workers)


def count_projective_naive(
    spec: FiberSpec, workers: int = 1, budget: int = DEFAULT_BUDGET
) -> FiberCount:
    """Exact count by sweeping all normalized points of P^{N-1}(F_q).

    Every point has a unique representative whose first nonzero coordinate
    is 1; the stratum with leading coordinate j contributes q^(N-1-j)
    candidates.  The equation is evaluated for every candidate in logs over
    the generator (`_count_stratum`).
    """
    q, N = spec.field.q, spec.N
    required = candidate_count(q, N)
    if required > budget:
        raise BudgetError(required, budget, what=f"naive count over GF({q})")

    started = time.perf_counter()
    total = 0
    for lead in range(N):
        total += _count_stratum(spec, lead, workers)
    trace = middle_trace(total, q, N)
    return FiberCount(spec, total, trace, "naive", time.perf_counter() - started)


# ---------------------------------------------------------------------------
# the stratified counter (classical weight, any finite field)
#
# Field elements are handled by their logs over a generator g (q-1 is the
# log of 0, see FiniteField.log_tables): products are sums of logs, and sums
# go through the Zech table.

_GRID_MIN = 1 << 13  # r^inner, the ordered tuples the inner grid of sorted ones stands for: at least,
_GRID_MAX = 1 << 21  # and at most (past this, its arrays fall out of cache); also r^k of the table's grid
_INT64 = 1 << 63  # the sweep's weights and int64 dot products stay below this


def _grid_split(r: int, middle: int) -> int:
    """Middle coordinates in the inner grid: the fewest with r^inner >= _GRID_MIN, one fewer past _GRID_MAX."""
    inner = min(middle, 1)
    while inner < middle and r ** inner < _GRID_MIN:
        inner += 1
    if inner > 1 and r ** inner > _GRID_MAX:
        inner -= 1
    return inner


def _fast_plan(q: int, N: int) -> tuple[int, int]:
    """(work, k): the least work estimate of `count_projective_fast` over GF(q), and its k.

    With d = gcd(N, q-1) and r = (q-1)/d, resolving k coordinates from the
    table of `_torus_table` costs its d + 1 rows over the C(r+k-1, k) sorted
    k-tuples; the sweep then visits the C(r+N-2-k, N-1-k) multisets of the
    other middle logs and builds one q-entry column table per outer tuple
    (`_grid_split`), and the zero stratum reads q more.  k runs over 1..N-1
    while r^k stays within _GRID_MAX, the table's grid being built whole;
    k = 1 is always admitted.  Ties go to the least k.
    """
    d = gcd(N, q - 1)
    r = (q - 1) // d
    plans = []
    for k in range(1, max(N, 2)):
        if k > 1 and r ** k > _GRID_MAX:
            break
        middle = max(N - 1 - k, 0)
        outer = middle - _grid_split(r, middle)
        sweep = comb(r + middle - 1, middle) + comb(r + outer - 1, outer) * q
        plans.append(((d + 1) * comb(r + k - 1, k) + sweep + q, k))
    return min(plans)


def _fast_work(q: int, N: int) -> int:
    """Work estimate of `count_projective_fast` over GF(q), checked against the budget (`_fast_plan`)."""
    return _fast_plan(q, N)[0]


def _zero_stratum(field: FiniteField, N: int) -> int:
    """Projective points with a zero coordinate: they lie on sum x_i^N = 0.

    With T_j the number of (x_1..x_j) in (F_q^*)^j with sum x_i^N = 0, the
    affine solutions with exactly k zero coordinates number C(N, k) T_(N-k).
    The N-th powers of F_q^* are the subgroup H = <g^d>, d = gcd(N, q-1),
    each the N-th power of d elements.  Scaling every x_i by one element
    permutes the tuples and multiplies their sum by an element of H, so the
    number S_j(a) of j-tuples with sum a is constant on the d + 1 classes
    {0} and g^i H.  On class vectors S_(j+1) = B S_j, with
    B[i][k] = d #{y in H : a_i - y in class k} for the representatives
    a_0 = 0 and a_(1+i) = g^i (Gauss's cyclotomic numbers), read off q-1
    Zech logs.  T_j is the zero entry of B^j e_0, in exact integers.
    """
    log, zech = field.log_tables()
    n = field.q - 1
    d = gcd(N, n)
    h = int(log[field.neg(1)])  # g^h = -1
    # g^i - g^e = g^i (1 + g^(e - i + h)) for y = g^e in H, that is d | e
    i = np.repeat(np.arange(d, dtype=np.int64), n // d)
    z = zech[(np.tile(np.arange(0, n, d, dtype=np.int64), d) - i + h) % n]
    cls = np.where(z == n, 0, 1 + (i + z) % d)
    B = d * np.bincount((1 + i) * (d + 1) + cls, minlength=(d + 1) ** 2).reshape(d + 1, d + 1)
    B[0, 1 + h % d] = n  # 0 - y = g^(h + e) lies in the class of -1
    B = B.tolist()
    s = [1] + [0] * d
    tnz = [0] * N  # T_j for 1 <= j <= N-1; T_1 = 0, as x^N = 0 forces x = 0
    for j in range(1, N):
        s = [sum(b * x for b, x in zip(row, s)) for row in B]
        tnz[j] = s[0]
    affine = sum(comb(N, k) * tnz[N - k] for k in range(1, N))
    return affine // n


def _sorted_tuples(k: int, r: int, powers: np.ndarray, zech: np.ndarray, n: int):
    """Non-decreasing k-tuples of logs l_i in [0, r), in lexicographic order.

    Returns sum l_i, the log of sum y_i^N over y_i = g^(l_i) (powers[l] is
    N l mod n), the first log and how often it occurs, the last log and how
    often it occurs, and the multinomial k!/prod c_v!, where c_v counts the
    log v.  The empty tuple has sum 0, the log n of the empty power sum, and
    first and last log 0, each occurring 0 times.
    """
    l = np.zeros(1, dtype=np.int64)
    s = np.full(1, n, dtype=np.int64)
    first = last = lead = trail = np.zeros(1, dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    for i in range(k):
        # each tuple ending in log a is extended by a, a+1, ..., r-1
        ext = r - last
        parent = np.repeat(np.arange(len(l)), ext)
        v = np.arange(len(parent)) - np.repeat(np.cumsum(ext) - ext - last, ext)
        trail = np.where(v == last[parent], trail[parent] + 1, 1)
        first = first[parent] if i else v
        lead = lead[parent] + (v == first)
        mult = mult[parent] * (i + 1) // trail
        last = v
        l = l[parent] + v
        s = _log_add(s[parent], powers[v], zech, n)
    return l, s, first, lead, last, trail, mult


def _torus_table(field: FiniteField, N: int, k: int, c_zero: bool, tuples: tuple) -> tuple[np.ndarray, np.ndarray]:
    """M_k[c][a] = #{R in (F_q^*)^k : sum R_i^N - c prod R_i = a}, over a power of d, as a line and its column map.

    With n = q-1, d = gcd(N, n), r = n/d and c = g^gamma, M_k[c][a] is
    d^(k-1) line[cmap[log a] + gamma mod r]; with c_zero the line is the one
    row c = 0, d^k line[log a], a histogram of log sum R_i^N.  Multiplying
    R_1 by z in mu_d gives M_k[c z][a] = M_k[c][a], and scaling R by z gives
    M_k[c][a] = M_k[c z^(k-N)][a z^(-N)].  So for c != 0 the whole table is
    T[j][beta] = M_k[g^beta][g^j] for j < d and T[d][beta] = M_k[g^beta][0],
    beta in [0, r): a = g^alpha reduces to row j = alpha mod d by the z with
    log zeta = (alpha - j)/d (N/d)^(-1) mod r (gcd(N/d, r) = 1), which moves
    the column by (k-N) zeta.  Row j is a histogram of the sorted k-tuples
    of logs in [0, r), weighted by their multinomials, at
    beta = log(sum R_i^N - g^j) - sum log R_i mod r; the d^k lifts of a
    tuple spread over the d columns c mu_d, hence d^(k-1).  An entry is at
    most N r^(k-1): given R_2..R_k, at most N values of R_1 solve the
    equation.  The sweep adds the column in two parts below r, so each row
    is stored three times over instead of reduced.  `tuples` is
    `_sorted_tuples` of k logs in [0, r).
    """
    log, zech = field.log_tables()
    q, n = field.q, field.q - 1
    d = gcd(N, n)
    r = n // d
    lsum, s, _, _, _, _, mult = tuples
    # the bins sum at most r^k multinomials: exact in float64 within the grid cap
    if c_zero:
        return np.arange(q, dtype=np.int64), np.bincount(s, mult, minlength=q).astype(np.int64)
    h = int(log[field.neg(1)])  # g^h = -1
    # log(sum R_i^N - a) for a = g^0..g^(d-1) and 0, one row each; a tuple
    # with sum R_i^N = a needs c = 0 and weighs nothing
    x = np.vstack([_log_add(s, (np.arange(d, dtype=np.int64)[:, None] + h) % n, zech, n), s])
    beta = (x - lsum) % r + r * np.arange(d + 1)[:, None]
    table = np.bincount(beta.ravel(), (mult * (x != n)).ravel(), minlength=(d + 1) * r)
    table = table.astype(np.int64).reshape(d + 1, r)
    # the column map at a = g^(d i + j), then at a = 0
    shift = np.arange(r, dtype=np.int64) * ((k - N) * pow(N // d, -1, r)) % r
    cmap = np.append((shift[:, None] + 3 * r * np.arange(d)).ravel(), 3 * r * d)
    return cmap, np.concatenate([table, table, table], axis=1).ravel()


def _count_fast(spec: FiberSpec, k: int, workers: int) -> int:
    """The projective count of `count_projective_fast`, resolving k torus coordinates from `_torus_table`.

    With no middle coordinate outside the grid the torus sum is one gather
    from the line and one dot product with the multinomials; otherwise a
    loop over the sorted outer tuples reads the suffix of the grid each one
    extends, over `workers` threads.  Both share the grid, the table, the
    row term and the lift factor.
    """
    field = spec.field
    q, N = field.q, spec.N
    n = q - 1
    d = gcd(N, n)
    r = n // d
    log, zech = field.log_tables()
    ct = field.mul(N % field.p, spec.t)
    # row terms are logs of c = ct * prod y_i mod r; when t = 0 the only row is c = 0
    rows = 1 if ct == 0 else r
    h = int(log[field.neg(1)])
    # each log l_i < r stands for its d representatives l_i + j r, which share y^N
    powers = N * np.arange(r, dtype=np.int64) % n

    def negated(s: np.ndarray) -> np.ndarray:
        return np.where(s == n, n, (s + h) % n)

    middle = max(N - 1 - k, 0)
    inner = _grid_split(r, middle)
    outer = middle - inner
    # the table reads the inner grid when k = inner, and its own grid, freed
    # here, otherwise
    inner_tuples = _sorted_tuples(inner, r, powers, zech, n)
    table_tuples = inner_tuples if k == inner else _sorted_tuples(k, r, powers, zech, n)
    cmap, line = _torus_table(field, N, k, ct == 0, table_tuples)
    lin, sin, first, lead, _, _, m_in = inner_tuples
    del table_tuples, inner_tuples
    neg_sin = negated(sin)
    # the row term log c of the table: log(N t), and one part per inner and
    # one per outer tuple
    row = int(log[ct]) % rows if ct else 0
    base = lin % rows
    if not outer:
        # every middle coordinate is in the grid: a = (-1) + (-s) for the
        # power sum s of each inner tuple, one read of the line each
        cols = cmap[_log_add(neg_sin, h, zech, n)]
        torus = int(np.dot(line[cols + base + row], m_in))
    else:
        size = len(base)
        # Inner tuples whose first log is at least v form the suffix from
        # suffix[v], in segments of a = inner, inner-1, ..., 1 leading copies
        # of v and then a = 0, the rest; the segment of a copies ends at
        # bounds[inner - a][v].
        suffix = np.searchsorted(first, np.arange(r))
        bounds = np.array([suffix + np.bincount(first[lead >= a], minlength=r)
                           for a in range(inner, 0, -1)] + [np.full(r, size)])
        del lin, sin, first, lead

        lout, sout, _, _, top, run, m_out = _sorted_tuples(outer, r, powers, zech, n)
        rout = (row + lout) % rows
        # the outer sums carry x_N = 1
        neg_uout = negated(_log_add(sout, 0, zech, n))
        start = suffix[top]
        # A multiset weighs its multinomial middle!/prod c_v!.  That of an
        # outer tuple O followed by an inner tuple I is C(middle, inner) m(O)
        # m(I) when they share no log, and that divided by C(a + c, c) when I
        # begins with a copies of the log that ends O c >= 1 times.
        weight = [comb(middle, inner) * m for m in m_out.tolist()]
        divisors = [[comb(a + c, c) for a in range(inner, -1, -1)] for c in range(1, outer + 1)]
        zech2 = _zech2(zech, n)
        # log(x + g^b) = fold[nu + zech2[b - nu + n]] for x = g^nu, mapped into the line
        line_fold = cmap[_fold(n)]

        def sweep(begin: int, end: int) -> int:
            cols = np.empty(q, dtype=np.int64)
            idx = np.empty(size, dtype=np.int64)
            vals = np.empty(size, dtype=line.dtype)
            hits = 0
            for ro, nu, s, ends, c, w in zip(
                rout[begin:end].tolist(), neg_uout[begin:end].tolist(), start[begin:end].tolist(),
                bounds[:, top[begin:end]].T.tolist(), run[begin:end].tolist(), weight[begin:end],
            ):
                # line position of a = -(u + s) = (-u) + (-s) for each inner
                # tuple, read from its log, plus the outer row term
                if nu == n:
                    np.add(cmap, ro, out=cols)
                else:
                    np.take(line_fold, zech2[n - nu : 2 * n - nu] + nu, out=cols[:n])
                    cols[n] = cmap[nu]
                    cols += ro
                span = size - s
                np.take(cols, neg_sin[s:], out=idx[:span])
                idx[:span] += base[s:]
                np.take(line, idx[:span], out=vals[:span])
                # int64 dot products, each at most N r^(k-1) sum m(I) <= N r^(k-1+inner)
                a = s
                for b, divisor in zip(ends, divisors[c - 1]):
                    if b > a:
                        hits += w * int(np.dot(vals[a - s : b - s], m_in[a:b])) // divisor
                    a = b
            return hits

        # the first outer tuples carry the longest suffixes: split by work, not by count
        torus = _split_sum(sweep, size - start + q, workers)
    # the Y lifts give d^(N-1-k), and the R lifts d^(k-1) over the d columns
    # c mu_d, or d^k when c = 0
    return _zero_stratum(field, N) + d ** (N - 2 if ct else N - 1) * torus


def count_projective_fast(
    spec: FiberSpec, workers: int = 1, budget: int = DEFAULT_BUDGET
) -> FiberCount:
    """Stratified exact count over any GF(p^m); must agree with the naive counter.

    Zero stratum: any vanishing coordinate kills the monomial, so those
    points satisfy the diagonal equation and are counted on cyclotomic
    classes (`_zero_stratum`).  Torus stratum: normalize the last coordinate
    to 1 and split the other N-1 into k coordinates R, resolved by a table,
    and N-1-k middle coordinates y_i with logs l_i, swept.  The number of R
    is M_k[c][a] = #{R : sum R_i^N - c prod R_i = a} at c = N t prod y_i,
    a = -(1 + sum y_i^N), one lookup in the line of `_torus_table` at the
    column map of a plus a row term log c mod r, split into one part per
    outer and per inner tuple.  The d = gcd(N, q-1) roots of unity z in mu_d
    quotient the sweep: y -> z y keeps y^N and multiplies c by z, which
    leaves the row term unchanged.  So each l_i runs over 0..r-1 only,
    r = (q-1)/d.  A term depends only on sum l_i and sum y_i^N, so the
    sweep runs over multisets of logs, as non-decreasing tuples weighted by
    their multinomials (N-1-k)!/prod c_v!, where c_v counts the log v.  The
    last middle coordinates form a fixed grid of sorted tuples swept by
    vector passes, and a short Python loop runs over sorted tuples of the
    others: each outer tuple extends the suffix of the grid whose first log
    is at least its last one.  When the grid holds every middle coordinate
    there is no loop and the torus sum is

        sum_I m(I) line[cmap[log a(I)] + (l(I) + log(N t)) mod r]

    over the grid tuples I, with m(I) the multinomial, l(I) the sum of the
    logs and a(I) = -(1 + sum y_i^N): one gather and one dot product (the
    row term is 0 when t = 0).  k is the one of least estimated work
    (`_fast_plan`), which weighs the table's d + 1 rows over C(r+k-1, k)
    sorted k-tuples against the sweep's C(r+N-2-k, N-1-k) multisets.
    """
    if not spec.weight.classical:
        raise CapabilityError("the stratified counter requires the classical weight (1,...,1)")
    if spec.N < 2:
        raise CapabilityError("the stratified counter requires N >= 2")
    field = spec.field
    q, N = field.q, spec.N
    required, k = _fast_plan(q, N)
    if required > budget:
        raise BudgetError(required, budget, what=f"stratified count over GF({q})")
    r = (q - 1) // gcd(N, q - 1)
    # table entries are at most N r^(k-1) (`_torus_table`), so a dot product
    # over inner tuples, whose multinomials sum to r^inner, stays below
    # N r^(N-2); so do the multinomials of every grid and their products
    if N * r ** (N - 2) >= _INT64:
        raise CapabilityError(f"the sweep's weights at N = {N} over GF({q}) exceed 64-bit integers")

    started = time.perf_counter()
    total = _count_fast(spec, k, workers)
    trace = middle_trace(total, q, N)
    return FiberCount(spec, total, trace, "fast", time.perf_counter() - started)


# ---------------------------------------------------------------------------
# points, group action, towers


@lru_cache(maxsize=4)
def enumerate_points(spec: FiberSpec, budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
    """All normalized points of Y_t(F_q), as coordinate tuples (small q)."""
    q, N = spec.field.q, spec.N
    required = candidate_count(q, N)
    if required > budget:
        raise BudgetError(required, budget, what=f"point enumeration over GF({q})")
    field = spec.field
    weights = spec.weight.entries
    c = field.mul(N % field.p, spec.t)
    points = []
    for lead in range(N):
        for tail in iproduct(range(q), repeat=N - 1 - lead):
            x = (0,) * lead + (1,) + tail
            lhs = 0
            for xi in x:
                lhs = field.add(lhs, field.pow(xi, N))
            rhs = c
            for xi, w in zip(x, weights):
                if w:
                    rhs = field.mul(rhs, field.pow(xi, w))
            if lhs == rhs:
                points.append(x)
    return tuple(points)


def _require_mu(q: int, N: int) -> None:
    if (q - 1) % N != 0:
        raise CharacteristicError(f"mu_{N} requires q = 1 mod {N}, got q = {q}")


def group_elements(weight: WeightVector, field: FiniteField) -> tuple[tuple[int, ...], ...]:
    """Coset representatives of the symmetry group, as root-of-unity tuples.

    The group is {(z_1,...,z_N) : each z_i^N = 1, prod z_i^{w_i} = 1} modulo
    the diagonal copy of mu_N; it needs q = 1 mod N so that mu_N lies in the
    field.  The identity tuple comes first.
    """
    N = weight.modulus
    q = field.q
    _require_mu(q, N)
    if N ** N > 4_000_000:
        raise CapabilityError(f"group enumeration over {N}^{N} exponent tuples is too large")
    z = field.pow(field.generator(), (q - 1) // N)
    zpow = [field.pow(z, i) for i in range(N)]
    reps = set()
    for a in iproduct(range(N), repeat=N):
        if sum(ai * wi for ai, wi in zip(a, weight.entries)) % N:
            continue
        reps.add(min(tuple((ai + j) % N for ai in a) for j in range(N)))
    return tuple(tuple(zpow[ai] for ai in a) for a in sorted(reps))


def _normalize_point(field: FiniteField, x: Sequence[int]) -> tuple[int, ...]:
    for xi in x:
        if xi:
            inv = field.inv(xi)
            return tuple(field.mul(inv, xj) for xj in x)
    raise ValueError("projective point cannot be zero")


@lru_cache(maxsize=4)
def _point_set(spec: FiberSpec) -> frozenset:
    return frozenset(enumerate_points(spec))


@lru_cache(maxsize=4)
def _diagonal_acts_trivially(spec: FiberSpec) -> bool:
    field, N = spec.field, spec.N
    z = field.pow(field.generator(), (field.q - 1) // N)
    for j in range(N):
        zj = field.pow(z, j)
        for x in enumerate_points(spec):
            if _normalize_point(field, tuple(field.mul(zj, xi) for xi in x)) != x:
                return False
    return True


def group_action_check(
    spec: FiberSpec,
    gamma: Sequence[int],
    sample_size: int | None = None,
) -> bool:
    """Verify that coordinate scaling by gamma maps Y_t(F_q) into itself.

    gamma is a tuple of N field elements with gamma_i^N = 1 and
    prod gamma_i^{w_i} = 1.  Also checks that the diagonal mu_N acts
    trivially on the (sampled) projective points.  Requires q = 1 mod N.
    """
    field, N = spec.field, spec.N
    _require_mu(field.q, N)
    gamma = tuple(gamma)
    if len(gamma) != N:
        raise ValueError(f"gamma must have {N} coordinates")
    for g in gamma:
        if field.pow(g, N) != 1:
            raise ValueError(f"gamma entry {g} is not an N-th root of unity")
    prod = 1
    for g, w in zip(gamma, spec.weight.entries):
        prod = field.mul(prod, field.pow(g, w))
    if prod != 1:
        raise ValueError(f"gamma violates the weight relation prod gamma_i^w_i = 1: {gamma}")

    points = enumerate_points(spec)
    if sample_size is not None and sample_size < len(points):
        stride = max(1, len(points) // sample_size)
        points = points[::stride][:sample_size]
    point_set = _point_set(spec)

    for x in points:
        mapped = _normalize_point(field, tuple(field.mul(g, xi) for g, xi in zip(gamma, x)))
        if mapped not in point_set:
            return False

    # the diagonal mu_N must act trivially on projective points; this depends
    # only on the fiber, so the exhaustive check is memoized per spec
    return _diagonal_acts_trivially(spec)


def tower_counts(
    spec: FiberSpec,
    m_max: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> tuple[FiberCount, ...]:
    """Counts over the extension tower F_{q^m}, m = 1..m_max.

    Each level is counted by `count_projective_fast` when the weight is
    classical and by `count_projective_naive` otherwise; its `strategy` says
    which.  The parameter must lie in the prime subfield so that it lifts to
    every level unchanged.  Refuses up front, with an estimate, when the
    summed work of the counters the levels use would exceed the budget.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    base = spec.field
    if spec.t >= base.p:
        raise CapabilityError(
            "tower counts need a parameter in the prime subfield (t < p); "
            f"got t = {spec.t} over {base}"
        )
    if spec.weight.classical:
        counter, work = count_projective_fast, _fast_work
    else:
        counter, work = count_projective_naive, candidate_count
    required = sum(work(base.p ** (base.m * m), spec.N) for m in range(1, m_max + 1))
    if required > budget:
        raise BudgetError(required, budget, what=f"tower to level {m_max} over {base}")

    counts = []
    for m in range(1, m_max + 1):
        level_field = base if m == 1 else field_make(base.p, base.m * m)
        level_spec = FiberSpec(spec.N, spec.weight, spec.t, level_field)
        counts.append(counter(level_spec, workers=workers, budget=budget))
    return tuple(counts)
