"""Finite fields, fiber counts, traces, bounds, group action, towers."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product
from math import comb, factorial, gcd

import numpy as np
import pytest

from dworklab import counting
from dworklab.characters import WeightVector, classical_weight
from dworklab.counting import (
    BudgetError,
    CapabilityError,
    CharacteristicError,
    FiberSpec,
    SmoothnessError,
    candidate_count,
    count_projective_fast,
    count_projective_naive,
    enumerate_points,
    field_make,
    group_action_check,
    group_elements,
    is_prime,
    middle_trace,
    tower_counts,
    weil_bound_ok,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    given = None

W5 = classical_weight(5)


def brute_count(spec):
    """Reference count with plain field scalar arithmetic, no tables."""
    f, n = spec.field, spec.N
    weights = spec.weight.entries
    c = f.mul(n % f.p, spec.t)
    total = 0
    for lead in range(n):
        for tail in product(range(f.q), repeat=n - 1 - lead):
            x = (0,) * lead + (1,) + tail
            lhs = 0
            for xi in x:
                lhs = f.add(lhs, f.pow(xi, n))
            rhs = c
            for xi, w in zip(x, weights):
                if w:
                    rhs = f.mul(rhs, f.pow(xi, w))
            total += lhs == rhs
    return total


def _has_singular_point(n, weight, t, f):
    """Whether F = sum x_i^N - N t x^W and all its partials vanish at some point of P^(N-1)(F_q)."""
    c = f.mul(n % f.p, t)

    def monomial(x, exponents):
        out = c
        for xi, e in zip(x, exponents):
            out = f.mul(out, f.pow(xi, e))
        return out

    w = weight.entries
    for lead in range(n):
        for tail in product(range(f.q), repeat=n - 1 - lead):
            x = (0,) * lead + (1,) + tail
            value = f.neg(monomial(x, w))
            for xi in x:
                value = f.add(value, f.pow(xi, n))
            if value:
                continue
            # dF/dx_i = N x_i^(N-1) - w_i N t x^(W - e_i)
            if all(
                f.sub(f.mul(n % f.p, f.pow(xi, n - 1)),
                      f.mul(wi % f.p, monomial(x, w[:i] + (wi - 1,) + w[i + 1:])) if wi else 0) == 0
                for i, (xi, wi) in enumerate(zip(x, w))
            ):
                return True
    return False


# schoolbook polynomials over F_p, coefficients low degree first: the oracle
# for the fields, which compute on companion matrices and in logs


def _poly_rem(a, f, p):
    """Remainder of a modulo the monic f over F_p, as len(f) - 1 coefficients."""
    a = [c % p for c in a]
    m = len(f) - 1
    for top in range(len(a) - 1, m - 1, -1):
        c = a[top]
        if c:
            for i, fi in enumerate(f):
                a[top - m + i] = (a[top - m + i] - c * fi) % p
    return (a + [0] * m)[:m]


def _poly_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_rem(out, f, p)


def _code_pow(field, a, e):
    """a^e for the code a, by square-and-multiply on the digits of a modulo the field's modulus."""
    p, m, f = field.p, field.m, list(field.modulus)
    base = [a // p ** i % p for i in range(m)]
    out = _poly_rem([1], f, p)
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return sum(c * p ** i for i, c in enumerate(out))


def _has_factor(f, p):
    """Whether the monic f has a monic factor of degree 1..deg(f)/2, by trial division."""
    m = len(f) - 1
    return any(
        not any(_poly_rem(f, list(tail) + [1], p))
        for d in range(1, m // 2 + 1)
        for tail in product(range(p), repeat=d)
    )


class TestPrimality:
    def test_small(self):
        assert [p for p in range(2, 40) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_larger(self):
        assert is_prime(10**9 + 7)
        assert not is_prime(10**9 + 8)
        assert not is_prime(1)


class TestFieldMake:
    def test_prime_field(self):
        f = field_make(11, 1)
        assert (f.p, f.m, f.q) == (11, 1, 11)
        assert f.modulus == (0, 1)

    def test_gf9_modulus(self):
        # oracle: scan monic quadratics over F_3 for the first with no root
        expected = None
        for c0, c1 in product(range(3), repeat=2):
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                expected = (c0, c1, 1)
                break
        f = field_make(3, 2)
        assert f.modulus == expected == (1, 0, 1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            field_make(10, 1)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            field_make(7, 0)

    def test_modulus_is_irreducible(self):
        # no roots, and for degree 2 rootlessness is irreducibility
        for p, m in [(3, 2), (5, 2), (7, 2), (11, 2), (2, 3), (3, 3)]:
            f = field_make(p, m)
            coeffs = f.modulus
            for x in range(p):
                val = sum(c * x**i for i, c in enumerate(coeffs)) % p
                assert val != 0, (p, m, x)

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 3), (11, 2)])
    def test_arithmetic_axioms_sampled(self, p, m):
        f = field_make(p, m)
        rng = random.Random(p * 100 + m)
        for _ in range(40):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a:
                assert f.mul(a, f.inv(a)) == 1
            assert f.add(a, f.neg(a)) == 0
            assert f.pow(a, f.q) == a  # Frobenius iterate is the identity

    def test_generator_order(self):
        for p, m in [(11, 1), (3, 2), (7, 2)]:
            f = field_make(p, m)
            g = f.generator()
            seen = set()
            x = 1
            for _ in range(f.q - 1):
                seen.add(x)
                x = f.mul(x, g)
            assert x == 1 and len(seen) == f.q - 1

    def test_prime_field_generator_is_least_primitive_root(self):
        for q, root in [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2), (101, 2)]:
            f = field_make(q, 1)
            assert f.generator() == root, q
            assert all(
                len({pow(g, e, q) for e in range(q - 1)}) < q - 1 for g in range(2, root)
            ), q
            log, _ = f.log_tables()  # the tables are built on the same generator
            assert log[root] == 1, q

    def test_f2_generator_is_one(self):
        f = field_make(2, 1)
        assert f.generator() == 1
        assert f.log_tables()[0].tolist() == [1, 0]

    def test_generator_equals_search_from_one(self):
        # the least generator by code, searched over every code from 1 with
        # the schoolbook power, for every field with q <= 2^10
        fields = [(p, m) for p in range(2, 1025) if is_prime(p)
                  for m in range(1, 11) if p ** m <= 1 << 10]
        for p, m in fields:
            q = p ** m
            f = counting.FiniteField(p, m, field_make(p, m).modulus)
            factors = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
            expected = next(
                g for g in range(1, q)
                if all(_code_pow(f, g, (q - 1) // r) != 1 for r in factors)
            )
            assert f.generator() == expected, f

    @pytest.mark.parametrize("p,m", [(2, m) for m in range(2, 9)] + [(3, 2), (3, 3), (3, 4), (3, 6),
                                                                      (5, 2), (5, 3), (7, 3)])
    def test_irreducible_equals_trial_division(self, p, m):
        # every monic f of degree m; in every case but p = 2 with m = 2..5 and 7,
        # some reducible f with f(0) != 0 divide x^(p^m) - x (factor degrees
        # {2, 2} at (3, 4) and {1, 2, 3} at (3, 6), for example) and fail only
        # the unit condition.  One batched call, one row per tail
        tails = np.array(list(product(range(p), repeat=m)), dtype=np.int64)
        mask = counting._is_irreducible(tails, p)
        assert mask.shape == (p ** m,)
        for tail, irreducible in zip(tails.tolist(), mask.tolist()):
            f = tail + [1]
            assert irreducible == (not _has_factor(f, p)), (p, f)

    def test_prime_tables_on_integers(self, monkeypatch):
        # a prime field's exp/log/Zech arrays come from integer doubling, with
        # no F_p matrix built
        def matrices(*args):
            raise AssertionError("a prime field built an F_p matrix")

        monkeypatch.setattr(counting, "_mat_pow", matrices)
        monkeypatch.setattr(counting.FiniteField, "_matrices", matrices)
        for p in (2, 3, 13, 101, 229, 1021):
            f = counting.FiniteField(p, 1, (0, 1))
            log, zech = f.log_tables()
            g = f.generator()
            assert [pow(g, e, p) for e in log[1:].tolist()] == list(range(1, p)), p
            assert zech[p - 1] == 0 and zech[log[p - 1]] == p - 1, p

    def test_scan_skips_tails_divisible_by_x(self, monkeypatch):
        # x divides every tail with c_0 = 0, so for m > 1 the scan starts at
        # c_0 = 1; the tails arrive in blocks of at most _GEN_BLOCK rows
        seen = []
        irreducible = counting._is_irreducible

        def spy(tails, p):
            seen.append(tails.copy())
            return irreducible(tails, p)

        monkeypatch.setattr(counting, "_is_irreducible", spy)
        for p, m in [(2, 2), (2, 5), (2, 10), (3, 3), (3, 6), (5, 2), (5, 4), (7, 3), (31, 2)]:
            seen.clear()
            field_make.__wrapped__(p, m)
            assert seen and all(
                tails.shape[1] == m and 0 < len(tails) <= counting._GEN_BLOCK and (tails[:, 0] != 0).all()
                for tails in seen
            ), (p, m)
        assert field_make.__wrapped__(5, 1).modulus == (0, 1)

    def test_modulus_equals_full_scan(self):
        # the first irreducible of the scan over every tail from c_0 = 0, for
        # every field with q <= 2^10
        fields = [(p, m) for p in range(2, 1025) if is_prime(p)
                  for m in range(1, 11) if p ** m <= 1 << 10]
        for p, m in fields:
            tails = np.array(list(product(range(p), repeat=m)), dtype=np.int64)
            expected = tuple(tails[counting._is_irreducible(tails, p).argmax()].tolist()) + (1,)
            assert field_make(p, m).modulus == expected, (p, m)

    def test_large_extension_refused_before_modulus_search(self, monkeypatch):
        calls = []

        def spy(tails, p):
            calls.append(tails)
            raise AssertionError("the modulus search ran")

        monkeypatch.setattr(counting, "_is_irreducible", spy)
        # q = 2^23, 3^15 and 2053^2 all exceed the table limit 2^22
        for p, m in [(2, 23), (3, 15), (2053, 2)]:
            with pytest.raises(CapabilityError, match="table limit"):
                field_make(p, m)
        assert calls == []


def _digit_matrix(field):
    """(digits, place): row x holds the base-p digits of code x, and digits @ place = codes."""
    place = field.p ** np.arange(field.m, dtype=np.int64)
    return np.arange(field.q, dtype=np.int64)[:, None] // place % field.p, place


def _poly_products(field, a_codes):
    """Codes of a * b for a in a_codes and every b, by the schoolbook arithmetic.

    a * b = sum_ij a_i b_j (x^i x^j mod f); `_poly_mulmod` gives each basis
    product, and the sum runs vectorised over all pairs.
    """
    p, m = field.p, field.m
    basis = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            prod = _poly_mulmod([0] * i + [1], [0] * j + [1], list(field.modulus), p)
            basis[i, j, : len(prod)] = prod
    digits, place = _digit_matrix(field)
    left = np.tensordot(digits[a_codes], basis, axes=(1, 0))  # [a, j, k]
    return (np.einsum("bj,ajk->abk", digits, left) % p) @ place


def _digit_sums(field, a_codes):
    """Codes of a + b for a in a_codes and every b, by digit-wise addition mod p."""
    digits, place = _digit_matrix(field)
    return ((digits[a_codes][:, None, :] + digits[None, :, :]) % field.p) @ place


class TestFieldTables:
    """The exp/log/Zech arrays both counters read, against the schoolbook oracle."""

    @pytest.mark.parametrize("m", range(1, 11))
    def test_every_pair_up_to_2_pow_10(self, m):
        primes = [p for p in range(2, 1025) if is_prime(p) and p ** m <= 1 << 10]
        for p in primes:
            f = field_make(p, m)
            q, n = f.q, f.q - 1
            exp, log, zech = f._tables()
            assert sorted(exp[:n].tolist()) == list(range(1, q)), f
            assert exp[n] == 0 and log[0] == n, f
            assert (log[exp] == np.arange(q)).all(), f
            assert (f.log_tables()[0] == log).all() and (f.log_tables()[1] == zech).all()
            rows = max(1, (1 << 16) // q)
            for a0 in range(0, q, rows):
                a = np.arange(a0, min(a0 + rows, q))
                la, lb = log[a][:, None], log[None, :]
                assert (exp[counting._log_mul(la, lb, n)] == _poly_products(f, a)).all(), f
                assert (counting._log_add(la, lb, zech, n) == log[_digit_sums(f, a)]).all(), f

    def test_prime_field_scalars_build_no_table(self):
        f = counting.FiniteField(1_000_000_007, 1, (0, 1))
        FiberSpec(5, W5, 2, f)
        assert f._exp is None
        with pytest.raises(CapabilityError):
            f.log_tables()


class TestFiberSpec:
    def test_all_roots_rejected_when_q_splits(self):
        f = field_make(11, 1)
        roots = [t for t in range(11) if pow(t, 5, 11) == 1]
        assert roots == [1, 3, 4, 5, 9]
        for t in roots:
            with pytest.raises(SmoothnessError):
                FiberSpec(5, W5, t, f)

    def test_t_one_always_rejected(self):
        for p in (7, 13, 23):
            with pytest.raises(SmoothnessError):
                FiberSpec(5, W5, 1, field_make(p, 1))

    def test_characteristic_guard(self):
        with pytest.raises(CharacteristicError):
            FiberSpec(5, W5, 2, field_make(5, 1))
        with pytest.raises(CharacteristicError):
            FiberSpec(4, classical_weight(4), 3, field_make(2, 3))

    def test_nonclassical_smooth_locus(self):
        # W = (3,0,0), g = 3: singular exactly when 3t = 1; over F_7 that is
        # t = 5, where (1-3t)x^3 + y^3 + z^3 = 0 is a cone, while t = 1 gives
        # the smooth cubic 5x^3 + y^3 + z^3 = 0
        f7 = field_make(7, 1)
        w = WeightVector(3, (3, 0, 0))
        with pytest.raises(SmoothnessError):
            FiberSpec(3, w, 5, f7)
        spec = FiberSpec(3, w, 1, f7)
        fc = count_projective_naive(spec)
        assert fc.projective_count == brute_count(spec)
        assert weil_bound_ok(fc.trace, 7, 3, w)
        # W = (2,2,0,0), g = 2: singular exactly when 4t^2 = 1, t = 3 and 4 over F_7
        w = WeightVector(4, (2, 2, 0, 0))
        for t in range(7):
            if t in (3, 4):
                with pytest.raises(SmoothnessError):
                    FiberSpec(4, w, t, f7)
            else:
                FiberSpec(4, w, t, f7)

    @pytest.mark.parametrize("n,q", [(3, 4), (3, 5), (3, 7), (4, 5), (4, 7)])
    def test_smooth_locus_against_jacobian(self, n, q):
        # every W and t: a singular F_q-point of the fiber, found by brute
        # force, means the spec is refused; when q = 1 mod N the roots the
        # singular points are built from lie in F_q, and a refusal means one exists
        p = next(p for p in (2, 3, 5, 7) if q % p == 0)
        field = field_make(p, 2 if q == 4 else 1)
        for entries in product(range(n + 1), repeat=n):
            if sum(entries) != n:
                continue
            weight = WeightVector(n, entries)
            for t in range(q):
                singular = _has_singular_point(n, weight, t, field)
                try:
                    FiberSpec(n, weight, t, field)
                    refused = False
                except SmoothnessError:
                    refused = True
                assert refused or not singular, (entries, t)
                if (q - 1) % n == 0:
                    assert refused == singular, (entries, t)

    def test_bad_reduction_note(self):
        assert FiberSpec(5, W5, 2, field_make(3, 1)).notes
        assert not FiberSpec(5, W5, 2, field_make(11, 1)).notes

    def test_candidate_count(self):
        assert candidate_count(11, 5) == 16105  # size of P^4(F_11)


class TestNaiveCounter:
    def test_against_scalar_brute_force(self):
        spec = FiberSpec(5, W5, 0, field_make(11, 1))
        assert count_projective_naive(spec).projective_count == brute_count(spec)

    def test_matches_point_enumeration(self):
        spec = FiberSpec(5, W5, 2, field_make(11, 1))
        assert count_projective_naive(spec).projective_count == len(enumerate_points(spec))

    def test_affine_cone_consistency(self):
        # (affine cone count - 1) / (q - 1) = projective count
        spec = FiberSpec(5, W5, 2, field_make(7, 1))
        f = spec.field
        c = f.mul(5 % 7, spec.t)
        affine = 0
        for x in product(range(7), repeat=5):
            lhs = 0
            for xi in x:
                lhs = f.add(lhs, f.pow(xi, 5))
            rhs = c
            for xi in x:
                rhs = f.mul(rhs, xi)
            affine += lhs == rhs
        cone_without_origin = affine - 1
        assert cone_without_origin % (7 - 1) == 0
        assert cone_without_origin // 6 == count_projective_naive(spec).projective_count

    def test_general_weight_and_extension(self):
        w4 = WeightVector(4, (2, 2, 0, 0))
        for field in (field_make(7, 1), field_make(7, 2), field_make(3, 2)):
            t = next(t for t in range(field.q) if field.pow(t, 4) != 1)
            spec = FiberSpec(4, w4, t, field)
            assert count_projective_naive(spec).projective_count == brute_count(spec)

    def test_workers_deterministic(self):
        spec = FiberSpec(5, W5, 7, field_make(31, 1))
        counts = {count_projective_naive(spec, workers=k).projective_count for k in (1, 2, 5)}
        assert len(counts) == 1

    def test_budget_refusal_carries_estimate(self):
        spec = FiberSpec(5, W5, 2, field_make(101, 1))
        with pytest.raises(BudgetError) as err:
            count_projective_naive(spec, budget=10_000)
        assert err.value.required == candidate_count(101, 5)

    def test_even_n_trace_is_primitive(self):
        # even N: the Tate class in the middle degree is inside 1 + q + q^2,
        # and the trace is on the 21-dimensional primitive part
        spec = FiberSpec(4, classical_weight(4), 3, field_make(7, 1))
        fc = count_projective_naive(spec)
        assert fc.trace == middle_trace(fc.projective_count, 7, 4)
        assert fc.projective_count == 1 + 7 + 49 + fc.trace
        assert weil_bound_ok(fc.trace, 7, 4)

    def test_equal_counts_compare_equal(self):
        # the wall time a count took is not part of its result
        spec = FiberSpec(5, W5, 2, field_make(11, 1))
        assert count_projective_naive(spec) == count_projective_naive(spec)


class TestNaiveOuterLoop:
    """A small block forces the outer loop: non-classical weights, two or more outer coordinates."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("entries", [(0, 1, 2), (2, 2, 0, 0), (0, 1, 1, 2)])
    def test_small_block_against_brute_force(self, monkeypatch, entries, workers):
        monkeypatch.setattr(counting, "_INNER_CAP", 1)
        n = len(entries)
        weight = WeightVector(n, entries)
        for p, m in [(7, 1), (2, 3), (3, 2), (5, 2)]:
            field = field_make(p, m)
            if gcd(field.q, n) != 1:
                continue
            smooth = _smooth_params(field, weight)
            for t in (smooth[0], smooth[1], smooth[-1]):  # t = 0, and live monomials
                spec = FiberSpec(n, weight, t, field)
                assert count_projective_naive(spec, workers=workers).projective_count == \
                    brute_count(spec), (field, t)


class TestNaiveMemory:
    """The naive counter allocates no q x q table; with one, GF(5^5) needs over 200 MiB."""

    @pytest.mark.parametrize("p,m,limit_mib", [(5, 5, 32), (2, 10, 53)])
    def test_peak_under_tracemalloc(self, p, m, limit_mib):
        spec = FiberSpec(3, classical_weight(3), 2, field_make(p, m))
        tracemalloc.start()
        try:
            count = count_projective_naive(spec).projective_count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20, peak / 2**20
        assert count == count_projective_fast(spec).projective_count


class TestFastCounter:
    @pytest.mark.parametrize("q", [11, 31])
    def test_agreement_exhaustive(self, q):
        f = field_make(q, 1)
        for t in range(q):
            if pow(t, 5, q) == 1:
                continue
            spec = FiberSpec(5, W5, t, f)
            naive = count_projective_naive(spec)
            fast = count_projective_fast(spec)
            assert naive.projective_count == fast.projective_count, t
            assert naive.trace == fast.trace

    def test_requires_classical(self):
        spec = FiberSpec(4, WeightVector(4, (2, 2, 0, 0)), 2, field_make(7, 1))
        with pytest.raises(CapabilityError):
            count_projective_fast(spec)

    def test_refuses_n1_naive_keeps_it(self):
        # the sweep has N - 2 middle coordinates: none to sweep at N = 1, a
        # capability refusal rather than a ValueError from the multinomials
        spec = FiberSpec(1, classical_weight(1), 2, field_make(5, 1))
        with pytest.raises(CapabilityError, match="N >= 2"):
            count_projective_fast(spec)
        assert count_projective_naive(spec).projective_count == 0

    def test_extension_field_equals_naive(self):
        spec = FiberSpec(5, W5, 2, field_make(3, 2))
        assert count_projective_fast(spec).projective_count == \
            count_projective_naive(spec).projective_count

    def test_budget_counts_the_m_table(self):
        # N = 3 over F_101, d = 1 and r = 100: k = 1, whose table has d + 1 = 2
        # rows over the r logs; the sweep's r multisets, one column table of q
        # entries, and q for the zero stratum, far below q^2 (k = 2 would
        # build its 2 rows over C(101, 2) pairs); one below it is refused with
        # the same estimate, and a count at it equals naive
        q = 101
        spec = FiberSpec(3, classical_weight(3), 2, field_make(q, 1))
        with pytest.raises(BudgetError) as err:
            count_projective_fast(spec, budget=100)
        required = err.value.required
        assert counting._fast_plan(q, 3) == (required, 1)
        assert required == 2 * 100 + 100 + q + q < q ** 2
        with pytest.raises(BudgetError) as err:
            count_projective_fast(spec, budget=required - 1)
        assert err.value.required == required
        assert count_projective_fast(spec, budget=required).projective_count == \
            count_projective_naive(spec).projective_count

    def test_equal_counts_compare_equal(self):
        spec = FiberSpec(5, W5, 2, field_make(11, 1))
        assert count_projective_fast(spec) == count_projective_fast(spec)

    def test_nth_power_table_spot_value(self):
        # r(0) = 1: only x = 0 has x^5 = 0
        q = 11
        r = [sum(1 for x in range(q) if pow(x, 5, q) == a) for a in range(q)]
        assert r[0] == 1


# (p, m, N): the fields GF(4) .. GF(49) at each N = 3, 4, 5 prime to their order
EXTENSION_CASES = [
    (p, m, n)
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)]
    for n in (3, 4, 5)
    if gcd(p ** m, n) == 1
]


def _smooth_params(field, weight):
    """Every t with t^(N/g) prod_{w_i > 0} w_i^(w_i/g) != 1 in the field, g = gcd(N, W)."""
    n = weight.modulus
    g = gcd(n, *weight.entries)
    c = 1
    for w in weight.entries:
        c = c * pow(w, w // g) % field.p
    return [t for t in range(field.q) if field.mul(field.pow(t, n // g), c) != 1]


def _admissible(max_candidates):
    """(p, m, N) with N in 3..7, gcd(p^m, N) = 1 and a naive count of at most max_candidates."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 7):
            for n in range(3, 8):
                q = p ** m
                if gcd(q, n) == 1 and candidate_count(q, n) <= max_candidates:
                    out.append((p, m, n))
    return out


def _assert_fast_equals_naive(field, n, workers=1):
    weight = classical_weight(n)
    for t in _smooth_params(field, weight):  # includes t = 0
        spec = FiberSpec(n, weight, t, field)
        assert count_projective_fast(spec, workers=workers).projective_count == \
            count_projective_naive(spec).projective_count, (field, n, t)


class TestFastOverAllFields:
    @pytest.mark.parametrize("p,m,n", EXTENSION_CASES)
    def test_every_smooth_parameter(self, p, m, n):
        _assert_fast_equals_naive(field_make(p, m), n)

    def test_workers_deterministic(self):
        field = field_make(2, 4)
        spec = FiberSpec(5, W5, _smooth_params(field, W5)[-1], field)
        counts = {count_projective_fast(spec, workers=k).projective_count for k in (1, 2)}
        assert counts == {count_projective_naive(spec).projective_count}

    @pytest.mark.skipif(given is None, reason="hypothesis not installed")
    def test_random_fields_and_parameters(self):
        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            p, m, n = data.draw(st.sampled_from(_admissible(100_000)), label="(p, m, N)")
            field = field_make(p, m)
            t = data.draw(st.sampled_from(_smooth_params(field, classical_weight(n))), label="t")
            spec = FiberSpec(n, classical_weight(n), t, field)
            assert count_projective_fast(spec).projective_count == \
                count_projective_naive(spec).projective_count

        check()


# (p, m, N) with d = gcd(N, q-1) > 1: (q-1)/d is 1 for GF(4), F_7 and GF(8);
# 2 for F_7 at N = 3 and 9, F_11 and F_13; 3 for F_19
QUOTIENT_CASES = [
    (2, 2, 3), (7, 1, 6), (2, 3, 7),
    (7, 1, 3), (11, 1, 5),
    (13, 1, 6), (19, 1, 6), (7, 1, 9),
]


class TestFastQuotient:
    """The torus sweep and the M table quotiented by mu_d, d = gcd(N, q-1)."""

    @pytest.mark.parametrize("p,m,n", QUOTIENT_CASES)
    def test_every_smooth_parameter(self, p, m, n):
        field = field_make(p, m)
        assert gcd(n, field.q - 1) > 1
        _assert_fast_equals_naive(field, n)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("p,m,n", QUOTIENT_CASES)
    def test_small_grid(self, monkeypatch, p, m, n, workers):
        # a grid of at most 4 tuples, so that the outer loop runs over the
        # remaining coordinates, split across the workers
        monkeypatch.setattr(counting, "_GRID_MIN", 4)
        monkeypatch.setattr(counting, "_GRID_MAX", 4)
        _assert_fast_equals_naive(field_make(p, m), n, workers)

    def test_budget_counts_the_quotient(self):
        # gcd(3, 30) = 3: r = 10 multisets, and k = 1, whose table has
        # d + 1 = 4 rows of r entries; the estimate stays below the r q
        # entries of M's rows
        q = 31
        spec = FiberSpec(3, classical_weight(3), 2, field_make(q, 1))
        with pytest.raises(BudgetError) as err:
            count_projective_fast(spec, budget=100)
        required = err.value.required
        assert counting._fast_plan(q, 3) == (required, 1)
        assert required == 4 * 10 + 10 + q + q < 10 * q
        with pytest.raises(BudgetError) as err:
            count_projective_fast(spec, budget=required - 1)
        assert err.value.required == required
        assert count_projective_fast(spec, budget=required).projective_count == \
            count_projective_naive(spec).projective_count

    def test_budget_counts_multisets(self):
        # r = 12 and d = 1: k = 2 resolves two coordinates from 2 table rows
        # over the C(13, 2) = 78 sorted pairs, and the sweep visits the 78
        # multisets of the other two logs, not C(14, 3) = 364 multisets of
        # three (k = 1) or 12^3 tuples
        q = 13
        spec = FiberSpec(5, W5, 2, field_make(q, 1))
        with pytest.raises(BudgetError) as err:
            count_projective_fast(spec, budget=100)
        required = err.value.required
        assert counting._fast_plan(q, 5) == (required, 2)
        assert required == 2 * 78 + 78 + q + q < comb(14, 3) < 12 ** 3
        with pytest.raises(BudgetError) as err:
            count_projective_fast(spec, budget=required - 1)
        assert err.value.required == required
        assert count_projective_fast(spec, budget=required).projective_count == \
            count_projective_naive(spec).projective_count

    # d = gcd(N, q-1) is 3, 6, 5, 4, 1, 1, 5, 1, 7 and 7
    @pytest.mark.parametrize("p,m,n", [
        (7, 1, 3), (13, 1, 6), (2, 4, 5), (5, 2, 4), (11, 1, 3),
        (13, 1, 5), (3, 4, 5), (13, 1, 7), (43, 1, 7), (2, 3, 7),
    ])
    def test_m_table_rows_repeat(self, p, m, n):
        # M_k[c][a] read from the table as the sweep reads it, at k = 1 and 2,
        # for every pair (c, a) in F_q x F_q, against a direct count of the
        # k-tuples R with sum R_i^N - c prod R_i = a: c = g^gamma is read at
        # the row term gamma mod r, r = (q-1)/d, added in the two parts lo and
        # li below r for every lo + li = gamma mod r, and an entry is M_k
        # over d^(k-1), or over d^k in the c = 0 table
        field = field_make(p, m)
        q, nq = field.q, field.q - 1
        d = gcd(n, nq)
        r = nq // d
        log, zech = field.log_tables()
        g = field.generator()
        # scalar sums, products and differences, and every R's power sum and product
        add, mul, sub = (np.array([[op(a, b) for b in range(q)] for a in range(q)])
                         for op in (field.add, field.mul, field.sub))
        powers = [field.pow(x, n) for x in range(1, q)]
        sums, prods = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        for k in (1, 2):
            sums = add[sums[:, None], powers].ravel()
            prods = mul[prods[:, None], np.arange(1, q)].ravel()
            tuples = counting._sorted_tuples(k, r, n * np.arange(r) % nq, zech, nq)
            cmap, line = counting._torus_table(field, n, k, False, tuples)
            for gamma in range(nq):
                row = np.bincount(sub[sums, mul[field.pow(g, gamma), prods]], minlength=q)
                for li in range(r):
                    lo = (gamma - li) % r
                    assert (d ** (k - 1) * line[cmap[log] + lo + li] == row).all(), (k, gamma, li)
            # the c = 0 table, read at the log of a
            cmap, line = counting._torus_table(field, n, k, True, tuples)
            assert (d ** k * line[cmap[log]] == np.bincount(sums, minlength=q)).all(), k


# (p, m, N) with r = (q-1)/gcd(N, q-1) between 2 and 8, so that a grid of
# one or two logs leaves an outer loop whose last log often equals the
# first log of the grid tuples it extends
TIE_CASES = [
    (7, 1, 4), (11, 1, 4), (7, 1, 5), (2, 4, 5), (11, 1, 5),
    (11, 1, 6), (5, 1, 6), (5, 1, 7), (3, 1, 7), (3, 2, 7),
]


class TestSortedSweep:
    """Multisets of torus logs weighted by their multinomials, and the cyclotomic zero stratum."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("grid", [1, 4])
    @pytest.mark.parametrize("p,m,n", TIE_CASES)
    def test_ties_across_the_grid(self, monkeypatch, p, m, n, grid, workers):
        monkeypatch.setattr(counting, "_GRID_MIN", grid)
        monkeypatch.setattr(counting, "_GRID_MAX", grid)
        field = field_make(p, m)
        r = (field.q - 1) // gcd(n, field.q - 1)
        assert 2 <= r <= 8 and counting._grid_split(r, n - 2) < n - 2
        _assert_fast_equals_naive(field, n, workers)

    def test_workers_one_two_five(self, monkeypatch):
        monkeypatch.setattr(counting, "_GRID_MIN", 1)
        monkeypatch.setattr(counting, "_GRID_MAX", 1)
        spec = FiberSpec(7, classical_weight(7), 2, field_make(13, 1))
        counts = {count_projective_fast(spec, workers=k).projective_count for k in (1, 2, 5)}
        assert counts == {count_projective_naive(spec).projective_count}

    def test_split_follows_cost(self):
        # the first items carry most of the work, as the first outer tuples do
        ranges = []

        def run(start, stop):
            ranges.append((start, stop))
            return stop - start

        assert counting._split_sum(run, np.array([64, 32, 16, 8, 4, 2, 1, 1]), 2) == 8
        assert sorted(ranges) == [(0, 1), (1, 8)]
        ranges.clear()
        assert counting._split_sum(run, np.ones(7), 3) == 7
        assert sorted(ranges) == [(0, 3), (3, 5), (5, 7)]

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2),
                                     (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                     (17, 1), (19, 1), (23, 1), (29, 1), (31, 1)])
    def test_zero_stratum_brute_force(self, p, m):
        field = field_make(p, m)
        for n in range(3, 9):
            if gcd(field.q, n) != 1:
                continue
            assert counting._zero_stratum(field, n) == _zero_stratum_reference(field, n), (field, n)
            if field.q ** (n - 1) <= 20_000:
                points = sum(
                    1 for x in enumerate_points(FiberSpec(n, classical_weight(n), 0, field))
                    if 0 in x
                )
                assert counting._zero_stratum(field, n) == points, (field, n)

    @pytest.mark.parametrize("n,p,m", [(20, 41, 1), (23, 47, 1), (24, 7, 2)])
    def test_zero_stratum_past_int64(self, n, p, m):
        # about q^(N-2) points: the counts are exact integers past 2^63
        field = field_make(p, m)
        expected = _zero_stratum_reference(field, n)
        assert expected > 1 << 63
        assert counting._zero_stratum(field, n) == expected

    def test_weights_past_int64_refused(self):
        # r = 2 and N = 84: 83 multisets, but weights up to C(82, 41) times N
        spec = FiberSpec(84, classical_weight(84), 0, field_make(13, 2))
        with pytest.raises(CapabilityError):
            count_projective_fast(spec)

    def test_weights_at_the_int64_limit(self, monkeypatch):
        # N r^(N-2) bounds every table entry times the inner multinomials it
        # meets.  Over F_5 with N = 2 mod 4, d = 2 and r = 2: N = 58 is below
        # 2^63 and counts, its trace the Hasse-Witt residue; N = 62 is past it
        field = field_make(5, 1)
        assert 58 * 2 ** 56 < 1 << 63 <= 62 * 2 ** 60
        fc = count_projective_fast(FiberSpec(58, classical_weight(58), 2, field))
        assert fc.trace % 5 == _hasse_witt_mod_p(5, 58, 2) and weil_bound_ok(fc.trace, 5, 58)
        with pytest.raises(CapabilityError, match="64-bit"):
            count_projective_fast(FiberSpec(62, classical_weight(62), 2, field))
        # a limit moved down to N r^(N-2) = 5 * 2^3 over F_11 refuses, one past it counts
        spec = FiberSpec(5, W5, 2, field_make(11, 1))
        monkeypatch.setattr(counting, "_INT64", 5 * 2 ** 3)
        with pytest.raises(CapabilityError, match="64-bit"):
            count_projective_fast(spec)
        monkeypatch.setattr(counting, "_INT64", 5 * 2 ** 3 + 1)
        assert count_projective_fast(spec).projective_count == \
            count_projective_naive(spec).projective_count


def _admissible_ks(q, n):
    """k = 1..N-1 with r^k within the grid cap, r = (q-1)/gcd(N, q-1); k = 1 always."""
    r = (q - 1) // gcd(n, q - 1)
    return [k for k in range(1, n) if k == 1 or r ** k <= counting._GRID_MAX]


def _plan_work(q, n, k):
    """The work estimate of resolving k coordinates: table rows, sweep, column tables, zero stratum."""
    d = gcd(n, q - 1)
    r = (q - 1) // d
    middle = n - 1 - k
    outer = middle - counting._grid_split(r, middle)
    return (d + 1) * comb(r + k - 1, k) + comb(r + middle - 1, middle) \
        + comb(r + outer - 1, outer) * q + q


class TestTableSplit:
    """k torus coordinates read from one table and N-1-k swept, at every k the plan admits."""

    @pytest.mark.parametrize("p,m,n", sorted(set(EXTENSION_CASES + QUOTIENT_CASES + TIE_CASES)))
    def test_every_k_equals_naive(self, monkeypatch, p, m, n):
        # every smooth t, t = 0 included, on one and two workers: with the
        # default grid, which holds every middle coordinate here, and with
        # the grid forced down to 1 and 4 entries so that its outer loop runs
        field = field_make(p, m)
        weight = classical_weight(n)
        naive = {t: count_projective_naive(FiberSpec(n, weight, t, field)).projective_count
                 for t in _smooth_params(field, weight)}
        assert 0 in naive
        ks = _admissible_ks(field.q, n)
        r = (field.q - 1) // gcd(n, field.q - 1)
        assert all(counting._grid_split(r, n - 1 - k) == n - 1 - k for k in ks)
        for grid in (None, 1, 4):
            if grid:
                monkeypatch.setattr(counting, "_GRID_MIN", grid)
                monkeypatch.setattr(counting, "_GRID_MAX", grid)
            for workers in (1, 2):
                for k in ks:
                    for t, count in naive.items():
                        spec = FiberSpec(n, weight, t, field)
                        assert counting._count_fast(spec, k, workers) == count, (grid, workers, k, t)

    @pytest.mark.parametrize("q,n,k", [(101, 3, 1), (31, 3, 1), (13, 5, 2), (103, 5, 2), (101, 5, 2),
                                       (13, 7, 3), (101, 7, 3), (5, 58, 21)])
    def test_counts_with_the_planned_k(self, monkeypatch, q, n, k):
        # the k that runs is the one of least estimate, and the budget check
        # quotes that k's estimate
        ran = []
        count_fast = counting._count_fast

        def spy(spec, k, workers):
            ran.append(k)
            return count_fast(spec, k, workers)

        monkeypatch.setattr(counting, "_count_fast", spy)
        work = counting._fast_work(q, n)
        assert work == _plan_work(q, n, k) == min(_plan_work(q, n, j) for j in _admissible_ks(q, n))
        count_projective_fast(FiberSpec(n, classical_weight(n), 2, field_make(q, 1)), budget=work)
        assert ran == [k]


def _zero_stratum_reference(field, n):
    """Points of sum x_i^N = 0 with a zero coordinate, by scalar field arithmetic."""
    # S_j(a) = #{x in (F_q^*)^j : sum x_i^N = a}
    powers = {}
    for x in range(1, field.q):
        y = field.pow(x, n)
        powers[y] = powers.get(y, 0) + 1
    sums, zeros = {0: 1}, [0] * n
    for j in range(1, n):
        nxt = {}
        for a, ca in sums.items():
            for y, cy in powers.items():
                b = field.add(a, y)
                nxt[b] = nxt.get(b, 0) + ca * cy
        sums = nxt
        zeros[j] = sums.get(0, 0)
    # choose the k >= 1 zero coordinates, the other N-k are nonzero
    affine = sum(comb(n, k) * zeros[n - k] for k in range(1, n))
    return affine // (field.q - 1)


class TestTraceAndBounds:
    def test_zero_trace_identity(self):
        q = 11
        assert middle_trace(1 + q + q**2 + q**3, q, 5) == 0

    def test_counter_trace(self):
        spec = FiberSpec(5, W5, 2, field_make(11, 1))
        fc = count_projective_naive(spec)
        assert fc.trace == middle_trace(fc.projective_count, 11, 5)
        assert fc.projective_count + fc.trace == 1 + 11 + 121 + 1331

    def test_sign_follows_parity(self):
        # (-1)^N (count - sum_{j<N-1} q^j): a_q for odd N, the plain excess for even N
        q = 7
        assert middle_trace(1 + q + q**2 + 5, q, 4) == 5
        assert middle_trace(1 + q + q**2 + q**3 + q**4 - 5, q, 6) == -5
        assert middle_trace(1 + q + q**2 + q**3 - 5, q, 5) == 5
        assert middle_trace(1 + q - 5, q, 3) == 5

    def test_weil_bound(self):
        # the bound 204 * q^(3/2) is irrational for q = 11; the check must
        # compare squares exactly, so the integer boundary is isqrt(204^2 * 11^3)
        import math

        limit = math.isqrt(204**2 * 11**3)
        assert weil_bound_ok(0, 11, 5)
        assert weil_bound_ok(limit, 11, 5)
        assert not weil_bound_ok(limit + 1, 11, 5)
        assert weil_bound_ok(-limit, 11, 5)

    def test_weil_bound_beyond_table_limit(self):
        # N = 9 needs the total dimension of a 9^8-vector table; no table is built
        assert weil_bound_ok(0, 7, 9) is True
        assert weil_bound_ok(10**12, 7, 9) is False

    def test_bounds_over_smooth_fibers(self):
        f = field_make(11, 1)
        for t in range(11):
            if pow(t, 5, 11) == 1:
                continue
            fc = count_projective_naive(FiberSpec(5, W5, t, f))
            assert weil_bound_ok(fc.trace, 11, 5)


def _hasse_witt(p, n, t):
    """sum_{k <= (p-1)/N} (p-1)! / ((p-1-Nk)! (k!)^N) (-N t)^(p-1-Nk) mod p.

    The 1 x 1 Hasse-Witt matrix of the classical fiber over F_p (Katz,
    "Another look at the Dwork family"): the coefficient of (x_1...x_N)^(p-1)
    in (sum x_i^N - N t x_1...x_N)^(p-1).  It is the middle trace mod p.
    """
    return sum(
        factorial(p - 1) // (factorial(p - 1 - n * k) * factorial(k) ** n)
        * pow(-n * t, p - 1 - n * k, p)
        for k in range((p - 1) // n + 1)
    ) % p


def _hasse_witt_mod_p(p, n, t):
    """`_hasse_witt` in arithmetic mod p: the factorials below p are units mod p."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    return sum(
        fact[p - 1] * pow(fact[p - 1 - n * k] * pow(fact[k], n, p), -1, p)
        * pow(-n * t, p - 1 - n * k, p)
        for k in range((p - 1) // n + 1)
    ) % p


class TestFastMemory:
    """The torus table has (d+1) r <= 2q entries, so cubics near q = 2^15 count under a 1 GiB cap."""

    def test_mod_p_oracle_equals_exact(self):
        for p in (2, 5, 7, 11, 13):
            for n in (3, 4, 5, 6):
                for t in range(p):
                    assert _hasse_witt_mod_p(p, n, t) == _hasse_witt(p, n, t), (p, n, t)

    def test_cubic_near_two_pow_15_under_memory_cap(self):
        # gcd(3, p - 1) is 3 at 32,749 and 1 at 32,771.  Run apart under a
        # 1 GiB address-space cap, so that an allocation of r x q int32 counts
        # (1.4 GB and 4.3 GB at these primes) fails here instead of exhausting
        # the machine's memory.  By Weil |a_p| <= 2 sqrt(p) < p/2, so the
        # centred Hasse-Witt residue is the trace itself
        resource = pytest.importorskip("resource")
        cap = 1 << 30
        primes = (32749, 32771)
        assert [gcd(3, p - 1) for p in primes] == [3, 1]
        code = (
            "import json; from dworklab.characters import classical_weight; "
            "from dworklab.counting import FiberSpec, count_projective_fast, field_make; "
            "print(json.dumps([count_projective_fast(FiberSpec(3, classical_weight(3), 2, "
            f"field_make(p, 1))).trace for p in {primes}]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 0, proc.stderr
        for p, trace in zip(primes, json.loads(proc.stdout)):
            residue = _hasse_witt_mod_p(p, 3, 2)
            assert trace == (residue if residue < p / 2 else residue - p), (p, trace)
            assert trace * trace <= 4 * p


class TestEvenTraces:
    """One trace formula for every N, checked where the old odd-only path had none."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hasse_witt_congruence(self, n):
        flipped = fibers = 0
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            if n % p == 0:
                continue
            field = field_make(p, 1)
            for t in _smooth_params(field, classical_weight(n)):
                trace = count_projective_fast(FiberSpec(n, classical_weight(n), t, field)).trace
                assert trace % p == _hasse_witt(p, n, t), (p, t, trace)
                fibers += 1
                flipped += -trace % p != _hasse_witt(p, n, t)
        # the oracle sees the sign: the opposite one fails on most fibers
        assert flipped > fibers // 2, (flipped, fibers)

    @pytest.mark.parametrize("n,p,m", [(4, 3, 1), (4, 5, 1), (4, 7, 1), (4, 13, 1), (4, 3, 2),
                                       (4, 5, 2), (4, 3, 3), (6, 5, 1), (6, 7, 1), (6, 11, 1),
                                       (6, 13, 1), (6, 5, 2), (6, 7, 2)])
    def test_weil_bound_every_smooth_fiber(self, n, p, m):
        field = field_make(p, m)
        weight = classical_weight(n)
        for t in _smooth_params(field, weight):
            fc = count_projective_fast(FiberSpec(n, weight, t, field))
            assert weil_bound_ok(fc.trace, field.q, n), (t, fc.trace)
            assert fc.projective_count == sum(field.q ** j for j in range(n - 1)) + fc.trace

    @pytest.mark.parametrize("n,p,m", [(2, 5, 1), (4, 7, 1), (4, 13, 1), (4, 3, 2), (6, 5, 1),
                                       (6, 13, 1)])
    def test_fast_and_naive_traces_equal(self, n, p, m):
        field = field_make(p, m)
        for t in _smooth_params(field, classical_weight(n)):
            spec = FiberSpec(n, classical_weight(n), t, field)
            assert count_projective_fast(spec).trace == count_projective_naive(spec).trace, t

    def test_nonclassical_even_weil_bound(self):
        for entries in [(2, 2, 0, 0), (0, 1, 1, 2), (3, 3, 0, 0, 0, 0)]:
            weight = WeightVector(len(entries), entries)
            field = field_make(5 if len(entries) == 6 else 7, 1)
            for t in _smooth_params(field, weight):
                fc = count_projective_naive(FiberSpec(len(entries), weight, t, field))
                assert weil_bound_ok(fc.trace, field.q, len(entries), weight), (entries, t)

    def test_paper_fiber(self):
        # the P^5 member of the family over F_13 at t = 2
        fc = count_projective_fast(FiberSpec(6, classical_weight(6), 2, field_make(13, 1)))
        assert (fc.projective_count, fc.trace) == (9810, -21131)
        assert fc.trace % 13 == _hasse_witt(13, 6, 2) == 7

    def test_quartic_tower(self):
        spec = FiberSpec(4, classical_weight(4), 2, field_make(7, 1))
        for fc in tower_counts(spec, 2):
            q = fc.spec.field.q
            assert fc.projective_count == 1 + q + q * q + fc.trace
            assert weil_bound_ok(fc.trace, q, 4)
            assert fc.trace == count_projective_naive(fc.spec).trace


class TestGroupAction:
    def setup_method(self):
        self.field = field_make(11, 1)
        self.spec = FiberSpec(5, W5, 2, self.field)

    def test_identity(self):
        assert group_action_check(self.spec, (1, 1, 1, 1, 1))

    def test_paired_roots(self):
        z = self.field.pow(self.field.generator(), 2)
        assert self.field.pow(z, 5) == 1 and z != 1
        assert group_action_check(self.spec, (z, self.field.inv(z), 1, 1, 1))

    def test_weight_relation_enforced(self):
        z = self.field.pow(self.field.generator(), 2)
        with pytest.raises(ValueError):
            group_action_check(self.spec, (z, 1, 1, 1, 1))

    def test_non_root_entry_rejected(self):
        with pytest.raises(ValueError):
            group_action_check(self.spec, (2, self.field.inv(2), 1, 1, 1))

    def test_requires_split_field(self):
        spec = FiberSpec(5, W5, 2, field_make(13, 1))
        with pytest.raises(CharacteristicError):
            group_action_check(spec, (1, 1, 1, 1, 1))

    def test_group_size(self):
        gammas = group_elements(W5, self.field)
        assert len(gammas) == 125
        assert gammas[0] == (1, 1, 1, 1, 1)
        for g in gammas:
            prod = 1
            for gi in g:
                prod = self.field.mul(prod, gi)
            assert prod == 1

    def test_sampled_check(self):
        z = self.field.pow(self.field.generator(), 2)
        gamma = (z, z, z, self.field.inv(z), self.field.mul(self.field.inv(z), self.field.inv(z)))
        assert group_action_check(self.spec, gamma, sample_size=50)


class TestTower:
    def test_single_level_equals_naive(self):
        spec = FiberSpec(5, W5, 2, field_make(3, 1))
        tower = tower_counts(spec, 1)
        assert len(tower) == 1
        assert tower[0].projective_count == count_projective_naive(spec).projective_count

    def test_two_levels(self):
        spec = FiberSpec(5, W5, 2, field_make(3, 1))
        tower = tower_counts(spec, 2)
        assert [fc.spec.field.q for fc in tower] == [3, 9]
        for fc in tower:
            q = fc.spec.field.q
            assert fc.projective_count + fc.trace == sum(q**j for j in range(4))
            assert weil_bound_ok(fc.trace, q, 5)
        # level-2 count against scalar brute force
        assert tower[1].projective_count == brute_count(tower[1].spec)

    def test_budget_refusal(self):
        spec = FiberSpec(5, W5, 2, field_make(11, 1))
        with pytest.raises(BudgetError) as err:
            tower_counts(spec, 50)
        assert err.value.required > err.value.budget

    def test_budget_sums_fast_estimates(self):
        # the refusal quotes the fast counter's estimate, not the naive candidate count
        spec = FiberSpec(5, W5, 2, field_make(3, 1))
        naive_work = candidate_count(3, 5) + candidate_count(9, 5)
        with pytest.raises(BudgetError) as err:
            tower_counts(spec, 2, budget=100)
        assert 100 < err.value.required < naive_work
        assert len(tower_counts(spec, 2, budget=err.value.required)) == 2

    @pytest.mark.parametrize("n,p,t,levels", [(3, 5, 2, 3), (3, 2, 0, 4), (5, 3, 2, 2), (4, 3, 0, 2)])
    def test_classical_levels_equal_naive(self, n, p, t, levels):
        spec = FiberSpec(n, classical_weight(n), t, field_make(p, 1))
        tower = tower_counts(spec, levels)
        assert [fc.spec.field.q for fc in tower] == [p ** m for m in range(1, levels + 1)]
        for fc in tower:
            assert fc.strategy == "fast"
            assert fc.projective_count == count_projective_naive(fc.spec).projective_count

    @pytest.mark.parametrize("p,t,levels", [(7, 3, 4), (5, 2, 5), (7, 3, 5), (5, 2, 6)])
    def test_hesse_cubic_frobenius_recurrence(self, p, t, levels):
        # a smooth plane cubic has genus one: a_k = alpha^k + beta^k with
        # alpha beta = p, so a_(k+1) = a_1 a_k - p a_(k-1) with a_0 = 2, a
        # check well past the naive counter's range.  3 divides q - 1 at
        # every level over F_7, and at the even levels only over F_5
        spec = FiberSpec(3, classical_weight(3), t, field_make(p, 1))
        tower = tower_counts(spec, levels)
        assert [fc.strategy for fc in tower] == ["fast"] * levels
        assert tower[0].projective_count == count_projective_naive(spec).projective_count
        traces = [2] + [fc.trace for fc in tower]
        for k in range(1, levels):
            assert traces[k + 1] == traces[1] * traces[k] - p * traces[k - 1], k

    def test_nonclassical_tower_stays_naive(self):
        spec = FiberSpec(4, WeightVector(4, (2, 2, 0, 0)), 0, field_make(3, 1))
        tower = tower_counts(spec, 2)
        assert [fc.strategy for fc in tower] == ["naive", "naive"]
        assert tower[1].projective_count == brute_count(tower[1].spec)

    def test_classical_n1_refused(self):
        spec = FiberSpec(1, classical_weight(1), 2, field_make(5, 1))
        with pytest.raises(CapabilityError, match="N >= 2"):
            tower_counts(spec, 2)

    def test_extension_parameter_rejected(self):
        f9 = field_make(3, 2)
        spec = FiberSpec(5, W5, 5, f9)  # t = 5 encodes x + 2, outside F_3
        with pytest.raises(CapabilityError):
            tower_counts(spec, 2)
