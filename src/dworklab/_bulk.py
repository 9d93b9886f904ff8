"""Vectorized enumeration kernels.

Everything here works on tables of zero-sum residue vectors for a given
modulus N, encoded as base-N integers so that numeric order equals
lexicographic order on the vectors.  The public modules keep small per-class
operations in plain Python; these kernels exist for the bulk jobs (class
enumeration, repeated-weight scans) where a full table has N^(N-1) rows.

When some coordinate j has gcd(w_j, N) = 1, every coset contains exactly one
vector with v_j = 0, so the classes are enumerated directly from the
N^(N-2)-row transversal {v : v_j = 0}; otherwise the kernels fall back to
the full table and deduplicate.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

# full-table fallback ceiling: N = 8 -> ~17M rows is the practical limit
MAX_TABLE_ROWS = 25_000_000


def table_rows(modulus: int) -> int:
    return modulus ** (modulus - 1)


def check_table_budget(modulus: int, max_rows: int = MAX_TABLE_ROWS) -> None:
    rows = table_rows(modulus)
    if rows > max_rows:
        raise ValueError(
            f"bulk enumeration for modulus {modulus} needs {rows} rows, "
            f"over the limit of {max_rows}; raise max_rows to force it"
        )


def _sum_constrained_rows(modulus: int, positions: list[int], dep: int) -> np.ndarray:
    """Rows over {0..N-1}^N sweeping `positions` freely, with the `dep`
    coordinate forced by the zero-sum condition and all others zero."""
    n = modulus
    count = n ** len(positions)
    idx = np.arange(count, dtype=np.int64)
    rows = np.zeros((count, n), dtype=np.int8)
    acc = np.zeros(count, dtype=np.int64)
    for rank, i in enumerate(positions):
        col = (idx // (n ** (len(positions) - 1 - rank))) % n
        rows[:, i] = col
        acc += col
    rows[:, dep] = (-acc) % n
    return rows


@lru_cache(maxsize=6)
def zero_sum_table(modulus: int) -> np.ndarray:
    """All vectors in {0..N-1}^N with zero coordinate sum mod N, in lex order."""
    n = modulus
    check_table_budget(n)
    return _sum_constrained_rows(n, list(range(n - 1)), n - 1)


@lru_cache(maxsize=16)
def _transversal_table(modulus: int, zero_at: int) -> np.ndarray:
    """Zero-sum vectors with coordinate `zero_at` equal to 0 (N^(N-2) rows)."""
    n = modulus
    dep = n - 1 if zero_at != n - 1 else n - 2
    free = [i for i in range(n) if i not in (zero_at, dep)]
    return _sum_constrained_rows(n, free, dep)


def _transversal_position(modulus: int, weight: tuple[int, ...]) -> int | None:
    for j, w in enumerate(weight):
        if gcd(w, modulus) == 1:
            return j
    return None


def _encode(rows: np.ndarray, modulus: int) -> np.ndarray:
    code = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(rows.shape[1]):
        code *= modulus
        code += rows[:, i]
    return code


def decode(code: int, modulus: int) -> tuple[int, ...]:
    n = modulus
    return tuple(int(code // n ** (n - 1 - i)) % n for i in range(n))


def decode_many(codes: np.ndarray, modulus: int) -> list[tuple[int, ...]]:
    n = modulus
    rows = np.empty((len(codes), n), dtype=np.int64)
    for i in range(n):
        rows[:, i] = (codes // n ** (n - 1 - i)) % n
    return [tuple(r) for r in rows.tolist()]


def encode_one(entries: tuple[int, ...], modulus: int) -> int:
    code = 0
    for e in entries:
        code = code * modulus + e
    return code


def _shifted(rows: np.ndarray, k: int, weight: tuple[int, ...], modulus: int) -> np.ndarray:
    shift = np.array([(k * w) % modulus for w in weight], dtype=np.int16)
    out = rows.astype(np.int16) + shift
    out[out >= modulus] -= modulus
    return out


def _class_rows(modulus: int, weight: tuple[int, ...], max_rows: int):
    """(rows, canon) with one row per class; canon[i] is the lex-least coset
    member code of row i.  Rows are not themselves canonical in general."""
    n = modulus
    j = _transversal_position(n, weight)
    if j is not None and n >= 3:
        if n ** (n - 2) > max_rows:
            raise ValueError(
                f"class enumeration for modulus {n} needs {n ** (n - 2)} rows, "
                f"over the limit of {max_rows}"
            )
        rows = _transversal_table(n, j)
        canon = _encode(rows, n)
        for k in range(1, n):
            np.minimum(canon, _encode(_shifted(rows, k, weight, n), n), out=canon)
        return rows, canon
    # fallback: dedupe the full table
    check_table_budget(n, max_rows)
    rows = zero_sum_table(n)
    own = _encode(rows, n)
    canon = own.copy()
    for k in range(1, n):
        np.minimum(canon, _encode(_shifted(rows, k, weight, n), n), out=canon)
    keep = own == canon
    return rows[keep], canon[keep]


@lru_cache(maxsize=8)
def canonical_class_codes(
    modulus: int, weight: tuple[int, ...], max_rows: int = MAX_TABLE_ROWS
) -> np.ndarray:
    """Sorted codes of the lex-least coset representatives, one per class."""
    _, canon = _class_rows(modulus, weight, max_rows)
    return np.sort(canon)


def class_weight_stats(modulus: int, weight: tuple[int, ...], max_rows: int = MAX_TABLE_ROWS):
    """Per-class arrays used by the repeated-weight scan (which caches them).

    Returns (codes, tnz, ht, member) where codes is the sorted array of
    canonical representative codes and the other three have shape
    (N, n_classes): entry [k, j] describes the k-th coset member of class j
    (totally-nonzero flag, weight value, member code).
    """
    n = modulus
    rows, canon = _class_rows(n, weight, max_rows)
    order = np.argsort(canon)
    rows = rows[order]
    codes = canon[order]

    count = rows.shape[0]
    tnz = np.empty((n, count), dtype=bool)
    ht = np.empty((n, count), dtype=np.int32)
    member = np.empty((n, count), dtype=np.int64)
    for k in range(n):
        shifted = _shifted(rows, k, weight, n)
        tnz[k] = shifted.all(axis=1)
        ht[k] = shifted.sum(axis=1, dtype=np.int32) // n - 1
        member[k] = _encode(shifted, n)
    return codes, tnz, ht, member


def _first_members(member: np.ndarray) -> np.ndarray:
    """Whether member k of a class differs from all its members k' < k."""
    first = np.ones(member.shape, dtype=bool)
    for k in range(1, member.shape[0]):
        first[k] = (member[:k] != member[k]).all(axis=0)
    return first


def _sort_columns(table: np.ndarray) -> None:
    """Sort every column in place by odd-even transposition.

    Round r compare-exchanges rows (i, i+1) for i = r mod 2, r mod 2 + 2, ...;
    as many rounds as rows sort any column.  Each round is two vectorized
    passes, much faster than np.sort over many short columns.
    """
    for r in range(table.shape[0]):
        upper, lower = table[r % 2 : -1 : 2], table[r % 2 + 1 :: 2]
        low = np.minimum(upper, lower)
        np.maximum(upper, lower, out=lower)
        upper[...] = low


@dataclass(frozen=True, eq=False)
class RepeatScan:
    """One exhaustive repeated-weight scan over the classes of (N, W).

    ``codes`` are the sorted canonical codes of the classes whose weight
    multiset has a repeat; membership queries need nothing else, so the
    report fields are left to ``report_fields``.  The other arrays have one
    column per class, in code order: ``flag`` marks the flagged classes,
    column j of ``weights`` holds class j's counted weights ascending and
    then N for its other members, and ``tnz``/``member`` are those of
    ``class_weight_stats``.  All arrays are read-only.
    """

    modulus: int
    codes: np.ndarray
    flag: np.ndarray
    weights: np.ndarray
    tnz: np.ndarray
    member: np.ndarray

    def __post_init__(self):
        for array in (self.codes, self.flag, self.weights, self.tnz, self.member):
            array.flags.writeable = False

    def report_fields(self):
        """(weights, dimension, repeated_value, multiplicity, divergent).

        One row or entry per flagged class, in the order of ``codes``:
        its weights ascending (padded with N past its dimension), the least
        weight occurring twice and its count, and whether the set and
        indexed multisets differ.
        """
        n = self.modulus
        weights = self.weights.compress(self.flag, axis=1)
        repeat = (weights[1:] == weights[:-1]) & (weights[1:] < n)
        # walking up a sorted column, the last repeat met is at the least repeated value
        value = np.full(weights.shape[1], n, dtype=np.int8)
        for k in reversed(range(n - 1)):
            np.copyto(value, weights[k], where=repeat[k])
        # the indexed multiset is the set one plus the weights of repeated members
        tnz = self.tnz.compress(self.flag, axis=1)
        first = _first_members(self.member.compress(self.flag, axis=1))
        return (
            weights.T,
            (weights < n).sum(axis=0),
            value,
            (weights == value).sum(axis=0),
            (tnz & ~first).any(axis=0),
        )


@lru_cache(maxsize=8)
def repeat_scan(
    modulus: int, weight: tuple[int, ...], indexed: bool, max_rows: int = MAX_TABLE_ROWS
) -> RepeatScan:
    """The exhaustive repeated-weight scan over every class of (N, W).

    Under indexed semantics all N totally nonzero coset members count, so
    coinciding members with equal weights make a repeat; under set
    semantics member k counts only when its code differs from the codes of
    all members k' < k.
    """
    n = modulus
    codes, tnz, ht, member = class_weight_stats(modulus, weight, max_rows)
    weights = ht.astype(np.int8)
    np.putmask(weights, ~(tnz if indexed else tnz & _first_members(member)), n)
    _sort_columns(weights)
    flag = ((weights[1:] == weights[:-1]) & (weights[1:] < n)).any(axis=0)
    return RepeatScan(n, codes.compress(flag), flag, weights, tnz, member)
