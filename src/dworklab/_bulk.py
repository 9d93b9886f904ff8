"""Vectorized enumeration kernels.

Everything here works on tables of zero-sum residue vectors for a given
modulus N, encoded as base-N integers so that numeric order equals
lexicographic order on the vectors.  The public modules keep small per-class
operations in plain Python; these kernels exist for the bulk jobs (class
enumeration, repeated-weight scans) where a full table has N^(N-1) rows.

When some coordinate j has gcd(w_j, N) = 1, every coset contains exactly one
vector with v_j = 0, so the classes are enumerated directly from the
N^(N-2)-row transversal {v : v_j = 0}; otherwise the kernels fall back to
the full table and deduplicate.  Tables are column-major, uint8 of shape
(N, rows), and ``class_weight_stats`` sweeps one once per (N, W); class
enumeration and the repeated-weight scan both read that sweep.

Both table builders (``zero_sum_table``, ``_transversal_table``) call the
one row check, ``_check_rows``, before they allocate: it admits N = 8's
full table and N = 9's transversal, and refuses anything larger with a
ValueError.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

# one check (_check_rows) covers every table: N = 8's full table (8^7 rows) and
# N = 9's transversal (9^7 rows) fit; N = 9's full table and N = 10's transversal do not
MAX_TABLE_ROWS = 25_000_000


def _check_rows(modulus: int, rows: int) -> None:
    if rows > MAX_TABLE_ROWS:
        raise ValueError(
            f"class enumeration for modulus {modulus} needs {rows} rows, "
            f"over the limit of {MAX_TABLE_ROWS}"
        )


def _sum_constrained_rows(modulus: int, positions: list[int], dep: int) -> np.ndarray:
    """Read-only (N, rows) table whose columns sweep `positions` freely in lex
    order, with the `dep` coordinate forced by the zero-sum condition and all
    others zero."""
    n, free = modulus, len(positions)
    table = np.zeros((n, n ** free), dtype=np.uint8)
    table[positions] = np.indices((n,) * free, dtype=np.uint8).reshape(free, n ** free)
    table[dep] = -table.sum(axis=0, dtype=np.int16) % n
    table.flags.writeable = False
    return table


@lru_cache(maxsize=6)
def zero_sum_table(modulus: int) -> np.ndarray:
    """All vectors in {0..N-1}^N with zero coordinate sum mod N, in lex order."""
    n = modulus
    _check_rows(n, n ** (n - 1))
    return _sum_constrained_rows(n, list(range(n - 1)), n - 1)


@lru_cache(maxsize=16)
def _transversal_table(modulus: int, zero_at: int) -> np.ndarray:
    """Zero-sum vectors with coordinate `zero_at` equal to 0 (N^(N-2) columns)."""
    n = modulus
    _check_rows(n, n ** (n - 2))
    dep = n - 1 if zero_at != n - 1 else n - 2
    free = [i for i in range(n) if i not in (zero_at, dep)]
    return _sum_constrained_rows(n, free, dep)


def _transversal_position(modulus: int, weight: tuple[int, ...]) -> int | None:
    for j, w in enumerate(weight):
        if gcd(w, modulus) == 1:
            return j
    return None


def code_dtype(modulus: int) -> type:
    """The narrowest integer dtype holding every code; the largest is N^N - 1."""
    return np.int32 if modulus ** modulus <= 2 ** 31 else np.int64


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


def _check_canonical(codes: np.ndarray, member: np.ndarray) -> None:
    """Raise unless ``codes`` strictly increase and no member code of a class
    (a column of ``member``) is below its class's code.

    Class enumeration and the repeated-weight scan build their classes from
    these codes without re-canonicalising each one in Python; this one
    vectorised pass is what they trust instead.
    """
    if not (codes[1:] > codes[:-1]).all():
        raise RuntimeError("class sweep codes are not strictly increasing")
    if not (member >= codes).all():
        raise RuntimeError("class sweep code is not the least member of its class")


def class_weight_stats(modulus: int, weight: tuple[int, ...]):
    """One sweep over the N coset members of every class of (N, W).

    Returns (codes, tnz, lift, member): the sorted canonical (least member)
    codes, one per class, and three (N, n_classes) arrays whose entry [k, j]
    describes member v_j + kW of class j: totally nonzero (bool), lift sum
    (int16) and code (``code_dtype(N)``, as ``codes``).  The table is
    stepped by W in place, and member k's code is a Horner pass over its N
    rows.  On the full table a column is kept when it is its class's least
    member; the transversal's columns are argsorted.  Each array is gathered
    once, and ``_check_canonical`` checks the result before it is returned.
    """
    n = modulus
    j = _transversal_position(n, weight)
    full = j is None or n < 3
    table = zero_sum_table(n) if full else _transversal_table(n, j)

    step = np.array([w % n for w in weight], dtype=np.uint8)[:, None]
    vec, below = table.copy(), np.empty_like(table)
    tnz = np.empty(table.shape, dtype=bool)
    lift = np.empty(table.shape, dtype=np.int16)
    member = np.empty(table.shape, dtype=code_dtype(n))
    for k in range(n):
        if k:
            vec += step
            # entries lie in 0..2N-2, and below N the uint8 vec - N wraps past them
            np.minimum(vec, np.subtract(vec, n, out=below), out=vec)
        code = member[k]
        code[...] = vec[0]
        for i in range(1, n):
            code *= n
            code += vec[i]
        vec.all(axis=0, out=tnz[k])
        vec.sum(axis=0, dtype=np.int16, out=lift[k])
    del vec, below

    canon = member.min(axis=0)
    # the full table is in code order, so its least members come out sorted
    order = np.flatnonzero(member[0] == canon) if full else np.argsort(canon)
    # one array at a time, so that only one old array outlives its copy
    tnz = tnz.take(order, axis=1)
    lift = lift.take(order, axis=1)
    member = member.take(order, axis=1)
    codes = canon.take(order)
    _check_canonical(codes, member)
    return codes, tnz, lift, member


@lru_cache(maxsize=8)
def canonical_class_codes(modulus: int, weight: tuple[int, ...]) -> np.ndarray:
    """Sorted codes of the lex-least coset representatives, one per class."""
    return class_weight_stats(modulus, weight)[0]


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
    then N for its other members (int8), and ``tnz``/``member`` are those of
    ``class_weight_stats`` (bool, and ``code_dtype(N)`` like ``codes``).
    All arrays are read-only.
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
def repeat_scan(modulus: int, weight: tuple[int, ...], indexed: bool) -> RepeatScan:
    """The exhaustive repeated-weight scan over every class of (N, W).

    Under indexed semantics all N totally nonzero coset members count, so
    coinciding members with equal weights make a repeat; under set
    semantics member k counts only when its code differs from the codes of
    all members k' < k.
    """
    n = modulus
    codes, tnz, lift, member = class_weight_stats(modulus, weight)
    lift //= n
    lift -= 1
    weights = lift.astype(np.int8)
    del lift
    np.putmask(weights, ~(tnz if indexed else tnz & _first_members(member)), n)
    _sort_columns(weights)
    flag = ((weights[1:] == weights[:-1]) & (weights[1:] < n)).any(axis=0)
    return RepeatScan(n, codes.compress(flag), flag, weights, tnz, member)
