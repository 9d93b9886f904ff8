"""Vectorized enumeration kernels.

Everything here works on tables of zero-sum residue vectors for a given
modulus N, encoded as base-N integers so that numeric order equals
lexicographic order on the vectors.  The public modules keep small per-class
operations in plain Python; these kernels exist for the bulk jobs (class
enumeration, repeated-weight scans) where a full table has N^(N-1) rows.

With g = gcd(N, w_1, ..., w_N) = N/ord(W), let j be the first coordinate
with gcd(w_j, N) = g.  As k runs over Z/ord(W), v_j + k*w_j runs once
through v_j + gZ/N, so every class has exactly one member with v_j < g, and
the classes are enumerated directly from the transversal {v : v_j < g} of
N^(N-1)/ord(W) rows: N^(N-2) when some weight is a unit, the full table
when W = 0 mod N.  Tables are column-major, uint8 of shape (N, rows), and
``class_weight_stats`` sweeps one once per (N, W); class enumeration and
the repeated-weight scan both read that sweep.  It takes ord(W) shifts:
for k < ord(W) the members v + kW are pairwise distinct, and the N indexed
members are those ord(W) repeated g times.

``class_weight_stats`` checks the one row limit, ``_check_rows``, before it
looks for j or builds a table: it admits every W at N <= 8 and N = 9 when
g = 1, and refuses anything larger with a ValueError.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

import numpy as np

# one check (_check_rows) counts the classes, N^(N-1)/ord(W), one row each: every W
# at N <= 8 (at most 8^7 rows) and N = 9 with g = 1 (9^7) fit; N = 9 with g = 3
# (3 * 9^7 rows; from the dtypes, its 3 shifts peak at 54 bytes a row while they
# are sorted, about 0.8 GB) and every W at N >= 10 do not
MAX_TABLE_ROWS = 10_000_000


def _check_rows(modulus: int, rows: int) -> None:
    if rows > MAX_TABLE_ROWS:
        raise ValueError(
            f"class enumeration for modulus {modulus} needs {rows} rows, "
            f"over the limit of {MAX_TABLE_ROWS}"
        )


def _sum_constrained_rows(
    modulus: int, positions: list[int], sizes: list[int], dep: int
) -> np.ndarray:
    """Read-only (N, rows) table whose columns sweep each of `positions`
    through 0..size-1 in lex order, with the `dep` coordinate forced by the
    zero-sum condition."""
    n, rows = modulus, prod(sizes)
    table = np.zeros((n, rows), dtype=np.uint8)
    table[positions] = np.indices(sizes, dtype=np.uint8).reshape(len(sizes), rows)
    table[dep] = -table.sum(axis=0, dtype=np.int16) % n
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _transversal_table(modulus: int, at: int, below: int) -> np.ndarray:
    """Zero-sum vectors with coordinate `at` below `below` (below * N^(N-2)
    columns when N >= 2)."""
    n = modulus
    dep = 0 if at == n - 1 else n - 1
    free = [i for i in range(n) if i != dep]
    return _sum_constrained_rows(n, free, [below if i == at else n for i in free], dep)


def code_dtype(modulus: int) -> type:
    """The narrowest integer dtype holding every code; the largest is N^N - 1."""
    return np.int32 if modulus ** modulus <= 2 ** 31 else np.int64


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
    """One sweep over the ord(W) distinct coset members of every class of (N, W).

    Returns (codes, tnz, lift, member): the sorted canonical (least member)
    codes, one per class, and three (ord(W), n_classes) arrays whose entry
    [k, c] describes member v_c + kW of class c: totally nonzero (bool), lift
    sum (int16) and code (``code_dtype(N)``, as ``codes``).  The row limit is
    checked first.  v_c is class c's one member in the transversal
    {v : v_j < g} (see the module docstring), which is its least member
    whenever w_j is W's first entry nonzero mod N.  The table is stepped by W
    in place, member k's code is a Horner pass over its N rows, and the
    columns are argsorted by their least member.  Each array is gathered
    once, and ``_check_canonical`` checks the result before it is returned.
    """
    n = modulus
    g = gcd(n, *weight)
    order = n // g
    _check_rows(n, n ** (n - 1) // order)
    j = next(i for i, w in enumerate(weight) if gcd(w, n) == g)
    table = _transversal_table(n, j, g)

    step = np.array([w % n for w in weight], dtype=np.uint8)[:, None]
    vec, below = table.copy(), np.empty_like(table)
    shape = (order, table.shape[1])
    tnz = np.empty(shape, dtype=bool)
    lift = np.empty(shape, dtype=np.int16)
    member = np.empty(shape, dtype=code_dtype(n))
    for k in range(order):
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
    order = np.argsort(canon)
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
    column per class, in code order: ``flag`` marks the flagged classes, and
    column j of ``weights`` holds class j's counted weights ascending and
    then N for its other members (int8; N rows, or ord(W) under set
    semantics).  All arrays are read-only.  The indexed multiset is the set
    one repeated g times and a flagged class has a weight, so the two differ
    for every flagged class when g > 1 and for none when g = 1: that is
    ``divergent``.
    """

    modulus: int
    codes: np.ndarray
    flag: np.ndarray
    weights: np.ndarray
    divergent: bool

    def __post_init__(self):
        for array in (self.codes, self.flag, self.weights):
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
        if len(weights) < n:  # set semantics, g > 1: rows keep width N
            weights = np.pad(weights, ((0, n - len(weights)), (0, 0)), constant_values=n)
        repeat = (weights[1:] == weights[:-1]) & (weights[1:] < n)
        # walking up a sorted column, the last repeat met is at the least repeated value
        value = np.full(weights.shape[1], n, dtype=np.int8)
        for k in reversed(range(n - 1)):
            np.copyto(value, weights[k], where=repeat[k])
        return (
            weights.T,
            (weights < n).sum(axis=0),
            value,
            (weights == value).sum(axis=0),
            np.full(weights.shape[1], self.divergent),
        )


@lru_cache(maxsize=8)
def repeat_scan(modulus: int, weight: tuple[int, ...], indexed: bool) -> RepeatScan:
    """The exhaustive repeated-weight scan over every class of (N, W).

    The sweep's ord(W) rows are each class's distinct members, which set
    semantics counts.  Indexed semantics counts all N members v + kW, each
    distinct one g times, so its sorted weights are the sorted set weights
    with every row repeated g times.
    """
    n = modulus
    codes, tnz, lift = class_weight_stats(modulus, weight)[:3]
    g = n // len(tnz)
    lift //= n
    lift -= 1
    weights = lift.astype(np.int8)
    del lift
    np.putmask(weights, ~tnz, n)
    _sort_columns(weights)
    if indexed and g > 1:
        weights = np.repeat(weights, g, axis=0)
    flag = ((weights[1:] == weights[:-1]) & (weights[1:] < n)).any(axis=0)
    return RepeatScan(n, codes.compress(flag), flag, weights, g > 1)
