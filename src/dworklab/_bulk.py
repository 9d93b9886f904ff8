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
when W = 0 mod N.  Tables are column-major, uint8 of shape (N, rows).

``class_sweep`` is the one cache: one ``ClassSweep`` per (N, W), which
class enumeration and both semantics of the repeated-weight scan read, so
no (N, W) is swept twice while it stays cached.  The sweep
(``class_weight_stats``) takes ord(W) shifts: for k < ord(W) the members
v + kW are pairwise distinct, and the N indexed members are those ord(W)
repeated g times.  It checks the one row limit, ``_check_rows``, before it
looks for j or builds a table: it admits every W at N <= 8 and N = 9 when
g = 1, and refuses anything larger with a ValueError.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

import numpy as np

# one check (_check_rows) counts the classes, N^(N-1)/ord(W), one row each: every W
# at N <= 8 (at most 8^7 rows) and N = 9 with g = 1 (9^7) fit; N = 9 with g = 3
# (3 * 9^7 rows; from the dtypes, its 3 shifts peak at about 40 bytes a row, about
# 0.6 GB) and every W at N >= 10 do not
MAX_TABLE_ROWS = 10_000_000


def _check_rows(modulus: int, rows: int) -> None:
    if rows > MAX_TABLE_ROWS:
        raise ValueError(
            f"class enumeration for modulus {modulus} needs {rows} rows, "
            f"over the limit of {MAX_TABLE_ROWS}"
        )


def _transversal_table(modulus: int, at: int, below: int) -> np.ndarray:
    """(N, rows) table of the zero-sum vectors with coordinate `at` below
    `below` (below * N^(N-2) columns when N >= 2), in lex order: every other
    coordinate but one sweeps 0..N-1, and that `dep` coordinate is forced by
    the zero-sum condition."""
    n = modulus
    dep = 0 if at == n - 1 else n - 1
    free = [i for i in range(n) if i != dep]
    sizes = [below if i == at else n for i in free]
    rows = prod(sizes)
    table = np.zeros((n, rows), dtype=np.uint8)
    table[free] = np.indices(sizes, dtype=np.uint8).reshape(len(sizes), rows)
    table[dep] = -table.sum(axis=0, dtype=np.int16) % n
    return table


def code_dtype(modulus: int) -> type:
    """The narrowest integer dtype holding every code; the largest is N^N - 1."""
    return np.int32 if modulus ** modulus <= 2 ** 31 else np.int64


def decode_many(codes: np.ndarray, modulus: int) -> list[tuple[int, ...]]:
    """The zero-sum vectors with these codes, as tuples of Python ints.

    ``characters._trusted_vector`` builds ``ResidueVector``s from these rows
    without ``ResidueVector.__post_init__``, so its three conditions hold
    here: each row has N entries in 0..N-1 by construction (base-N digits),
    and one pass over the array checks that every row sums to 0 mod N.
    """
    n = modulus
    rows = np.empty((len(codes), n), dtype=np.int64)
    for i in range(n):
        rows[:, i] = (codes // n ** (n - 1 - i)) % n
    if (rows.sum(axis=1) % n).any():
        raise RuntimeError(f"a decoded code is not a zero-sum vector mod {n}")
    return list(map(tuple, rows.tolist()))


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

    Returns (codes, weights, member): the sorted canonical (least member)
    codes, one per class, and two (ord(W), n_classes) arrays.  Entry [k, c]
    of ``member`` is the code of member v_c + kW of class c (``code_dtype(N)``,
    as ``codes``); column c of ``weights`` (int8) holds the weights
    lift/N - 1 of class c's totally nonzero members ascending, then N once
    for each of its other members.  The row limit is checked first.  v_c is
    class c's one member in the transversal {v : v_j < g} (see the module
    docstring), which is its least member whenever w_j is W's first entry
    nonzero mod N.  The table is stepped by W in place, member k's code is a
    Horner pass over its N rows and its weight is read from the same rows,
    and the columns are argsorted by their least member.  Each array is
    gathered into that order in place, one row at a time, and
    ``_check_canonical`` checks the result before it is returned.
    """
    n = modulus
    g = gcd(n, *weight)
    order = n // g
    _check_rows(n, n ** (n - 1) // order)
    j = next(i for i, w in enumerate(weight) if gcd(w, n) == g)
    vec = _transversal_table(n, j, g)

    step = np.array([w % n for w in weight], dtype=np.uint8)[:, None]
    below = np.empty_like(vec)
    shape = (order, vec.shape[1])
    weights = np.empty(shape, dtype=np.int8)
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
        weights[k] = np.where(vec.all(axis=0), vec.sum(axis=0, dtype=np.int16) // n - 1, n)
    del vec, below

    canon = member.min(axis=0)
    order = np.argsort(canon)
    # one row at a time, in place, so that no second (ord(W), classes) array is made
    for table in (weights, member):
        for row in table:
            row[...] = row.take(order)
    codes = canon.take(order)
    _check_canonical(codes, member)
    _sort_columns(weights)
    return codes, weights, member


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
class ClassSweep:
    """The cached sweep over the classes of (N, W), for both semantics.

    ``codes`` are the sorted canonical codes, one per class, and column c of
    ``weights`` holds class c's set weights as ``class_weight_stats`` sorts
    them (int8, ord(W) rows); g = gcd(N, W).  ``flagged[indexed]`` are the
    codes of the classes whose weight multiset has a repeat, under set
    (False) or indexed (True) semantics.  The indexed multiset is the set one
    repeated g times, so a class is indexed-flagged when it is set-flagged or
    when g > 1 and it has a weight; a flagged class has a weight, so the two
    multisets of every flagged class differ when g > 1 and agree when g = 1.
    All arrays are read-only.
    """

    modulus: int
    g: int
    codes: np.ndarray
    weights: np.ndarray
    flagged: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        for array in (self.codes, self.weights, *self.flagged):
            array.flags.writeable = False

    def report_fields(self, indexed: bool, stop: int | None = None):
        """(codes, weights, dimension, repeated_value, multiplicity).

        One row or entry per class of ``flagged[indexed][:stop]``, in code
        order: its code, its weights ascending, padded with N past its
        dimension (ord(W) of them, or N under indexed semantics, each set
        weight repeated g times), the least weight occurring twice and its
        count.  ``_check_reports`` checks the last three before they are
        returned.
        """
        n = self.modulus
        codes = self.flagged[indexed][:stop]
        weights = self.weights.take(np.searchsorted(self.codes, codes), axis=1)
        if indexed and self.g > 1:
            weights = np.repeat(weights, self.g, axis=0)
        repeat = (weights[1:] == weights[:-1]) & (weights[1:] < n)
        # walking up a sorted column, the last repeat met is at the least repeated value
        value = np.full(weights.shape[1], n, dtype=np.int8)
        for k in reversed(range(len(weights) - 1)):
            np.copyto(value, weights[k], where=repeat[k])
        # in a sorted column the value's run is one longer than its count of adjacent repeats
        mults = 1 + (repeat & (weights[1:] == value)).sum(axis=0)
        weights = weights.T
        _check_reports(n, weights, value, mults)
        return codes, weights, (weights < n).sum(axis=1), value, mults

    def is_flagged(self, indexed: bool, entries: tuple[int, ...]) -> bool:
        """Whether the class with canonical representative ``entries`` is in
        ``flagged[indexed]``: one binary search for its code."""
        codes = self.flagged[indexed]
        code = encode_one(entries, self.modulus)
        i = int(np.searchsorted(codes, code))
        return i < len(codes) and int(codes[i]) == code


def _check_reports(modulus: int, weights: np.ndarray, value: np.ndarray, mults: np.ndarray) -> None:
    """Raise unless every row of ``weights`` holds its ``value`` (below N)
    exactly ``mults`` >= 2 times.

    These are the conditions of ``WitnessReport.__post_init__``: the
    repeated-weight scan builds its reports from these arrays without it,
    and this one vectorised pass is what it trusts instead.  A row's
    weights are its entries below N, so a value below N is counted in them
    alone.  ``report_fields`` counts each multiplicity on its sorted
    column's run of the value, so the count over the whole row also checks
    that run.
    """
    if not (value < modulus).all():
        raise RuntimeError("a flagged class has no repeated weight")
    if not (mults >= 2).all():
        raise RuntimeError("a repeated weight has multiplicity below 2")
    if not ((weights == value[:, None]).sum(axis=1) == mults).all():
        raise RuntimeError("a stated multiplicity does not match its weight row")


@lru_cache(maxsize=8)
def class_sweep(modulus: int, weight: tuple[int, ...]) -> ClassSweep:
    """The one sweep of (N, W), cached: class enumeration and both scan
    semantics read it."""
    n = modulus
    codes, weights = class_weight_stats(modulus, weight)[:2]
    g = n // len(weights)
    repeat = ((weights[1:] == weights[:-1]) & (weights[1:] < n)).any(axis=0)
    indexed = repeat | (weights[0] < n) if g > 1 else repeat
    return ClassSweep(n, g, codes, weights, (codes.compress(repeat), codes.compress(indexed)))
