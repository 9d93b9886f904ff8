"""Vectorized enumeration kernels.

Everything here works on tables of zero-sum residue vectors for a given
modulus N.  The public modules keep small per-class operations in plain
Python; these kernels exist for the bulk jobs (class enumeration,
repeated-weight scans) where a full table has N^(N-1) rows.  A class is
named by the code of its least member, a base-N integer, so that numeric
order equals lexicographic order on the vectors.

With g = gcd(N, w_1, ..., w_N) = N/ord(W), let j be the first coordinate
with gcd(w_j, N) = g.  As k runs over Z/ord(W), v_j + k*w_j runs once
through v_j + gZ/N, so every class has exactly one member with v_j < g, and
the classes are enumerated directly from the transversal {v : v_j < g} of
N^(N-1)/ord(W) rows: N^(N-2) when some weight is a unit, the full table
when W = 0 mod N.  Tables are column-major, uint8 of shape (N, rows), and
column c of the transversal is the vector whose free coordinates (all but
one, which the zero-sum condition forces) are the digits of c.

The work splits in two.  With sigma a stable sort of positions by
descending weight (``sort_order``), sigma(v + kW) = sigma(v) + k sigma(W):
the classes of W and of sorted W have the same members up to the order of
coordinates, hence the same weights.  ``class_sweep`` is the one cache.  It
is keyed by sorted W (``sweep_for`` sorts), so every arrangement of W reads
one ``ClassSweep``: each transversal column's sorted set weights and the
flag masks of both semantics, and nothing that depends on the order of W's
coordinates.  Canonical codes do depend on it; ``ClassSweep.canonical``
maps the columns a caller returns back to W's own frame and codes only
those (``canonicalise``).  The weight sweep (``class_sweep``) reads ord(W)
members of each class: for k < ord(W) the members v + kW are pairwise
distinct, and the N indexed members are those ord(W) repeated g times.  It
builds no table of members: a member's weight depends only on the sum of
its free coordinates' lifts, an outer sum over the transversal's digit grid
(``_sweep_weights``).  It checks the one row limit, ``_check_rows``, before
it looks for j or allocates anything: it admits every W at N <= 8 and N = 9
when g = 1, and refuses anything larger with a ``RowLimitError``, a
ValueError.

The bulk builders turn these arrays into one Python object per class or
report, and run under ``gc_paused``: ``enumerate_classes``,
``repeated_ht_scan`` (``hodge._scan_reports``) and
``repeated_class_representatives`` decode their codes and build their
tuples there, and ``cli.main`` runs its command and writes its document
there.  Otherwise every few hundred allocations start a pass of the cyclic
garbage collector, and every so often a full pass over every tracked
object, though what they build cannot be cyclic garbage: tuples, ints and
frozen slotted dataclasses that hold only such objects, rows of dicts and
lists, and JSON text.  Reference counting frees each of them on time, so
the pause leaves nothing late for the collector but the few cycles a
count's thread pool may make, which its first pass after the pause frees.
"""

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

import numpy as np

# one check (_check_rows) counts the classes, N^(N-1)/ord(W), one row each: every W
# at N <= 8 (at most 8^7 rows) and N = 9 with g = 1 (9^7) fit; N = 9 with g = 3
# (3 * 9^7 rows; measured under tracemalloc, its weight sweep peaks at 6 bytes a row,
# 86 MB, before any canonical code) and every W at N >= 10 do not
MAX_TABLE_ROWS = 10_000_000


class RowLimitError(ValueError):
    """A class table past ``MAX_TABLE_ROWS``, refused before it is built."""


def _check_rows(what: str, rows: int) -> None:
    """Refuse `what`, which counts `rows` rows, past ``MAX_TABLE_ROWS``."""
    if rows > MAX_TABLE_ROWS:
        raise RowLimitError(f"{what} needs {rows} rows, over the limit of {MAX_TABLE_ROWS}")


@contextmanager
def gc_paused():
    """Run the body with the cyclic garbage collector disabled, then restore
    the caller's state: re-enabled if it was enabled, on an exception too;
    left disabled if the caller had disabled it, so that pauses nest.  For
    builders of many acyclic objects only (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def sort_order(weight: tuple[int, ...]) -> list[int]:
    """sigma: the positions of W by descending weight, ties in position order,
    so that sorted W is (w_sigma(0), ..., w_sigma(N-1))."""
    return sorted(range(len(weight)), key=lambda i: -weight[i])


def _layout(modulus: int, at: int, below: int) -> tuple[int, list[int], list[int]]:
    """(dep, free, sizes) of the transversal {v : v_at < below}: the coordinate
    the zero-sum condition forces, and the others with the range of each, most
    significant digit first."""
    n = modulus
    dep = 0 if at == n - 1 else n - 1
    free = [i for i in range(n) if i != dep]
    return dep, free, [below if i == at else n for i in free]


def _transversal_table(modulus: int, at: int, below: int) -> np.ndarray:
    """(N, rows) table of the zero-sum vectors with coordinate `at` below
    `below` (below * N^(N-2) columns when N >= 2), in lex order: every other
    coordinate but one sweeps 0..N-1, and that `dep` coordinate is forced by
    the zero-sum condition."""
    n = modulus
    dep, free, sizes = _layout(n, at, below)
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

    ``characters._trusted_classes`` builds ``ResidueVector``s from these
    rows without ``ResidueVector.__post_init__``, for class enumeration and
    the repeated-weight scan, so its three conditions hold here: each row
    has N entries in 0..N-1 by construction (base-N digits), and one pass
    over the array checks that every row sums to 0 mod N.
    """
    n = modulus
    rows = np.empty((len(codes), n), dtype=np.int64)
    for i in range(n):
        rows[:, i] = (codes // n ** (n - 1 - i)) % n
    if (rows.sum(axis=1) % n).any():
        raise RuntimeError(f"a decoded code is not a zero-sum vector mod {n}")
    return list(map(tuple, rows.tolist()))


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


def _shifted(vec: np.ndarray, weight: tuple[int, ...], shifts: int):
    """Step ``vec`` in place through v + kW for k = 0..shifts-1, yielding it at
    each k; ``canonicalise`` codes the members this way."""
    n = len(weight)
    step = np.array([w % n for w in weight], dtype=np.uint8)[:, None]
    below = np.empty_like(vec)
    for k in range(shifts):
        if k:
            vec += step
            # entries lie in 0..2N-2, and below N the uint8 vec - N wraps past them
            np.minimum(vec, np.subtract(vec, n, out=below), out=vec)
        yield vec


def canonicalise(modulus: int, weight: tuple[int, ...], vec: np.ndarray):
    """Canonical codes of the classes of (N, W) that have a member in a column of ``vec``.

    ``vec`` is an (N, m) uint8 table, one member of each of m distinct
    classes, in W's own frame; it is stepped by W in place.  Returns
    (codes, order, member): the least-member codes, increasing; ``order``,
    the column of ``vec`` of each code's class; and ``member``, an
    (ord(W), m) array whose column i holds the codes of class i's members
    v + kW (``code_dtype(N)``, as ``codes``).  Member k's code is a Horner
    pass over its N rows.  ``member`` is gathered into code order in place,
    one row at a time, and ``_check_canonical`` checks the result before it
    is returned.
    """
    n = modulus
    shifts = n // gcd(n, *weight)
    member = np.empty((shifts, vec.shape[1]), dtype=code_dtype(n))
    for code, members in zip(member, _shifted(vec, weight, shifts)):
        code[...] = members[0]
        for i in range(1, n):
            code *= n
            code += members[i]
    canon = member.min(axis=0)
    order = np.argsort(canon)
    # one row at a time, in place, so that no second (ord(W), m) array is made
    for row in member:
        row[...] = row.take(order)
    codes = canon.take(order)
    _check_canonical(codes, member)
    return codes, order, member


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
    """The cached sweep over the classes of (N, W) for sorted W, for both semantics.

    Column c of each array is the class of column c of the transversal
    {v : v_at < g}, where g = gcd(N, W) and ``at`` is its j (see the module
    docstring).  Column c of ``weights`` holds class c's set weights as
    ``class_sweep`` sorts them (int8, ord(W) rows): ascending, then N for
    each member that is not totally nonzero.  The repeated-weight scan reads
    each report's weights, repeated value and multiplicity from its class's
    column, once per distinct column (``hodge._scan_reports``).
    ``flagged[indexed]`` is a boolean mask over the columns: the classes
    whose weight multiset has a repeat, under set (False) or indexed (True)
    semantics.  The indexed multiset is the set one repeated g times, so a
    class is indexed-flagged when it is set-flagged or when g > 1 and it has
    a weight; a flagged class has a weight, so the two multisets of every
    flagged class differ when g > 1 and agree when g = 1.  None of this
    depends on the order of W's coordinates, so every arrangement of
    ``weight`` reads it: ``is_flagged`` maps one class into this frame, and
    ``canonical`` maps columns back out of it.  All arrays are read-only.
    """

    modulus: int
    weight: tuple[int, ...]
    g: int
    at: int
    weights: np.ndarray
    flagged: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        for array in (self.weights, *self.flagged):
            array.flags.writeable = False

    def _frame(self, weight: tuple[int, ...]) -> list[int]:
        """sort_order(weight), after checking that it sorts W into this sweep's weight."""
        sigma = sort_order(weight)
        if tuple(weight[i] for i in sigma) != self.weight:
            raise ValueError(f"{weight} is not an arrangement of the swept weight {self.weight}")
        return sigma

    def members(self, columns: np.ndarray | None = None) -> np.ndarray:
        """The transversal members of these columns (all when None), in this
        sweep's frame: an (N, m) uint8 table."""
        n = self.modulus
        if columns is None:
            return _transversal_table(n, self.at, self.g)
        dep, free, sizes = _layout(n, self.at, self.g)
        table = np.zeros((n, len(columns)), dtype=np.uint8)
        rest = columns
        for i, size in reversed(list(zip(free, sizes))):
            rest, table[i] = np.divmod(rest, size)
        table[dep] = -table.sum(axis=0, dtype=np.int16) % n
        return table

    def is_flagged(self, indexed: bool, weight: tuple[int, ...], entries: tuple[int, ...]) -> bool:
        """Whether the class of ``entries`` under ``weight``, an arrangement of
        this sweep's W, is in ``flagged[indexed]``.

        sigma(entries) is shifted by sorted W to the class's member u with
        u_at < g, and u's column is read from its free coordinates: O(N)
        Python, with no sort and no search.
        """
        n, at = self.modulus, self.at
        v = [entries[i] for i in self._frame(weight)]
        k = next(k for k in range(n) if (v[at] + k * self.weight[at]) % n < self.g)
        column = 0
        _, free, sizes = _layout(n, at, self.g)
        for i, size in zip(free, sizes):
            column = column * size + (v[i] + k * self.weight[i]) % n
        return bool(self.flagged[indexed][column])

    def canonical(self, weight: tuple[int, ...], columns: np.ndarray | None = None):
        """(codes, columns): the canonical codes under ``weight``, an arrangement
        of this sweep's W, of the classes of these columns (all when None),
        increasing, and the column of each.

        The columns' members are mapped back to W's own frame through the
        inverse of sigma, and ``canonicalise`` codes only those.
        """
        inverse = np.argsort(self._frame(weight))
        codes, order, _ = canonicalise(self.modulus, weight, self.members(columns)[inverse])
        return codes, order if columns is None else columns.take(order)


# the weight sweep gathers at most this many columns at a time: the take that does it
# casts the block's int16 lift sums to intp, 8 bytes a column
_BLOCK = 1 << 16


def _free_lifts(
    modulus: int, weight: tuple[int, ...], at: int, g: int, big: int
) -> list[np.ndarray]:
    """For each free coordinate i of the transversal {v : v_at < g}, most
    significant first (``_layout``), the (ord(W), size_i) int16 table whose
    row k, column x holds the lift of (x + k w_i) mod N, or ``big`` for 0."""
    n = modulus
    _, free, sizes = _layout(n, at, g)
    k = np.arange(n // g)[:, None]
    tables = []
    for i, size in zip(free, sizes):
        lift = (np.arange(size) + k * weight[i]) % n
        tables.append(np.where(lift == 0, big, lift).astype(np.int16))
    return tables


def _outer_sum(tables: list[np.ndarray], shifts: int) -> np.ndarray:
    """The (shifts, prod sizes) sums over the digit grid of these (shifts, size)
    tables, most significant first: row k, column c holds the sum of every
    table's row k at c's digit.  Built least significant digit first, so that
    the long axis stays innermost."""
    total = np.zeros((shifts, 1), dtype=np.int16)
    for table in reversed(tables):
        total = (table[:, :, None] + total[:, None, :]).reshape(shifts, -1)
    return total


def _sweep_weights(modulus: int, weight: tuple[int, ...], at: int, g: int) -> np.ndarray:
    """The (ord(W), rows) int8 weights of the members v + kW of the columns of
    the transversal {v : v_at < g}, unsorted: lift/N - 1 when totally
    nonzero, else N.

    Column c's free coordinates are its digits, so S, the sum of a member's
    free lifts, is an outer sum of one small table per coordinate
    (``_free_lifts``).  A lift of 0 counts as BIG > (N-1)^2, more than the
    N-1 free lifts can sum to when none is 0.  Since W sums to N, the forced
    coordinate's lift is (-S) mod N, so the weight is S // N when S < BIG and
    N does not divide S, and N otherwise: one int8 lookup table indexed by S.
    The columns split into blocks of at most ``_BLOCK``: the sums of the
    inner digits are built once, and each block of a shift reads them through
    the lookup table offset by the sum of its outer digits.
    """
    n = modulus
    shifts = n // g
    big = (n - 1) ** 2 + 1
    lifts = _free_lifts(n, weight, at, g, big)
    s = np.arange(len(lifts) * big + 1)
    lookup = np.where((s < big) & (s % n != 0), s // n, n).astype(np.int8)
    sizes = [table.shape[1] for table in lifts]
    split = len(sizes)
    while split and prod(sizes[split - 1 :]) <= _BLOCK:
        split -= 1
    inner = _outer_sum(lifts[split:], shifts)
    outer = _outer_sum(lifts[:split], shifts).tolist()
    block = inner.shape[1]
    weights = np.empty((shifts, prod(sizes)), dtype=np.int8)
    for row, sums, bases in zip(weights, inner, outer):
        for b, base in enumerate(bases):
            lookup[base:].take(sums, out=row[b * block : (b + 1) * block])
    return weights


@lru_cache(maxsize=8)
def class_sweep(modulus: int, weight: tuple[int, ...]) -> ClassSweep:
    """The one sweep of (N, W), cached, for W sorted by descending weight:
    class enumeration, both scan semantics and every arrangement of W read it
    (through ``sweep_for``).

    One pass over the ord(W) distinct coset members of every class: its
    ``weights`` (int8, ord(W) rows) has one column c per column of the
    transversal {v : v_j < g} (see the module docstring), one class each,
    holding the weights lift/N - 1 of class c's totally nonzero members
    ascending, then N once for each of its other members.  The row limit is
    checked first.  The weights come from outer sums over the transversal's
    digit grid (``_sweep_weights``), so no table of members is built and no
    code is computed.  A repeat is a pair of equal adjacent weights below N
    in a sorted column, OR-ed into one mask a row pair at a time.
    """
    n = modulus
    g = gcd(n, *weight)
    _check_rows(f"class enumeration for modulus {n}", n ** (n - 1) // (n // g))
    at = next(i for i, w in enumerate(weight) if gcd(w, n) == g)
    weights = _sweep_weights(n, weight, at, g)
    _sort_columns(weights)
    repeat = np.zeros(weights.shape[1], dtype=bool)
    for lower, upper in zip(weights[:-1], weights[1:]):
        repeat |= (lower == upper) & (upper < n)
    indexed = repeat | (weights[0] < n) if g > 1 else repeat
    return ClassSweep(n, weight, g, at, weights, (repeat, indexed))


def sweep_for(modulus: int, weight: tuple[int, ...]) -> ClassSweep:
    """The cached sweep that every arrangement of W reads: that of sorted W."""
    return class_sweep(modulus, tuple(sorted(weight, reverse=True)))
