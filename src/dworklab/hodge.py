"""Eigenspace dimensions, Hodge-Tate weight multisets, and repeated-weight
witnesses.

The recipe: given a class [v], list its coset elements v + kW, keep the
totally nonzero ones, and for each such u with canonical lifts u_i set

    ht(u) = (sum_i u_i) / N - 1,

an integer in {0,...,N-2} (the lift sum of a totally nonzero zero-sum vector
is a positive multiple of N).  The eigenspace dimension is the number of
totally nonzero coset elements and the weight multiset is {ht(u)} over them.

Two semantics are exposed.  ``set`` counts distinct coset elements; this is
the eigenspace dimension.  ``indexed`` runs k through all of Z/N and keeps
duplicates, which is the right notion for the pigeonhole argument behind the
repeated-weight witnesses: when ord(W) < N the same element is counted
N/ord(W) times.  The two agree whenever ord(W) = N, in particular for the
classical weight.

The per-class functions (``hodge_data``, ``semantics_divergent``, the two
witness constructions) run the recipe in plain Python; the witness
constructions and the CLI's table rows read the N shifts v + kW once for
both semantics (``_read_coset``), and ``hodge_data`` is their oracle.  The
exhaustive scan does not: it reads ``_bulk.class_sweep``, the one cached
sweep per S_N-orbit of W, which ``enumerate_classes`` reads too.  ``repeated_ht_scan``,
``repeated_class_representatives`` and ``scan_contains`` all reach it
through one front door, ``_scan``, which checks (N, W, semantics) once.
The sweep reads one transversal of N^(N-1)/ord(W) zero-sum vectors, one
per class, for every W, and checks the one row limit,
``_bulk.MAX_TABLE_ROWS``, before it allocates anything.  It reads the
weights of each class's ord(W) distinct members from sums over the
transversal's digit grid, with no table of members; the indexed weights
are the set weights repeated g = N/ord(W) times, so one sweep holds the
flagged classes of both semantics, and every report of a scan is
set/indexed divergent when g > 1 and none is when g = 1.  A report's
other fields (weights, least repeated value, multiplicity) depend only on
its class's sorted column of the sweep's weights, so they are built once
per distinct column, from one checked ``HodgeData``.
Its reports, classes and representatives skip their ``__post_init__``
checks (``_scan_reports`` fills the reports' slots directly and builds their
classes with ``characters._trusted_classes``); each condition is checked
once instead.  ``_bulk.canonicalise`` checks on the arrays that the codes
are those of canonical (least) members, and ``_bulk.decode_many`` that each
decoded row sums to 0 mod N.  A report's value is the least of its
``HodgeData``'s ``repeated_values()`` and its multiplicity is counted in
those weights, so both conditions of ``WitnessReport`` hold by
construction; a flagged column whose weights have no repeat, a flag mask
at odds with the weights, raises.  The public constructors keep all their
checks, and the per-class recipe is the scan's test oracle.  The CLI
builds only the reports it prints (``_scan_reports`` with a stop) and
reads the count from the sweep's flag mask.  The loops that build one
object per report or representative (``_scan_reports`` after its checks,
and ``repeated_class_representatives``' decode) run
with the cyclic garbage collector paused (``_bulk.gc_paused``): the
objects are frozen, slotted and refer to no object that refers back, so
reference counting frees them and a collector pass over them would find
nothing.

Work that depends only on W's S_N-orbit or on a weight multiset is done
once.  Every reader reads the sweep of sorted W (a stable sort sigma of
positions by descending weight), so every arrangement of one W shares one
cached sweep.  ``scan_contains`` maps the class into that frame and reads
one column's flag.  ``repeated_ht_scan`` and
``repeated_class_representatives`` map the flagged columns back to W's own
frame through the inverse of sigma and canonicalise only those, since
canonical representatives are in W's own order; ``enumerate_classes``
canonicalises every column.  ``repeated_ht_scan`` builds one
``HodgeData`` per distinct weight column and its reports share those
frozen objects.
"""

from dataclasses import dataclass
from math import gcd
from typing import Literal

import numpy as np

from . import _bulk
from .characters import (
    CharClass,
    ResidueVector,
    WeightVector,
    _checked_weight,
    _shifts,
    _trusted_classes,
    class_of,
    classical_weight,
    coset_elements,
    coset_elements_indexed,
    is_totally_nonzero,
    negate,
    scale_class,
)

__all__ = [
    "Semantics",
    "HodgeData",
    "WitnessReport",
    "WitnessConstructionError",
    "ht_of_vector",
    "totally_nonzero_representatives",
    "hodge_data",
    "semantics_divergent",
    "dual_class",
    "relabel_invariance_report",
    "total_dimension",
    "classical_repeat_class",
    "construct_repeat_witness",
    "repeated_ht_scan",
    "repeated_class_representatives",
    "scan_contains",
]

Semantics = Literal["set", "indexed"]


@dataclass(frozen=True, slots=True)
class HodgeData:
    """Dimension and weight multiset of one eigenspace (weights sorted)."""

    modulus: int
    dimension: int
    weights: tuple[int, ...]
    semantics: str

    def __post_init__(self):
        _check_semantics(self.semantics)
        if self.dimension != len(self.weights):
            raise ValueError("dimension must equal the number of weights")
        if any(not (0 <= w <= self.modulus - 2) for w in self.weights):
            raise ValueError(f"weights must lie in 0..{self.modulus - 2}: {self.weights}")

    def repeated_values(self) -> tuple[int, ...]:
        return tuple(sorted({w for w in self.weights if self.weights.count(w) >= 2}))


@dataclass(frozen=True, slots=True)
class WitnessReport:
    """A class whose weight multiset contains a repeated value."""

    char_class: CharClass
    hodge: HodgeData
    repeated_value: int
    multiplicity: int
    semantics_divergent: bool

    def __post_init__(self):
        if self.multiplicity < 2:
            raise ValueError("a witness needs multiplicity >= 2")
        if self.hodge.weights.count(self.repeated_value) != self.multiplicity:
            raise ValueError("stated multiplicity does not match the weight multiset")


class WitnessConstructionError(ValueError):
    """The gcd recipe cannot produce a repeated-weight class for this weight."""


def ht_of_vector(vector: ResidueVector) -> int:
    """(sum of canonical lifts)/N - 1 for a totally nonzero vector."""
    if not is_totally_nonzero(vector):
        raise ValueError(f"vector has a zero entry: {vector}")
    return sum(vector.entries) // vector.modulus - 1


def totally_nonzero_representatives(cls: CharClass) -> tuple[ResidueVector, ...]:
    """The totally nonzero coset elements, sorted (set semantics)."""
    return tuple(m for m in coset_elements(cls) if is_totally_nonzero(m))


def _check_semantics(semantics: str) -> None:
    if semantics not in ("set", "indexed"):
        raise ValueError(f"semantics must be 'set' or 'indexed', got {semantics!r}")


def hodge_data(cls: CharClass, semantics: Semantics = "set") -> HodgeData:
    _check_semantics(semantics)
    if semantics == "set":
        members = coset_elements(cls)
    else:
        members = tuple(m for _, m in coset_elements_indexed(cls))
    weights = tuple(sorted(ht_of_vector(m) for m in members if is_totally_nonzero(m)))
    return HodgeData(cls.modulus, len(weights), weights, semantics)


def semantics_divergent(cls: CharClass) -> bool:
    """True when the set and indexed weight multisets differ (needs ord(W) < N)."""
    return hodge_data(cls, "set").weights != hodge_data(cls, "indexed").weights


def dual_class(cls: CharClass) -> CharClass:
    """The class of the entrywise negation; an involution.

    Combinatorial shadow of the duality pairing: weights of the dual are
    {N - 2 - w} and the dimension is unchanged.
    """
    return class_of(negate(cls.representative), cls.weight)


def relabel_invariance_report(cls: CharClass, semantics: Semantics = "set") -> bool:
    """Whether every unit rescaling u*[v] leaves the weight multiset unchanged."""
    n = cls.modulus
    base = hodge_data(cls, semantics).weights
    return all(
        hodge_data(scale_class(cls, u), semantics).weights == base
        for u in range(1, n)
        if gcd(u, n) == 1
    )


def total_dimension(modulus: int, weight: WeightVector | None = None) -> int:
    """Sum of set-semantics dimensions over all classes.

    Equals the number of totally nonzero zero-sum vectors, since each lies in
    exactly one coset; in particular the value does not depend on W.  That
    number is ((N-1)^N + (-1)^N (N-1)) / N: averaging over the N additive
    characters chi of Z/N, the trivial one contributes (N-1)^N and each
    other one (sum over u != 0 of chi(u))^N = (-1)^N.
    """
    _checked_weight(modulus, weight)
    n = modulus
    return ((n - 1) ** n + (-1) ** n * (n - 1)) // n


def _sorted_weights(members, modulus: int) -> tuple[int, ...]:
    return tuple(sorted(sum(u) // modulus - 1 for u in members if all(u)))


def _read_coset(
    cls: CharClass, shifts: list[tuple[int, ...]] | None = None
) -> tuple[list[tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
    """(members, set weights, indexed weights) of one class: the per-class
    recipe in one pass over its coset.

    ``shifts`` are v + kW for k = 0..N-1 for some member v of the class;
    when None they are taken from its representative.  Each is a zero-sum
    tuple of canonical lifts by construction, so no ``ResidueVector`` is
    built for it.  ``members`` are the distinct shifts, sorted (the entries
    of ``coset_elements``); the set weights are read from them and the
    indexed weights from all N shifts.  They equal ``hodge_data(cls, "set")``
    and ``hodge_data(cls, "indexed")``, the public recipe and its oracle, and
    the totally nonzero members are ``totally_nonzero_representatives``.
    The witness constructions and the CLI's table rows read classes here.
    """
    if shifts is None:
        shifts = _shifts(cls.representative.entries, cls.weight)
    members = sorted(set(shifts))
    return members, _sorted_weights(members, cls.modulus), _sorted_weights(shifts, cls.modulus)


def _witness_from_class(
    cls: CharClass, semantics: Semantics, shifts: list[tuple[int, ...]] | None = None
) -> WitnessReport | None:
    """The report of one class, or None when its weights under ``semantics``
    have no repeat, from one ``_read_coset`` pass (``shifts`` as there).

    The report is divergent when the set and indexed weights differ.  It
    equals the report built from ``hodge_data(cls, "set")`` and
    ``hodge_data(cls, "indexed")``.
    """
    n = cls.modulus
    _, distinct, indexed = _read_coset(cls, shifts)
    weights = indexed if semantics == "indexed" else distinct
    value = next((a for a, b in zip(weights, weights[1:]) if a == b), None)
    if value is None:
        return None
    return WitnessReport(
        char_class=cls,
        hodge=HodgeData(n, len(weights), weights, semantics),
        repeated_value=value,
        multiplicity=weights.count(value),
        semantics_divergent=indexed != distinct,
    )


def classical_repeat_class(modulus: int) -> WitnessReport:
    """The known repeated-weight class of the classical family.

    Defined for N = 6 (class of (0,0,0,2,2,2)) and N >= 8 (class of
    (4, N-2, N-2, 0,...,0)).  For N >= 8 the representatives v + W and
    v + 3W are totally nonzero with lift sums 3N, so the weight 2 occurs at
    least twice.  The repeated value is computed by the recipe, never
    hard-coded.
    """
    n = modulus
    if n == 6:
        seed = (0, 0, 0, 2, 2, 2)
    elif n >= 8:
        seed = (4, n - 2, n - 2) + (0,) * (n - 3)
    else:
        raise ValueError(f"no constructed repeated-weight class for N = {n}; need N = 6 or N >= 8")
    cls = class_of(seed, classical_weight(n))
    report = _witness_from_class(cls, "set")
    assert report is not None, "constructed class lost its repeated weight"
    return report


def construct_repeat_witness(modulus: int, weight: WeightVector) -> WitnessReport:
    """Witness class with a repeated indexed weight, for non-classical W.

    Construction: pick the first index with w_i = 0 as pivot; elsewhere set
    v_i = 0 when gcd(w_i, N) = 1 and v_i = 1 otherwise; the pivot entry is
    forced by the zero-sum condition.  Then v + kW is totally nonzero for
    every k != 0 and its weight lies in {1,...,N-2}, so the N-1 values cannot
    all be distinct.

    Raises WitnessConstructionError when the forced pivot entry is 0 (this
    happens exactly for permutations of (0,2,1,...,1) with N odd): every
    coset element then has a zero at the pivot and the recipe produces no
    witness at all.  For N = 3 no class of such a weight has a repeated
    weight, so no witness exists; for larger odd N a scan can still find one.
    """
    n = modulus
    if n < 3:
        raise ValueError(f"need N >= 3, got {n}")
    weight = _checked_weight(n, weight)
    if weight.classical:
        raise ValueError("the construction applies to non-classical weights only")

    pivot = weight.entries.index(0)
    entries = [0] * n
    for i, w in enumerate(weight.entries):
        if i == pivot:
            continue
        entries[i] = 0 if gcd(w, n) == 1 else 1
    entries[pivot] = (-sum(entries)) % n

    # the class's canonical representative is the least of the shifts its recipe reads
    shifts = _shifts(tuple(entries), weight)
    cls = _trusted_classes(weight, [min(shifts)])[0]
    if entries[pivot] == 0:
        raise WitnessConstructionError(
            f"the recipe for W = {weight.entries} forces pivot entry 0 at index {pivot}; "
            f"every element of the coset {cls.representative} + <W> vanishes there, so the "
            "constructed class has no totally nonzero representative"
        )

    report = _witness_from_class(cls, "indexed", shifts)
    # guaranteed: N-1 nonzero-k members are totally nonzero with weights in 1..N-2
    assert report is not None, f"pigeonhole failed for W = {weight.entries}"
    return report


def _scan(
    modulus: int, weight: WeightVector | None, semantics: Semantics
) -> tuple[WeightVector, _bulk.ClassSweep, bool]:
    """The front door of the three scan functions below: (W, the cached
    sweep of sorted W, whether the semantics is indexed).

    W defaults to the classical weight; its modulus and the semantics are
    checked here, and the row limit in ``_bulk``'s sweep.
    """
    weight = _checked_weight(modulus, weight)
    _check_semantics(semantics)
    return weight, _bulk.sweep_for(modulus, weight.entries), semantics == "indexed"


def repeated_ht_scan(
    modulus: int, weight: WeightVector | None = None, semantics: Semantics = "indexed"
) -> tuple[WitnessReport, ...]:
    """Every class whose weight multiset has a repeat, by exhaustive scan.

    Ordered by canonical representative.  Independent of the witness
    constructions above: it reads the flagged columns of the sweep of sorted
    W, maps them back to W's frame and canonicalises only those
    (``_bulk.ClassSweep.canonical``).  Each report's other fields come from
    its class's column of the sweep's weights, not from the per-class
    recipe: each distinct column gets one checked ``HodgeData``, and its
    least repeated value and that value's count are the repeated value and
    multiplicity of every report with that column.  No report, class or
    representative runs its own ``__post_init__``: the canonical codes are
    checked once on the arrays by ``_bulk._check_canonical`` and the
    zero-sum rows by ``_bulk.decode_many``, and a report's value and
    multiplicity are read off its own checked ``HodgeData``.  The reports
    are decoded and built with the cyclic garbage collector paused
    (``_bulk.gc_paused``): 125,475 of them at N = 8 would otherwise start
    hundreds of collections, and none of them is part of a cycle.
    """
    return _scan_reports(modulus, weight, semantics)


def _scan_reports(
    modulus: int, weight: WeightVector | None, semantics: Semantics, stop: int | None = None
) -> tuple[WitnessReport, ...]:
    """The reports of the scan's first ``stop`` classes (all when None): the
    one report builder, for ``repeated_ht_scan`` and for the CLI, which
    prints the first 50.

    Raises RuntimeError when a flagged column's weights have no repeat, that
    is, when the sweep's flag mask disagrees with its weights.
    """
    weight, sweep, indexed = _scan(modulus, weight, semantics)
    codes, columns = sweep.canonical(weight.entries, np.flatnonzero(sweep.flagged[indexed]))
    codes, columns = codes[:stop], columns[:stop]
    # one (HodgeData, value, multiplicity) per distinct weight column, shared by every
    # report with that column; entries lie in 0..N, so a column's base-(N+1) value
    # (below 2^63 for N <= 15, past the row limit) identifies it, and a 1-d unique is far
    # cheaper than np.unique(axis=0)
    powers = (modulus + 1) ** np.arange(len(sweep.weights), dtype=np.int64)
    _, first, row_of = np.unique(
        powers @ sweep.weights.take(columns, axis=1), return_index=True, return_inverse=True
    )
    # a column holds the set weights, then N for each member that is not totally nonzero
    repeat = sweep.g if indexed else 1
    fields = []
    for column in sweep.weights.take(columns.take(first), axis=1).T.tolist():
        multiset = tuple(w for w in column if w < modulus for _ in range(repeat))
        data = HodgeData(modulus, len(multiset), multiset, semantics)
        values = data.repeated_values()
        if not values:
            raise RuntimeError("a flagged class has no repeated weight")
        fields.append((data, values[0], multiset.count(values[0])))
    divergent = sweep.g > 1
    # each report is built without its __post_init__ (its value repeats in its checked
    # HodgeData, and is counted there), its frozen slots filled through their member
    # descriptors; its class by _trusted_classes
    new = object.__new__
    set_class, set_hodge, set_value, set_mult, set_divergent = (
        vars(WitnessReport)[f].__set__ for f in WitnessReport.__slots__
    )
    # one object per report, none of them cyclic: built with the collector paused
    with _bulk.gc_paused():
        reports = []
        classes = _trusted_classes(weight, _bulk.decode_many(codes, modulus))
        for cls, row in zip(classes, row_of.tolist()):
            data, value, mult = fields[row]
            report = new(WitnessReport)
            set_class(report, cls)
            set_hodge(report, data)
            set_value(report, value)
            set_mult(report, mult)
            set_divergent(report, divergent)
            reports.append(report)
        return tuple(reports)


def repeated_class_representatives(
    modulus: int, weight: WeightVector | None = None, semantics: Semantics = "indexed"
) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives of the classes a scan would report (cheap form),
    decoded with the cyclic garbage collector paused (``_bulk.gc_paused``)."""
    weight, sweep, indexed = _scan(modulus, weight, semantics)
    codes = sweep.canonical(weight.entries, np.flatnonzero(sweep.flagged[indexed]))[0]
    with _bulk.gc_paused():
        return tuple(_bulk.decode_many(codes, modulus))


def scan_contains(cls: CharClass, semantics: Semantics = "indexed") -> bool:
    """Whether the exhaustive repeated-weight scan reports this class.

    Membership reads the sweep of sorted W, as the scans do.  With sigma a
    stable sort of positions by descending weight, sigma(v + kW) =
    sigma(v) + k sigma(W): the class of v under W and the class of sigma(v)
    under sigma(W) have the same members up to the order of coordinates,
    hence the same weight multiset in both semantics.  sigma(v) is shifted to
    the member in the sweep's transversal and that column's flag is read
    (``_bulk.ClassSweep.is_flagged``); nothing is sorted, searched or
    canonicalised, and no reports are materialized.
    """
    weight, sweep, indexed = _scan(cls.modulus, cls.weight, semantics)
    return sweep.is_flagged(indexed, weight.entries, cls.representative.entries)
