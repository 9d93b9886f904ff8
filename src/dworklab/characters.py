"""Character-group combinatorics for Dwork-family hypersurfaces.

A degree-N family  x_1^N + ... + x_N^N = N t x_1^{w_1} ... x_N^{w_N}  carries
an action of the group of N-th-root-of-unity tuples (z_1,...,z_N) with
prod z_i^{w_i} = 1, modulo the diagonal copy of mu_N.  Its character group is

    (Z/N)^N_0 / <W>,

the zero-sum residue vectors modulo the span of the weight vector
W = (w_1,...,w_N).  Each coset labels one eigenspace of the middle primitive
cohomology.  This module provides the vectors, the cosets with canonical
(lexicographically least) representatives, the symmetric-group action, unit
rescaling, and two reductions used to organise tables:

* ``orbit_normal_form`` -- a complete invariant of the combined action of
  S_N and coset shifts (classical weight only); equal forms mean equal
  orbits.
* ``zero_dominant_form`` -- the sorted zero-maximising representative of a
  single class; the traditional row label in published tables.  Distinct
  dominant forms can land in the same S_N orbit, so this is a finer label
  than the normal form.

All values are immutable and all functions are pure.
"""

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from . import _bulk

__all__ = [
    "ResidueVector",
    "WeightVector",
    "CharClass",
    "classical_weight",
    "class_of",
    "canonical_representative",
    "coset_elements",
    "coset_elements_indexed",
    "is_totally_nonzero",
    "enumerate_classes",
    "apply_permutation",
    "permute_class",
    "apply_unit_scaling",
    "scale_class",
    "negate",
    "orbit_normal_form",
    "zero_dominant_form",
    "symmetric_orbits",
]


@dataclass(frozen=True, slots=True)
class ResidueVector:
    """A length-N tuple of residues mod N with zero coordinate sum."""

    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self):
        n = self.modulus
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != n:
            raise ValueError(f"expected {n} entries, got {len(self.entries)}")
        if any(not (0 <= e < n) for e in self.entries):
            raise ValueError(f"entries must be canonical lifts in 0..{n - 1}: {self.entries}")
        if sum(self.entries) % n != 0:
            raise ValueError(f"coordinate sum {sum(self.entries)} is not 0 mod {n}")

    def __repr__(self):
        return f"({', '.join(map(str, self.entries))}) mod {self.modulus}"


@dataclass(frozen=True, slots=True)
class WeightVector:
    """The exponent vector W = (w_1,...,w_N) of the defining monomial.

    Entries are non-negative and sum to N.  W = (1,...,1) is the classical
    case (monomial x_1 x_2 ... x_N).
    """

    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self):
        n = self.modulus
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != n:
            raise ValueError(f"expected {n} weights, got {len(self.entries)}")
        if any(w < 0 for w in self.entries):
            raise ValueError(f"weights must be non-negative: {self.entries}")
        if sum(self.entries) != n:
            raise ValueError(f"weights must sum to {n}, got {sum(self.entries)}")

    @property
    def classical(self) -> bool:
        return all(w == 1 for w in self.entries)

    @property
    def order(self) -> int:
        """Order of the image of W in (Z/N)^N: N / gcd(N, w_1, ..., w_N)."""
        g = self.modulus
        for w in self.entries:
            g = gcd(g, w)
        return self.modulus // g

    def __repr__(self):
        return f"W({', '.join(map(str, self.entries))})"


def classical_weight(modulus: int) -> WeightVector:
    return WeightVector(modulus, (1,) * modulus)


def _checked_weight(modulus: int, weight: WeightVector | None) -> WeightVector:
    """``weight``, or the classical weight when it is None, after checking its modulus."""
    weight = classical_weight(modulus) if weight is None else weight
    if weight.modulus != modulus:
        raise ValueError("weight modulus does not match")
    return weight


def _shifts(entries: tuple[int, ...], weight: WeightVector) -> list[tuple[int, ...]]:
    """v + kW for k = 0..N-1: each member of the class N/ord(W) times."""
    n = weight.modulus
    return [tuple((e + k * w) % n for e, w in zip(entries, weight.entries)) for k in range(n)]


def _least_shift(entries: tuple[int, ...], weight: WeightVector) -> tuple[int, ...]:
    return min(_shifts(entries, weight))


def canonical_representative(vector: ResidueVector, weight: WeightVector) -> ResidueVector:
    """Lexicographically least element of the coset vector + <W>."""
    if vector.modulus != weight.modulus:
        raise ValueError("vector and weight moduli differ")
    return ResidueVector(vector.modulus, _least_shift(vector.entries, weight))


@dataclass(frozen=True, slots=True)
class CharClass:
    """A coset v + <W>, stored by its canonical representative."""

    weight: WeightVector
    representative: ResidueVector

    def __post_init__(self):
        if self.weight.modulus != self.representative.modulus:
            raise ValueError("weight and representative moduli differ")
        canon = _least_shift(self.representative.entries, self.weight)
        if canon != self.representative.entries:
            raise ValueError(
                f"{self.representative} is not the canonical coset representative "
                f"(expected {ResidueVector(self.modulus, canon)}); build classes with class_of()"
            )

    @property
    def modulus(self) -> int:
        return self.weight.modulus

    def __repr__(self):
        return f"[{', '.join(map(str, self.representative.entries))}] mod {self.weight!r}"


def _trusted_classes(weight: WeightVector, rows) -> list[CharClass]:
    """The classes of ``weight`` with these canonical representatives, one per
    row, built without the checks in ``__post_init__``: the one place that
    builds unchecked ``ResidueVector``s and ``CharClass``es.

    Only for rows already known to be canonical representatives: tuples of N
    entries in 0..N-1 that sum to 0 mod N and are the least of their shifts
    v + kW.  ``class_of`` and ``construct_repeat_witness`` canonicalise their
    own; ``enumerate_classes`` and the repeated-weight scan decode theirs
    from codes checked on their arrays (``_bulk.canonicalise`` runs
    ``_bulk._check_canonical``, and ``_bulk.decode_many`` checks the
    zero-sum condition).  The frozen slots are filled through their member
    descriptors.
    """
    new = object.__new__
    set_modulus, set_entries = (vars(ResidueVector)[f].__set__ for f in ResidueVector.__slots__)
    set_weight, set_representative = (vars(CharClass)[f].__set__ for f in CharClass.__slots__)
    modulus = weight.modulus
    classes = []
    for row in rows:
        vector = new(ResidueVector)
        set_modulus(vector, modulus)
        set_entries(vector, row)
        cls = new(CharClass)
        set_weight(cls, weight)
        set_representative(cls, vector)
        classes.append(cls)
    return classes


def class_of(vector: ResidueVector | Sequence[int], weight: WeightVector) -> CharClass:
    """The class of an arbitrary zero-sum vector.

    The representative is canonicalised here, once, so the class is built by
    ``_trusted_classes`` without the check in ``CharClass.__post_init__``,
    which would repeat it.
    """
    if not isinstance(vector, ResidueVector):
        vector = ResidueVector(weight.modulus, tuple(vector))
    return _trusted_classes(weight, [canonical_representative(vector, weight).entries])[0]


def coset_elements(cls: CharClass) -> tuple[ResidueVector, ...]:
    """The distinct coset elements {v + kW}, lexicographically sorted.

    The count equals the order of W in (Z/N)^N, which is N for the
    classical weight.
    """
    n = cls.modulus
    seen = sorted(set(_shifts(cls.representative.entries, cls.weight)))
    return tuple(ResidueVector(n, e) for e in seen)


def coset_elements_indexed(cls: CharClass) -> tuple[tuple[int, ResidueVector], ...]:
    """All N pairs (k, v + kW); repeats occur when the order of W is < N."""
    n = cls.modulus
    shifts = _shifts(cls.representative.entries, cls.weight)
    return tuple((k, ResidueVector(n, e)) for k, e in enumerate(shifts))


def is_totally_nonzero(vector: ResidueVector) -> bool:
    """True when no entry is zero."""
    return all(e != 0 for e in vector.entries)


def enumerate_classes(modulus: int, weight: WeightVector | None = None) -> tuple[CharClass, ...]:
    """Every class exactly once, sorted by canonical representative.

    There are N^(N-1) / ord(W) of them, one per column of the cached sweep
    of sorted W (``_bulk.sweep_for``) that the repeated-weight scans read
    too; every column is mapped back to W's frame and canonicalised
    (``_bulk.ClassSweep.canonical``).  The codes are canonical
    (``_bulk.canonicalise`` checks its arrays) and decode to zero-sum
    vectors (``_bulk.decode_many`` checks its array), so the classes and
    their representatives are built by ``_trusted_classes``, with the
    cyclic garbage collector paused (``_bulk.gc_paused``): they are
    acyclic, so reference counting frees them, and the 262,144 classes at
    N = 8 would otherwise start hundreds of collections, some of them full
    passes over every object built so far.
    """
    weight = _checked_weight(modulus, weight)
    codes = _bulk.sweep_for(modulus, weight.entries).canonical(weight.entries)[0]
    with _bulk.gc_paused():
        return tuple(_trusted_classes(weight, _bulk.decode_many(codes, modulus)))


def _check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return perm


def apply_permutation(vector: ResidueVector, perm: Sequence[int]) -> ResidueVector:
    """Rearrange entries: position i receives the old entry at perm[i]."""
    perm = _check_permutation(perm, vector.modulus)
    return ResidueVector(vector.modulus, tuple(vector.entries[p] for p in perm))


def permute_class(cls: CharClass, perm: Sequence[int]) -> CharClass:
    """The induced action on classes; requires the permutation to fix W entrywise."""
    perm = _check_permutation(perm, cls.modulus)
    if tuple(cls.weight.entries[p] for p in perm) != cls.weight.entries:
        raise ValueError(f"permutation {perm} does not fix the weight vector {cls.weight}")
    return class_of(tuple(cls.representative.entries[p] for p in perm), cls.weight)


def apply_unit_scaling(vector: ResidueVector, unit: int) -> ResidueVector:
    """Entrywise multiplication by a unit mod N."""
    n = vector.modulus
    if gcd(unit, n) != 1:
        raise ValueError(f"{unit} is not a unit mod {n}")
    return ResidueVector(n, tuple((unit * e) % n for e in vector.entries))


def scale_class(cls: CharClass, unit: int) -> CharClass:
    """Unit rescaling descends to classes: u(v + kW) = uv + (uk)W."""
    return class_of(apply_unit_scaling(cls.representative, unit), cls.weight)


def negate(vector: ResidueVector) -> ResidueVector:
    return ResidueVector(vector.modulus, tuple((-e) % vector.modulus for e in vector.entries))


def _require_classical(cls: CharClass, what: str) -> None:
    if not cls.weight.classical:
        raise ValueError(f"{what} is defined for the classical weight (1,...,1) only")


def orbit_normal_form(cls: CharClass) -> ResidueVector:
    """Normal form under the combined S_N and coset action (classical weight).

    Among the coset elements with the maximal number of zeros, sort each one
    ascending and take the lexicographic minimum.  Two classes lie in the
    same S_N orbit exactly when their normal forms coincide: sorting makes
    the form depend only on the entry multisets of the coset, which are a
    complete orbit invariant.
    """
    _require_classical(cls, "orbit_normal_form")
    members = set(_shifts(cls.representative.entries, cls.weight))
    zmax = max(m.count(0) for m in members)
    best = min(tuple(sorted(m)) for m in members if m.count(0) == zmax)
    return ResidueVector(cls.modulus, best)


def zero_dominant_form(cls: CharClass) -> ResidueVector:
    """Sorted entries of the lex-least zero-maximising coset element.

    A per-class label: pick the smallest raw coset element among those with
    the most zeros, then sort.  Unlike ``orbit_normal_form`` this does not
    collapse S_N-equivalent classes whose zero-maximising multisets differ,
    which is how the classical N = 5 family ends up with 8 table rows but
    only 6 orbits.

    The forms are exactly the sorted zero-sum vectors s in which 0 is a most
    frequent entry.  A form is one: v + k has as many zeros as v has entries
    equal to -k, so an entry of the zero-maximising element occurring more
    often than 0 would give a member with more zeros.  Every such s is its own
    form: s has the most zeros in its class, and any other zero-maximising
    member s + k, k != 0, begins with k > 0 while s begins with 0.
    """
    _require_classical(cls, "zero_dominant_form")
    members = set(_shifts(cls.representative.entries, cls.weight))
    zmax = max(m.count(0) for m in members)
    raw = min(m for m in members if m.count(0) == zmax)
    return ResidueVector(cls.modulus, tuple(sorted(raw)))


def symmetric_orbits(modulus: int) -> dict[ResidueVector, tuple[CharClass, ...]]:
    """Partition of the classical classes into S_N orbits, keyed by normal form."""
    groups: dict[ResidueVector, list[CharClass]] = {}
    for cls in enumerate_classes(modulus):
        groups.setdefault(orbit_normal_form(cls), []).append(cls)
    return {
        form: tuple(sorted(groups[form], key=lambda c: c.representative.entries))
        for form in sorted(groups, key=lambda f: f.entries)
    }
