"""Character-group combinatorics: vectors, cosets, enumeration, orbits."""

import random
from itertools import product

import pytest

from dworklab.characters import (
    CharClass,
    ResidueVector,
    WeightVector,
    apply_permutation,
    apply_unit_scaling,
    canonical_representative,
    class_of,
    classical_weight,
    coset_elements,
    coset_elements_indexed,
    enumerate_classes,
    is_totally_nonzero,
    negate,
    orbit_normal_form,
    permute_class,
    scale_class,
    symmetric_orbits,
    zero_dominant_form,
)


def rv(entries, n=None):
    return ResidueVector(len(entries) if n is None else n, tuple(entries))


def brute_classes(n, weights):
    """Independent enumeration: canonicalize every zero-sum vector with tuples."""
    out = set()
    for v in product(range(n), repeat=n):
        if sum(v) % n:
            continue
        out.add(min(tuple((v[i] + k * weights[i]) % n for i in range(n)) for k in range(n)))
    return out


class TestResidueVector:
    def test_valid(self):
        v = rv((0, 0, 1, 1, 3))
        assert v.entries == (0, 0, 1, 1, 3)

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            rv((0, 0, 1, 1, 1))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            ResidueVector(5, (0, 0, 0))

    def test_bad_entry_range(self):
        with pytest.raises(ValueError):
            ResidueVector(5, (0, 0, 1, 1, 8))

    def test_trivial_moduli(self):
        assert rv((0,)).entries == (0,)
        assert rv((1, 1)).entries == (1, 1)


class TestWeightVector:
    def test_classical(self):
        assert classical_weight(5).classical
        assert not WeightVector(5, (0, 2, 1, 1, 1)).classical

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector(5, (1, 1, 1, 1, 2))

    def test_negative(self):
        with pytest.raises(ValueError):
            WeightVector(4, (5, -1, 0, 0))

    @pytest.mark.parametrize(
        "n,weights,order",
        [(5, (1, 1, 1, 1, 1), 5), (6, (0, 2, 2, 2, 0, 0), 3), (5, (5, 0, 0, 0, 0), 1),
         (4, (2, 2, 0, 0), 2), (6, (3, 3, 0, 0, 0, 0), 2)],
    )
    def test_order(self, n, weights, order):
        assert WeightVector(n, weights).order == order


class TestCosets:
    def test_worked_coset(self):
        c = class_of((0, 0, 1, 1, 3), classical_weight(5))
        got = [m.entries for m in coset_elements(c)]
        assert got == [
            (0, 0, 1, 1, 3),
            (1, 1, 2, 2, 4),
            (2, 2, 3, 3, 0),
            (3, 3, 4, 4, 1),
            (4, 4, 0, 0, 2),
        ]

    def test_zero_class_coset(self):
        c = class_of((0,) * 5, classical_weight(5))
        assert [m.entries for m in coset_elements(c)] == [(k,) * 5 for k in range(5)]

    def test_small_order_coset(self):
        w = WeightVector(6, (0, 2, 2, 2, 0, 0))
        c = class_of((0, 0, 0, 1, 1, 4), w)
        members = coset_elements(c)
        # independent oracle: enumerate all shifts, deduplicate
        brute = {tuple((c.representative.entries[i] + k * w.entries[i]) % 6 for i in range(6))
                 for k in range(6)}
        assert {m.entries for m in members} == brute
        assert len(members) == 3 == w.order

    def test_indexed_has_n_pairs(self):
        c = class_of((0, 0, 1, 1, 3), classical_weight(5))
        pairs = coset_elements_indexed(c)
        assert [k for k, _ in pairs] == list(range(5))
        assert pairs[2][1].entries == (2, 2, 3, 3, 0)
        assert {m.entries for _, m in pairs} == {m.entries for m in coset_elements(c)}

    def test_indexed_duplicates_small_order(self):
        w = WeightVector(6, (0, 2, 2, 2, 0, 0))
        c = class_of((0, 0, 0, 1, 1, 4), w)
        pairs = coset_elements_indexed(c)
        assert len(pairs) == 6
        for k in range(3):
            assert pairs[k][1] == pairs[k + 3][1]

    def test_classical_indexed_all_distinct(self):
        c = class_of((0, 0, 0, 1, 4), classical_weight(5))
        members = [m.entries for _, m in coset_elements_indexed(c)]
        assert len(set(members)) == 5

    def test_canonical_is_lex_min(self):
        w = classical_weight(5)
        v = rv((3, 3, 4, 4, 1))
        assert canonical_representative(v, w).entries == (0, 0, 1, 1, 3)

    def test_charclass_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            CharClass(classical_weight(5), rv((1, 1, 2, 2, 4)))


class TestTotallyNonzero:
    def test_examples(self):
        assert is_totally_nonzero(rv((1, 1, 2, 2, 4)))
        assert not is_totally_nonzero(rv((0, 0, 1, 1, 3)))
        assert not is_totally_nonzero(rv((0, 0, 0, 0, 0)))

    def test_count_quintic(self):
        # 204 totally nonzero zero-sum vectors for N = 5
        count = sum(
            1 for v in product(range(1, 5), repeat=5) if sum(v) % 5 == 0
        )
        assert count == 204


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (5, 125)])
    def test_classical_counts(self, n, expected):
        assert len(enumerate_classes(n)) == expected

    @pytest.mark.parametrize(
        "n,weights",
        [(3, (0, 2, 1)), (4, (2, 2, 0, 0)), (5, (1, 1, 1, 1, 1)), (5, (5, 0, 0, 0, 0)),
         (6, (0, 2, 2, 2, 0, 0)), (6, (6, 0, 0, 0, 0, 0))],
    )
    def test_against_brute_force(self, n, weights):
        w = WeightVector(n, weights)
        classes = enumerate_classes(n, w)
        assert {c.representative.entries for c in classes} == brute_classes(n, weights)
        assert len(classes) == n ** (n - 1) // w.order
        # lexicographic order
        reps = [c.representative.entries for c in classes]
        assert reps == sorted(reps)

    def test_cosets_partition_everything(self):
        w = WeightVector(4, (2, 2, 0, 0))
        seen = []
        for c in enumerate_classes(4, w):
            seen.extend(m.entries for m in coset_elements(c))
        assert sorted(seen) == sorted(
            v for v in product(range(4), repeat=4) if sum(v) % 4 == 0
        )


class TestGroupActions:
    def test_permutation_swap(self):
        v = rv((0, 1, 2, 3, 4))
        assert apply_permutation(v, (1, 0, 2, 3, 4)).entries == (1, 0, 2, 3, 4)

    def test_permutation_identity(self):
        v = rv((0, 0, 1, 1, 3))
        assert apply_permutation(v, range(5)) == v

    def test_permutation_wrong_size(self):
        with pytest.raises(ValueError):
            apply_permutation(rv((0, 0, 1, 1, 3)), (0, 1, 2))

    def test_class_permutation_needs_fixed_weight(self):
        w = WeightVector(4, (2, 2, 0, 0))
        c = class_of((1, 1, 1, 1), w)
        assert permute_class(c, (1, 0, 2, 3)).weight == w
        with pytest.raises(ValueError):
            permute_class(c, (0, 2, 1, 3))

    def test_class_permutation_is_canonical(self):
        # class_of and permute_class build classes without CharClass's own
        # canonicality check; constructing the same class directly runs it
        w = WeightVector(6, (2, 2, 1, 1, 0, 0))
        rng = random.Random(6)
        for c in rng.sample(enumerate_classes(6, w), 40):
            for perm in [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 5, 4), (1, 0, 3, 2, 5, 4)]:
                out = permute_class(c, perm)
                assert out == CharClass(w, out.representative)
                assert out == class_of(apply_permutation(c.representative, perm), w)
        with pytest.raises(ValueError, match="not a permutation"):
            permute_class(c, (0, 1, 2, 3, 4, 4))
        with pytest.raises(ValueError, match="does not fix the weight"):
            permute_class(c, (0, 2, 1, 3, 4, 5))

    def test_unit_scaling(self):
        assert apply_unit_scaling(rv((0, 0, 1, 1, 3)), 2).entries == (0, 0, 2, 2, 1)
        assert apply_unit_scaling(rv((0, 0, 1, 2, 2)), 2).entries == (0, 0, 2, 4, 4)
        v = rv((0, 0, 1, 1, 3))
        assert apply_unit_scaling(v, 1) == v

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            apply_unit_scaling(rv((0, 0, 0, 1, 1, 4), 6), 2)

    def test_unit_scaling_inverse(self):
        rng = random.Random(7)
        w = classical_weight(5)
        classes = enumerate_classes(5, w)
        for _ in range(30):
            v = rng.choice(classes).representative
            for u, uinv in ((2, 3), (3, 2), (4, 4)):
                assert apply_unit_scaling(apply_unit_scaling(v, u), uinv) == v

    def test_scale_class_well_defined(self):
        w = WeightVector(6, (0, 2, 2, 2, 0, 0))
        c = class_of((0, 0, 0, 1, 1, 4), w)
        # scaling any member gives the same class
        for m in coset_elements(c):
            assert class_of(apply_unit_scaling(m, 5), w) == scale_class(c, 5)

    def test_zero_sum_preserved_everywhere(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.choice([3, 4, 5, 6])
            entries = [rng.randrange(n) for _ in range(n - 1)]
            entries.append((-sum(entries)) % n)
            v = rv(tuple(entries), n)
            perm = list(range(n))
            rng.shuffle(perm)
            for out in (apply_permutation(v, perm), negate(v)):
                assert sum(out.entries) % n == 0


class TestNormalForms:
    def test_subtract_and_sort(self):
        c = class_of((1, 1, 2, 2, 4), classical_weight(5))
        assert orbit_normal_form(c).entries == (0, 0, 1, 1, 3)

    def test_zero_class(self):
        c = class_of((0,) * 5, classical_weight(5))
        assert orbit_normal_form(c).entries == (0,) * 5

    def test_sorting_only(self):
        c = class_of((4, 3, 2, 1, 0), classical_weight(5))
        assert orbit_normal_form(c).entries == (0, 1, 2, 3, 4)

    def test_requires_classical(self):
        c = class_of((1, 1, 1, 1), WeightVector(4, (2, 2, 0, 0)))
        with pytest.raises(ValueError):
            orbit_normal_form(c)
        with pytest.raises(ValueError):
            zero_dominant_form(c)

    def test_dominant_form_zero_dominates(self):
        for c in enumerate_classes(5):
            form = zero_dominant_form(c).entries
            zero_count = form.count(0)
            assert all(form.count(x) <= zero_count for x in range(1, 5))
            assert form == tuple(sorted(form))

    def test_equivalent_pair_shares_normal_form(self):
        # (0,0,1,1,3)+4W is a rearrangement of (0,0,2,4,4): one orbit, two
        # zero-dominant labels
        w = classical_weight(5)
        a = class_of((0, 0, 1, 1, 3), w)
        b = class_of((0, 0, 2, 4, 4), w)
        assert orbit_normal_form(a) == orbit_normal_form(b)
        assert zero_dominant_form(a) != zero_dominant_form(b)


QUINTIC_ORBIT_SIZES = {
    (0, 0, 0, 0, 0): 1,
    (0, 0, 0, 1, 4): 20,
    (0, 0, 0, 2, 3): 20,
    (0, 0, 1, 1, 3): 30,
    (0, 0, 1, 2, 2): 30,
    (0, 1, 2, 3, 4): 24,
}

QUINTIC_TABLE_FORMS = [
    (0, 0, 0, 0, 0),
    (0, 0, 0, 1, 4),
    (0, 0, 0, 2, 3),
    (0, 0, 1, 1, 3),
    (0, 0, 1, 2, 2),
    (0, 0, 2, 4, 4),
    (0, 0, 3, 3, 4),
    (0, 1, 2, 3, 4),
]

QUINTIC_DOMINANT_SIZES = {
    (0, 0, 0, 0, 0): 1,
    (0, 0, 0, 1, 4): 20,
    (0, 0, 0, 2, 3): 20,
    (0, 0, 1, 1, 3): 12,
    (0, 0, 1, 2, 2): 18,
    (0, 0, 2, 4, 4): 18,
    (0, 0, 3, 3, 4): 12,
    (0, 1, 2, 3, 4): 24,
}


def brute_orbits(n):
    """Union-find over transposition moves; fully independent of normal forms."""
    classes = sorted(brute_classes(n, (1,) * n))
    parent = {c: c for c in classes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def canon(v):
        return min(tuple((v[i] + k) % n for i in range(n)) for k in range(n))

    for c in classes:
        for i in range(n):
            for j in range(i + 1, n):
                w = list(c)
                w[i], w[j] = w[j], w[i]
                a, b = find(c), find(canon(tuple(w)))
                if a != b:
                    parent[a] = b
    groups = {}
    for c in classes:
        groups.setdefault(find(c), set()).add(c)
    return set(frozenset(g) for g in groups.values())


class TestOrbits:
    def test_quintic_orbits(self):
        orbits = symmetric_orbits(5)
        assert {f.entries: len(m) for f, m in orbits.items()} == QUINTIC_ORBIT_SIZES
        assert sum(len(m) for m in orbits.values()) == 125

    def test_n3_orbits(self):
        orbits = symmetric_orbits(3)
        assert {f.entries for f in orbits} == {(0, 0, 0), (0, 1, 2)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force_partition(self, n):
        got = set(
            frozenset(c.representative.entries for c in members)
            for members in symmetric_orbits(n).values()
        )
        assert got == brute_orbits(n)

    def test_normal_form_constant_on_orbits(self):
        for form, members in symmetric_orbits(5).items():
            assert {orbit_normal_form(c) for c in members} == {form}

    def test_quintic_dominant_forms(self):
        counts = {}
        for c in enumerate_classes(5):
            counts[zero_dominant_form(c).entries] = counts.get(zero_dominant_form(c).entries, 0) + 1
        assert sorted(counts) == QUINTIC_TABLE_FORMS
        assert counts == QUINTIC_DOMINANT_SIZES
