"""Weight recipe, duality, witnesses, and the exhaustive scan."""

import gc
import random
import tracemalloc
from itertools import permutations, product
from math import gcd

import numpy as np
import pytest

from dworklab import _bulk
from dworklab.characters import (
    CharClass,
    ResidueVector,
    WeightVector,
    canonical_representative,
    class_of,
    classical_weight,
    coset_elements,
    enumerate_classes,
    is_totally_nonzero,
    permute_class,
)
from dworklab.hodge import (
    HodgeData,
    WitnessConstructionError,
    WitnessReport,
    _witness_from_class,
    classical_repeat_class,
    construct_repeat_witness,
    dual_class,
    hodge_data,
    ht_of_vector,
    relabel_invariance_report,
    repeated_class_representatives,
    repeated_ht_scan,
    scan_contains,
    semantics_divergent,
    total_dimension,
    totally_nonzero_representatives,
)


def rv(entries):
    from dworklab.characters import ResidueVector

    return ResidueVector(len(entries), tuple(entries))


W5 = classical_weight(5)

# the published quintic table: class -> (dimension, weights)
QUINTIC_TABLE = {
    (0, 1, 2, 3, 4): (0, ()),
    (0, 0, 1, 1, 3): (2, (1, 2)),
    (0, 0, 1, 2, 2): (2, (1, 2)),
    (0, 0, 2, 4, 4): (2, (1, 2)),
    (0, 0, 3, 3, 4): (2, (1, 2)),
    (0, 0, 0, 1, 4): (2, (1, 2)),
    (0, 0, 0, 2, 3): (2, (1, 2)),
    (0, 0, 0, 0, 0): (4, (0, 1, 2, 3)),
}

# totally nonzero representative sets for the dimension-2 rows
QUINTIC_REPRESENTATIVES = {
    (0, 0, 1, 1, 3): {(1, 1, 2, 2, 4), (3, 3, 4, 4, 1)},
    (0, 0, 1, 2, 2): {(1, 1, 2, 3, 3), (2, 2, 3, 4, 4)},
    (0, 0, 2, 4, 4): {(2, 2, 4, 1, 1), (4, 4, 1, 3, 3)},
    (0, 0, 3, 3, 4): {(3, 3, 1, 1, 2), (4, 4, 2, 2, 3)},
    (0, 0, 0, 1, 4): {(2, 2, 2, 3, 1), (3, 3, 3, 4, 2)},
    (0, 0, 0, 2, 3): {(1, 1, 1, 3, 4), (4, 4, 4, 1, 2)},
}


class TestHtOfVector:
    def test_worked_values(self):
        assert ht_of_vector(rv((1, 1, 2, 2, 4))) == 1
        assert ht_of_vector(rv((3, 3, 4, 4, 1))) == 2
        assert ht_of_vector(rv((1, 1, 1, 1, 1))) == 0

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            ht_of_vector(rv((0, 0, 1, 1, 3)))

    def test_range_and_pairing_exhaustive(self):
        for v in product(range(1, 5), repeat=5):
            if sum(v) % 5:
                continue
            u = rv(v)
            h = ht_of_vector(u)
            assert 0 <= h <= 3
            neg = rv(tuple((5 - x) % 5 for x in v))
            assert h + ht_of_vector(neg) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 7])
    def test_pairing_other_moduli(self, n):
        rng = random.Random(n)
        for _ in range(60):
            entries = [rng.randrange(1, n) for _ in range(n - 1)]
            last = (-sum(entries)) % n
            if last == 0:
                continue
            entries.append(last)
            from dworklab.characters import ResidueVector, negate

            u = ResidueVector(n, tuple(entries))
            assert ht_of_vector(u) + ht_of_vector(negate(u)) == n - 2


class TestHodgeData:
    @pytest.mark.parametrize("rep,expected", sorted(QUINTIC_TABLE.items()))
    def test_quintic_table(self, rep, expected):
        data = hodge_data(class_of(rep, W5))
        assert (data.dimension, data.weights) == expected

    @pytest.mark.parametrize("rep,reps", sorted(QUINTIC_REPRESENTATIVES.items()))
    def test_quintic_representative_sets(self, rep, reps):
        got = {m.entries for m in totally_nonzero_representatives(class_of(rep, W5))}
        assert got == reps

    def test_set_equals_indexed_for_classical(self):
        for c in enumerate_classes(5):
            assert hodge_data(c, "set").weights == hodge_data(c, "indexed").weights
            assert not semantics_divergent(c)

    def test_indexed_counts_duplicates(self):
        c = class_of((1, 1, 1, 1), WeightVector(4, (2, 2, 0, 0)))
        assert hodge_data(c, "set").weights == (0, 1)
        assert hodge_data(c, "indexed").weights == (0, 0, 1, 1)
        assert semantics_divergent(c)

    def test_invalid_semantics(self):
        with pytest.raises(ValueError):
            hodge_data(class_of((0,) * 5, W5), "multiset")

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            HodgeData(5, 2, (1,), "set")
        with pytest.raises(ValueError):
            HodgeData(5, 1, (4,), "set")

    @pytest.mark.parametrize("weights,expected", [
        ((1, 2, 2, 3), (2,)),
        ((0, 0, 1, 1, 1), (0, 1)),
        ((0, 1, 2), ()),
        ((), ()),
    ])
    def test_repeated_values(self, weights, expected):
        assert HodgeData(5, len(weights), weights, "set").repeated_values() == expected

    def test_permutation_invariance(self):
        rng = random.Random(11)
        classes = enumerate_classes(5)
        for _ in range(40):
            c = rng.choice(classes)
            perm = list(range(5))
            rng.shuffle(perm)
            assert hodge_data(permute_class(c, perm)).weights == hodge_data(c).weights


class TestDuality:
    def test_examples(self):
        assert dual_class(class_of((0, 0, 1, 1, 3), W5)).representative.entries == (0, 0, 4, 4, 2)
        zero = class_of((0,) * 5, W5)
        assert dual_class(zero) == zero
        d = dual_class(class_of((0, 0, 1, 2, 2), W5))
        assert d.representative.entries == (0, 0, 4, 3, 3)

    def test_involution_and_weight_flip_exhaustive(self):
        for c in enumerate_classes(5):
            d = dual_class(c)
            assert dual_class(d) == c
            hc, hd = hodge_data(c), hodge_data(d)
            assert hd.dimension == hc.dimension
            assert hd.weights == tuple(sorted(3 - w for w in hc.weights))

    def test_duality_general_weight(self):
        w = WeightVector(6, (0, 2, 2, 2, 0, 0))
        for c in enumerate_classes(6, w)[:200]:
            d = dual_class(c)
            assert dual_class(d) == c
            hc, hd = hodge_data(c), hodge_data(d)
            assert hd.weights == tuple(sorted(4 - x for x in hc.weights))


class TestRelabelInvariance:
    def test_table_rows(self):
        for rep in QUINTIC_TABLE:
            assert relabel_invariance_report(class_of(rep, W5))

    def test_zero_class(self):
        assert relabel_invariance_report(class_of((0,) * 5, W5))

    def test_all_quintic_classes(self):
        assert all(relabel_invariance_report(c) for c in enumerate_classes(5))


class TestTotalDimension:
    def test_quintic(self):
        # independent oracle: count totally nonzero zero-sum vectors directly
        brute = sum(1 for v in product(range(1, 5), repeat=5) if sum(v) % 5 == 0)
        assert total_dimension(5) == brute == 204

    @pytest.mark.parametrize(
        "n,expected", [(1, 0), (2, 1), (3, 2), (9, 14_913_080), (10, 348_678_441)]
    )
    def test_small(self, n, expected):
        assert total_dimension(n) == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_residue_count(self, n):
        # independent oracle: count tuples in {1..N-1}^N by their sum mod N
        ways = [1] + [0] * (n - 1)
        for _ in range(n):
            ways = [sum(ways[(s - u) % n] for u in range(1, n)) for s in range(n)]
        assert total_dimension(n) == ways[0]

    @pytest.mark.parametrize(
        "n,weights",
        [(5, (1, 1, 1, 1, 1)), (5, (0, 2, 1, 1, 1)), (4, (2, 2, 0, 0)), (6, (0, 2, 2, 2, 0, 0))],
    )
    def test_equals_per_class_sum(self, n, weights):
        w = WeightVector(n, weights)
        per_class = sum(hodge_data(c, "set").dimension for c in enumerate_classes(n, w))
        assert total_dimension(n, w) == per_class

    def test_quintic_dimension_census(self):
        census = {}
        for c in enumerate_classes(5):
            d = hodge_data(c).dimension
            census[d] = census.get(d, 0) + 1
        assert census == {4: 1, 2: 100, 0: 24}


class TestClassicalRepeatClass:
    def test_n6(self):
        report = classical_repeat_class(6)
        assert report.char_class == class_of((0, 0, 0, 2, 2, 2), classical_weight(6))
        assert report.hodge.weights == (1, 2, 2, 3)
        assert report.repeated_value == 2 and report.multiplicity == 2
        # the two realizing coset members
        realizers = {
            m.entries
            for m in coset_elements(report.char_class)
            if is_totally_nonzero(m) and ht_of_vector(m) == report.repeated_value
        }
        assert realizers == {(2, 2, 2, 4, 4, 4), (5, 5, 5, 1, 1, 1)}

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_large_n(self, n):
        report = classical_repeat_class(n)
        seed = (4, n - 2, n - 2) + (0,) * (n - 3)
        assert report.char_class == class_of(seed, classical_weight(n))
        assert report.repeated_value == 2 and report.multiplicity >= 2
        realizers = {
            m.entries
            for m in coset_elements(report.char_class)
            if is_totally_nonzero(m) and ht_of_vector(m) == 2
        }
        assert (5, n - 1, n - 1) + (1,) * (n - 3) in realizers
        assert (7, 1, 1) + (3,) * (n - 3) in realizers

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_outside_domain(self, n):
        with pytest.raises(ValueError):
            classical_repeat_class(n)


class TestConstructedWitness:
    @pytest.mark.parametrize(
        "n,weights",
        [(4, (2, 2, 0, 0)), (6, (3, 3, 0, 0, 0, 0)), (5, (5, 0, 0, 0, 0)),
         (6, (0, 2, 2, 2, 0, 0)), (7, (7, 0, 0, 0, 0, 0, 0)), (3, (3, 0, 0))],
    )
    def test_construction_verified_by_recipe(self, n, weights):
        w = WeightVector(n, weights)
        report = construct_repeat_witness(n, w)
        # independent verification through the per-class recipe
        data = hodge_data(report.char_class, "indexed")
        assert data.weights.count(report.repeated_value) == report.multiplicity >= 2
        # nonzero-shift members are all totally nonzero
        pivot = weights.index(0)
        members = coset_elements(report.char_class)
        rep = report.char_class.representative.entries
        for k in range(1, n):
            shifted = tuple((rep[i] + k * weights[i]) % n for i in range(n))
            assert all(x != 0 for x in shifted)
        assert report.semantics_divergent == (
            hodge_data(report.char_class, "set").weights != data.weights
        )

    def test_n4_example(self):
        report = construct_repeat_witness(4, WeightVector(4, (2, 2, 0, 0)))
        assert report.char_class.representative.entries == (1, 1, 1, 1)
        assert report.hodge.weights == (0, 0, 1, 1)
        assert report.semantics_divergent

    @pytest.mark.parametrize(
        "n,weights",
        [(3, (0, 2, 1)), (3, (1, 0, 2)), (5, (0, 2, 1, 1, 1)), (5, (1, 1, 2, 0, 1)),
         (7, (0, 2, 1, 1, 1, 1, 1))],
    )
    def test_degenerate_family_raises(self, n, weights):
        with pytest.raises(WitnessConstructionError):
            construct_repeat_witness(n, WeightVector(n, weights))

    def test_classical_rejected(self):
        with pytest.raises(ValueError):
            construct_repeat_witness(5, classical_weight(5))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            construct_repeat_witness(2, WeightVector(2, (0, 2)))


class TestWitnessDivergenceFlag:
    """The recipe's one pass per semantics gives semantics_divergent's answer."""

    def test_constructed_witnesses(self):
        reports = [classical_repeat_class(6)]
        for n in (3, 4, 5):
            for weights in _compositions(n):
                w = WeightVector(n, weights)
                if w.classical:
                    continue
                try:
                    reports.append(construct_repeat_witness(n, w))
                except WitnessConstructionError:
                    pass
        assert len(reports) > 100
        for r in reports:
            assert r.semantics_divergent == semantics_divergent(r.char_class), r

    @pytest.mark.parametrize("semantics", ["set", "indexed"])
    def test_every_class_up_to_n4(self, semantics):
        for n in range(1, 5):
            for weights in _compositions(n):
                for c in enumerate_classes(n, WeightVector(n, weights)):
                    r = _witness_from_class(c, semantics)
                    if r is not None:
                        assert r.semantics_divergent == semantics_divergent(c), (semantics, c)


class TestScan:
    def test_quintic_classical_empty(self):
        assert repeated_ht_scan(5) == ()
        assert repeated_ht_scan(5, semantics="set") == ()

    def test_n6_classical_contains_known_class(self):
        reps = set(repeated_class_representatives(6))
        assert (0, 0, 0, 2, 2, 2) in reps

    def test_n8_classical_contains_known_class(self):
        target = class_of((4, 6, 6, 0, 0, 0, 0, 0), classical_weight(8))
        assert scan_contains(target)

    def test_n7_classical_nonempty(self):
        # the classical N=7 family does have repeated-weight classes
        target = class_of((6, 6, 1, 1, 1, 2, 4), classical_weight(7))
        assert scan_contains(target)

    def test_n3_degenerate_scan_truly_empty(self):
        # for W ~ (0,2,1) no repeated-weight class exists at all
        for weights in [(0, 2, 1), (0, 1, 2), (2, 0, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            assert repeated_ht_scan(3, WeightVector(3, weights)) == ()

    @pytest.mark.parametrize(
        "n,weights",
        [(4, (1, 1, 1, 1)), (4, (2, 2, 0, 0)), (5, (0, 2, 1, 1, 1)), (5, (5, 0, 0, 0, 0)),
         (6, (0, 2, 2, 2, 0, 0))],
    )
    @pytest.mark.parametrize("semantics", ["set", "indexed"])
    def test_scan_matches_per_class_recipe(self, n, weights, semantics):
        w = WeightVector(n, weights)
        expected = set()
        for c in enumerate_classes(n, w):
            ws = hodge_data(c, semantics).weights
            if len(set(ws)) != len(ws):
                expected.add(c.representative.entries)
        assert set(repeated_class_representatives(n, w, semantics)) == expected

    def test_reports_are_ordered_and_valid(self):
        reports = repeated_ht_scan(4, WeightVector(4, (2, 2, 0, 0)))
        reps = [r.char_class.representative.entries for r in reports]
        assert reps == sorted(reps)
        for r in reports:
            assert r.multiplicity >= 2
            assert r.hodge.weights.count(r.repeated_value) == r.multiplicity

    def test_scan_budget_guard(self):
        with pytest.raises(ValueError):
            repeated_ht_scan(10)

    def test_witness_in_scan(self):
        w = WeightVector(6, (3, 3, 0, 0, 0, 0))
        report = construct_repeat_witness(6, w)
        assert scan_contains(report.char_class)
        assert report.char_class.representative.entries in set(
            repeated_class_representatives(6, w)
        )

    def test_unknown_semantics_refused_by_every_scan(self):
        cls = classical_repeat_class(6).char_class
        with pytest.raises(ValueError) as recipe:
            hodge_data(cls, "bogus")
        scans = [
            lambda: repeated_ht_scan(6, WeightVector(6, (2, 2, 2, 0, 0, 0)), "bogus"),
            lambda: repeated_class_representatives(6, WeightVector(6, (2, 2, 2, 0, 0, 0)), "bogus"),
            lambda: scan_contains(cls, "bogus"),
        ]
        for scan in scans:
            with pytest.raises(ValueError) as refused:
                scan()
            assert str(refused.value) == str(recipe.value)


def _clear_bulk_caches():
    for value in vars(_bulk).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


# (weight at N = 6, rows of the transversal its sweep reads, N^(N-1)/ord(W)): the
# classical weight reads 6^4 rows, (2,2,2,0,0,0) 2 * 6^4 and (6,0,0,0,0,0) the full 6^5
ROW_LIMIT_PATHS = [((1,) * 6, 6 ** 4), ((2, 2, 2, 0, 0, 0), 2 * 6 ** 4), ((6,) + (0,) * 5, 6 ** 5)]
ROW_LIMIT_IDS = ["transversal", "order3", "full"]


# the helpers that allocate a sweep's first table: the weight kernel's lift tables,
# and the transversal table that members and canonical codes read
FIRST_ALLOCATIONS = ["_free_lifts", "_transversal_table"]


class TestRowLimit:
    """``_bulk.MAX_TABLE_ROWS`` is checked once, by ``class_sweep`` before it
    builds a table, for class enumeration and all three scan functions alike: all of
    them read the sweep first."""

    @pytest.mark.parametrize("weights,rows", ROW_LIMIT_PATHS, ids=ROW_LIMIT_IDS)
    def test_refused_before_any_table_is_built(self, monkeypatch, weights, rows):
        _clear_bulk_caches()
        monkeypatch.setattr(_bulk, "MAX_TABLE_ROWS", rows - 1)

        def no_table(*args):
            raise AssertionError("a table was allocated past the row limit")

        for name in FIRST_ALLOCATIONS:
            monkeypatch.setattr(_bulk, name, no_table)
        w = WeightVector(6, weights)
        cls = class_of((0,) * 6, w)
        calls = [
            lambda: enumerate_classes(6, w),
            lambda: repeated_ht_scan(6, w),
            lambda: repeated_class_representatives(6, w, "set"),
            lambda: scan_contains(cls),
        ]
        message = f"class enumeration for modulus 6 needs {rows} rows, over the limit of {rows - 1}"
        for call in calls:
            with pytest.raises(_bulk.RowLimitError, match=message):
                call()

    @pytest.mark.parametrize("weights,rows", ROW_LIMIT_PATHS, ids=ROW_LIMIT_IDS)
    def test_table_at_the_limit_is_built(self, monkeypatch, weights, rows):
        _clear_bulk_caches()
        monkeypatch.setattr(_bulk, "MAX_TABLE_ROWS", rows)
        w = WeightVector(6, weights)
        assert len(enumerate_classes(6, w)) == 6 ** 5 // w.order
        _clear_bulk_caches()

    def test_full_table_refusal_at_n9(self, monkeypatch):
        # N = 9 is admitted only when gcd(N, W) = 1 (9^7 rows); (3,3,3,0,...,0) has
        # ord(W) = 3, so 3 * 9^7 rows, and (9,0,...,0) has the full 9^8
        _clear_bulk_caches()

        def no_table(*args):
            raise AssertionError("a table was allocated past the row limit")

        for name in FIRST_ALLOCATIONS:
            monkeypatch.setattr(_bulk, name, no_table)
        for weights, rows in [((3, 3, 3) + (0,) * 6, 14348907), ((9,) + (0,) * 8, 43046721)]:
            with pytest.raises(ValueError, match=f"needs {rows} rows, over the limit of 10000000$"):
                repeated_ht_scan(9, WeightVector(9, weights))

    def test_unit_weight_at_n9_is_admitted(self, monkeypatch):
        # 9^7 rows pass the row check; stop at the first table builder, before the sweep
        _clear_bulk_caches()

        class Built(Exception):
            pass

        def sentinel(*args):
            raise Built

        for name in FIRST_ALLOCATIONS:
            monkeypatch.setattr(_bulk, name, sentinel)
        for weights in [(1,) * 9, (3, 3, 2) + (0,) * 5 + (1,)]:
            with pytest.raises(Built):
                _bulk.class_sweep(9, weights)


def _compositions(n, length=None):
    """Every weight vector at N = n, in lex order: `length` (default n)
    non-negative entries summing to n."""
    length = n if length is None else length
    if length == 1:
        return [(n,)]
    return [(head,) + tail for head in range(n + 1) for tail in _compositions(n - head, length - 1)]


def test_transversal_coordinate_exists():
    # the sweep's premise: some entry w_j has gcd(w_j, N) = gcd(N, W); for larger N it
    # can fail (N = 30, W = (3, 2, 25, 0, ...)), but the row limit refuses those first
    for n in range(1, 10):
        for weights in _compositions(n):
            g = gcd(n, *weights)
            assert any(gcd(w, n) == g for w in weights), (n, weights)


# every W at N <= 5, and a fixed sample at N = 6, 7 covering ord(W) = 1, 2, 3, N
# and the recipe's refusal family (0, 2, 1, ..., 1)
ORACLE_CASES = [(n, w) for n in range(1, 6) for w in _compositions(n)] + [
    (6, (1, 1, 1, 1, 1, 1)),
    (6, (0, 2, 2, 2, 0, 0)),
    (6, (3, 3, 0, 0, 0, 0)),
    (6, (0, 0, 6, 0, 0, 0)),
    (6, (2, 0, 1, 1, 1, 1)),
    (7, (1, 1, 1, 1, 1, 1, 1)),
    (7, (0, 2, 1, 1, 1, 1, 1)),
]


def _unreported_classes(n, w, reported, rng):
    """Every class outside `reported` up to N = 5; a seeded sample of 40 beyond."""
    if n <= 5:
        return [c for c in enumerate_classes(n, w) if c.representative.entries not in reported]
    out = []
    while len(out) < 40:
        head = [rng.randrange(n) for _ in range(n - 1)]
        c = class_of(head + [-sum(head) % n], w)
        if c.representative.entries not in reported:
            out.append(c)
    return out


class TestScanReportOracle:
    """The scan's array-built reports against the per-class recipe."""

    @pytest.mark.parametrize("semantics", ["set", "indexed"])
    def test_reports_match_recipe(self, semantics):
        rng = random.Random(20081)
        for n, weights in ORACLE_CASES:
            w = WeightVector(n, weights)
            case = (n, weights, semantics)
            reports = repeated_ht_scan(n, w, semantics)
            reps = tuple(r.char_class.representative.entries for r in reports)
            expected = tuple(_witness_from_class(class_of(rep, w), semantics) for rep in reps)
            assert reports == expected, case
            g = gcd(n, *weights) if semantics == "indexed" else 1
            for r in reports:
                ws = r.hodge.weights
                assert r.repeated_value == min(v for v in ws if ws.count(v) > 1), (case, r)
                assert r.multiplicity == ws.count(r.repeated_value), (case, r)
                # indexed weights are the set weights repeated g times
                assert all(ws.count(v) % g == 0 for v in ws), (case, r)
                assert type(r.repeated_value) is type(r.multiplicity) is int, case
                assert type(r.semantics_divergent) is bool, case
                assert all(type(x) is int for x in r.hodge.weights), case
            assert repeated_class_representatives(n, w, semantics) == reps, case
            assert all(scan_contains(r.char_class, semantics) for r in reports), case
            for c in _unreported_classes(n, w, set(reps), rng):
                assert not scan_contains(c, semantics), (case, c)
                assert _witness_from_class(c, semantics) is None, (case, c)


def _unsorted_sample(n, rng, per_kind):
    """`per_kind` seeded unsorted W at N = n with g = gcd(N, W) = 1, and as many with g > 1."""
    unsorted = [w for w in _compositions(n) if list(w) != sorted(w, reverse=True)]
    out = []
    for coprime in (True, False):
        out += rng.sample([w for w in unsorted if (gcd(n, *w) == 1) == coprime], per_kind)
    return out


# every non-classical W at N <= 5; at N = 6, 7 two fixed unsorted W (g = 1 and g = 3)
# and a seeded sample of unsorted W with g = 1 and g > 1
ORBIT_MAP_CASES = (
    [(n, w) for n in range(2, 6) for w in _compositions(n) if w != (1,) * n]
    + [(7, (0, 0, 0, 1, 6, 0, 0)), (6, (0, 3, 0, 0, 3, 0))]
    + [(6, w) for w in _unsorted_sample(6, random.Random(20082), 3)]
    + [(7, w) for w in _unsorted_sample(7, random.Random(20083), 1)]
)


class TestOrbitMap:
    """``scan_contains`` answers from the sweep of sorted W, through a stable sort of
    positions by descending weight.  ``repeated_class_representatives`` reads the same
    sweep, so each class is also checked against the per-class recipe."""

    @pytest.mark.parametrize("semantics", ["set", "indexed"])
    def test_membership_matches_per_weight_scan(self, semantics):
        for n, weights in ORBIT_MAP_CASES:
            w = WeightVector(n, weights)
            reported = set(repeated_class_representatives(n, w, semantics))
            classes = enumerate_classes(n, w)
            if len(classes) > 5_000:  # N = 6, 7 (past 5,000 classes): a seeded sample
                classes = random.Random(20084).sample(classes, 5_000)
            for c in classes:
                found = scan_contains(c, semantics)
                assert found == (c.representative.entries in reported), (weights, semantics, c)
                assert found == (_witness_from_class(c, semantics) is not None), (weights, semantics, c)

    def test_one_scan_per_orbit(self):
        # every reader of every arrangement of (3, 3, 0, 0, 0, 0) reads the one sweep of
        # the sorted weight
        _clear_bulk_caches()
        for weights in [(0, 3, 0, 0, 3, 0), (3, 0, 0, 0, 0, 3), (0, 0, 3, 3, 0, 0)]:
            w = WeightVector(6, weights)
            assert scan_contains(construct_repeat_witness(6, w).char_class)
            assert len(enumerate_classes(6, w)) == 6 ** 5 // 2
            for semantics in ("set", "indexed"):
                assert repeated_ht_scan(6, w, semantics)
                assert repeated_class_representatives(6, w, semantics)
        assert _bulk.class_sweep.cache_info().misses == 1

    def test_one_sweep_per_weight(self):
        # class enumeration, both scan semantics and membership all read one sweep
        _clear_bulk_caches()
        w = WeightVector(6, (3, 3, 0, 0, 0, 0))
        classes = enumerate_classes(6, w)
        for semantics in ("set", "indexed"):
            repeated_ht_scan(6, w, semantics)
            repeated_class_representatives(6, w, semantics)
            scan_contains(classes[0], semantics)
        assert _bulk.class_sweep.cache_info().misses == 1


class TestSharedHodgeData:
    """``repeated_ht_scan`` builds one HodgeData per distinct weight row; reports share it."""

    @pytest.mark.parametrize("semantics", ["set", "indexed"])
    @pytest.mark.parametrize(
        "n,weights", [(6, (1,) * 6), (6, (0, 3, 0, 0, 3, 0)), (7, (1,) * 7), (7, (0, 0, 0, 1, 6, 0, 0))]
    )
    def test_one_object_per_multiset(self, n, weights, semantics):
        reports = repeated_ht_scan(n, WeightVector(n, weights), semantics)
        assert reports
        distinct = {(r.hodge.dimension, r.hodge.weights) for r in reports}
        assert len({id(r.hodge) for r in reports}) == len(distinct) < len(reports)


def _class_of_oracle(n, weights):
    """Sorted canonical representatives of class_of(v, W) over all zero-sum v."""
    w = WeightVector(n, weights)
    reps = set()
    for head in product(range(n), repeat=n - 1):
        reps.add(class_of(head + ((-sum(head)) % n,), w).representative.entries)
    return sorted(reps)


def _transversal(n, weights):
    """W's own transversal {v : v_j < g}, whose columns the weight sweep of W follows."""
    g = gcd(n, *weights)
    return _bulk._transversal_table(n, next(i for i, w in enumerate(weights) if gcd(w, n) == g), g)


def _encode(entries, n):
    """The base-N code of a vector, digit by digit."""
    code = 0
    for e in entries:
        code = code * n + e
    return code


class TestSweepOracle:
    """The column-major sweep behind enumerate_classes against plain-Python class_of.

    The cases cover transversals {v : v_j < gcd(N, W)} at the first
    coordinate (j = 0) and past it, from N^(N-2) rows (a unit entry) to the
    full table (W = 0 mod N).
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_weight(self, n):
        for weights in _compositions(n):
            reps = [c.representative.entries for c in enumerate_classes(n, WeightVector(n, weights))]
            assert reps == _class_of_oracle(n, weights), weights

    @pytest.mark.parametrize(
        "n,weights",
        [(6, (1,) * 6), (6, (2, 2, 2, 0, 0, 0)), (6, (3, 3, 0, 0, 0, 0)),
         (6, (6, 0, 0, 0, 0, 0)), (7, (7, 0, 0, 0, 0, 0, 0)),
         (6, (2, 0, 0, 0, 3, 1)), (6, (0, 0, 4, 0, 2, 0))],
    )
    def test_larger_moduli(self, n, weights):
        reps = [c.representative.entries for c in enumerate_classes(n, WeightVector(n, weights))]
        assert reps == _class_of_oracle(n, weights)

    @pytest.mark.parametrize(
        "n,weights",
        [(5, (1,) * 5), (5, (0, 2, 1, 1, 1)), (5, (5, 0, 0, 0, 0)), (6, (2, 2, 2, 0, 0, 0)),
         (6, (3, 3, 0, 0, 0, 0)), (6, (4, 2, 0, 0, 0, 0))],
    )
    def test_member_arrays(self, n, weights):
        # canonicalising W's own transversal: column i, row k of member is v_i + kW for
        # the canonical representative v_i of class i, and the ord(W) rows are the
        # class's distinct members, v_i + ord(W) W = v_i; the weight sweep's column
        # sweep[i] (the transversal column of class i) holds their weights sorted,
        # lift/N - 1 when totally nonzero, else N
        codes, sweep, member = _bulk.canonicalise(n, weights, _transversal(n, weights))
        ht = _bulk.class_sweep(n, weights).weights
        order = WeightVector(n, weights).order
        assert member.shape == ht.shape == (order, len(codes))
        assert ht.dtype == np.int8
        reps = [c.representative.entries for c in enumerate_classes(n, WeightVector(n, weights))]
        assert _bulk.decode_many(codes, n) == reps
        for i, rep in enumerate(reps):
            shifts = [tuple((e + k * w) % n for e, w in zip(rep, weights)) for k in range(order + 1)]
            assert shifts[order] == rep
            assert len(set(member[:, i].tolist())) == order
            assert member[:, i].tolist() == [_encode(u, n) for u in shifts[:order]]
            assert ht[:, sweep[i]].tolist() == sorted(
                sum(u) // n - 1 if all(u) else n for u in shifts[:order])

    def test_member_codes_fit_their_dtype(self):
        # the largest code is that of (N-1, ..., N-1), a member of some class
        n = 8
        codes, _, member = _bulk.canonicalise(n, (1,) * n, _transversal(n, (1,) * n))
        assert member.dtype == codes.dtype == _bulk.code_dtype(n) == np.int32
        assert int(member.max()) == n ** n - 1
        assert _bulk.decode_many(np.array([member.max()]), n) == [(n - 1,) * n]
        # the largest modulus the default row limit admits (a transversal)
        top = max(m for m in range(3, 16) if m ** (m - 2) <= _bulk.MAX_TABLE_ROWS)
        assert top == 9
        code = np.zeros(1, dtype=_bulk.code_dtype(top))
        for _ in range(top):  # the sweep's Horner pass on (N-1, ..., N-1)
            code *= top
            code += top - 1
        assert int(code[0]) == top ** top - 1 == _encode((top - 1,) * top, top)
        assert _bulk.code_dtype(top + 1) == np.int64

    def test_sweep_order_gathered_in_place(self):
        # member is put into code order one row at a time, so the peak never holds a
        # second (ord(W), classes) copy of it: canonicalising every class at N = 8
        # classical peaks at 14.7 MB, and a gathered copy took it to 23.1 MB
        vec = _transversal(8, (1,) * 8)
        tracemalloc.start()
        try:
            codes, _, member = _bulk.canonicalise(8, (1,) * 8, vec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert member.shape == (8, 8 ** 6)
        assert peak < 2 * member.nbytes, peak

    def test_weight_sweep_holds_no_codes(self):
        # the cached sweep holds int8 weights and two masks and builds no codes and no
        # member array: class_sweep(8, (1,) * 8) peaks at 3.9 MB, 15 bytes a class, under
        # a bound of 32; an int32 member code array alone takes 8.4 MB
        _clear_bulk_caches()
        tracemalloc.start()
        try:
            sweep = _bulk.class_sweep(8, (1,) * 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _clear_bulk_caches()
        assert sweep.weights.shape == (8, 8 ** 6)
        assert peak < 4 * sweep.weights.nbytes, peak


def _sorted_weights(n):
    """Every sorted W at N = n: one per S_N-orbit."""
    return sorted({tuple(sorted(w, reverse=True)) for w in _compositions(n)})


def _column_oracle(n, weights, column):
    """Plain Python: the sorted weights of the ord(W) distinct members v + kW of
    the transversal column v, lift/N - 1 when totally nonzero, else N."""
    order = n // gcd(n, *weights)
    members = [[(e + k * w) % n for e, w in zip(column, weights)] for k in range(order)]
    return sorted(sum(u) // n - 1 if all(u) else n for u in members)


def _check_columns(n, weights, sweep, columns, table):
    """Each of these columns of the sweep's weights and flags against the oracle;
    ``table`` holds the transversal columns, one per entry of ``columns``."""
    g = gcd(n, *weights)
    got = sweep.weights.take(columns, axis=1).T.tolist()
    for c, column, ht in zip(columns.tolist(), table.T.tolist(), got):
        expected = _column_oracle(n, weights, column)
        assert ht == expected, (weights, c, column)
        repeat = any(a == b < n for a, b in zip(expected, expected[1:]))
        assert bool(sweep.flagged[False][c]) == repeat, (weights, c)
        assert bool(sweep.flagged[True][c]) == (repeat or (g > 1 and expected[0] < n)), (weights, c)


class TestWeightKernel:
    """``class_sweep``'s weights, built from outer sums over the transversal's
    digit grid (``_bulk._sweep_weights``), against plain Python on each
    transversal column: every column at N <= 6, a seeded sample past that,
    where the columns split into blocks, and the flags of every arrangement
    of a W against those of its sorted form."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_column(self, n):
        for weights in _sorted_weights(n):
            sweep = _bulk.class_sweep(n, weights)
            table = _transversal(n, weights)
            _check_columns(n, weights, sweep, np.arange(table.shape[1]), table)

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_seeded_columns(self, n):
        # at N = 8 the classical sweep's 8^6 columns are 8 blocks, and (8, 0, ..., 0)'s
        # 8^7 are 64; N = 9 is admitted only when g = 1, so it takes the classical weight
        rng = np.random.default_rng(2500 + n)
        cases = _sorted_weights(n) if n < 9 else [(1,) * 9]
        for weights in cases:
            _clear_bulk_caches()
            sweep = _bulk.class_sweep(n, weights)
            rows = sweep.weights.shape[1]
            columns = np.unique(np.concatenate([[0, rows - 1], rng.integers(0, rows, 150)]))
            _check_columns(n, weights, sweep, columns, sweep.members(columns))
        _clear_bulk_caches()

    @pytest.mark.parametrize(
        "n,weights,limit",
        [(5, (2, 1, 1, 1, 0), None), (5, (5, 0, 0, 0, 0), None), (6, (3, 3, 0, 0, 0, 0), None),
         (6, (2, 2, 2, 0, 0, 0), None), (6, (2, 2, 1, 1, 0, 0), 12), (7, (2, 2, 2, 1, 0, 0, 0), 6),
         (7, (7, 0, 0, 0, 0, 0, 0), None)],
    )
    def test_arrangements(self, n, weights, limit):
        # a sweep of W's own arrangement (its transversal coordinate anywhere, the
        # forced one first when it is last) has the same classes as the sweep of sorted
        # W, with the same weights and flags: matched by canonical code
        arrangements = sorted(set(permutations(weights)))
        if limit is not None:
            arrangements = random.Random(2500).sample(arrangements, limit)
        assert len(arrangements) > 1
        ref = _bulk.sweep_for(n, weights)
        for w in arrangements:
            own = _bulk.class_sweep(n, w)
            codes, order, _ = _bulk.canonicalise(n, w, own.members())
            ref_codes, columns = ref.canonical(w)
            assert np.array_equal(codes, ref_codes), w
            assert np.array_equal(own.weights[:, order], ref.weights[:, columns]), w
            for indexed in (False, True):
                assert np.array_equal(own.flagged[indexed][order], ref.flagged[indexed][columns]), w

    def test_n9_peak_below_three_weight_arrays(self):
        # the weights are the one array the sweep keeps; building them from digit-grid
        # sums in blocks, and the repeat mask a row pair at a time, peaks at 1.9 times
        # their 43 MB under tracemalloc, where stepping an (N, rows) table by W and
        # masking all row pairs at once peaked at 3.8 times
        _clear_bulk_caches()
        tracemalloc.start()
        try:
            sweep = _bulk.class_sweep(9, (1,) * 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _clear_bulk_caches()
        assert sweep.weights.shape == (9, 9 ** 7)
        assert peak < 3 * sweep.weights.nbytes, peak


# every W at N <= 5, the classical weight at N = 6, 7, and the order-1 weight (7, 0, ..., 0)
TRUSTED_CASES = [(n, w) for n in range(1, 6) for w in _compositions(n)] + [
    (6, (1,) * 6),
    (7, (1,) * 7),
    (7, (7,) + (0,) * 6),
]


class TestTrustedConstruction:
    """Classes, representatives and reports built from the sweep, by ``class_of``
    and by the witness constructions skip their own ``__post_init__`` checks
    (``characters._trusted_classes``); building the same objects with those
    checks must give equal objects."""

    def test_class_of(self):
        # three seeded zero-sum vectors for every W at N <= 6, as vectors and as tuples
        rng = random.Random(2402)
        for n in range(1, 7):
            for weights in _compositions(n):
                w = WeightVector(n, weights)
                for k in range(3):
                    head = [rng.randrange(n) for _ in range(n - 1)]
                    v = ResidueVector(n, tuple(head + [-sum(head) % n]))
                    c = class_of(v if k % 2 else v.entries, w)
                    assert c.representative == ResidueVector(n, c.representative.entries), (weights, v)
                    assert c == CharClass(w, canonical_representative(v, w)), (weights, v)

    def test_constructed_witnesses(self):
        built = 0
        for n in range(3, 7):
            for weights in _compositions(n):
                w = WeightVector(n, weights)
                if w.classical:
                    continue
                try:
                    c = construct_repeat_witness(n, w).char_class
                except WitnessConstructionError:
                    continue
                assert c == CharClass(w, ResidueVector(n, c.representative.entries)), weights
                built += 1
        assert built == 629 - 26
        for n in (6, 8, 9, 10):
            c = classical_repeat_class(n).char_class
            assert c == CharClass(classical_weight(n), ResidueVector(n, c.representative.entries)), n

    def test_enumerated_classes(self):
        for n, weights in TRUSTED_CASES:
            w = WeightVector(n, weights)
            for c in enumerate_classes(n, w):
                entries = c.representative.entries
                assert c.representative == ResidueVector(n, entries), (weights, c)
                assert c == CharClass(w, ResidueVector(n, entries)), (weights, c)

    @pytest.mark.parametrize("semantics", ["set", "indexed"])
    def test_scan_reports(self, semantics):
        for n, weights in TRUSTED_CASES:
            w = WeightVector(n, weights)
            for r in repeated_ht_scan(n, w, semantics):
                h = r.hodge
                checked = WitnessReport(
                    char_class=CharClass(w, ResidueVector(n, r.char_class.representative.entries)),
                    hodge=HodgeData(h.modulus, h.dimension, h.weights, h.semantics),
                    repeated_value=r.repeated_value,
                    multiplicity=r.multiplicity,
                    semantics_divergent=r.semantics_divergent,
                )
                assert r == checked, (weights, r)


class TestSweepCheck:
    """The checks behind the trusted construction: the array checks
    (``_bulk._check_canonical``, ``_bulk.decode_many``), which every
    canonicalisation and decode runs, so the tests above cover arrays they
    accept; and the scan's refusal of a flagged column with no repeat."""

    def _canonical_arrays(self):
        codes, _, member = _bulk.canonicalise(5, (1,) * 5, _transversal(5, (1,) * 5))
        return codes, member

    def test_duplicated_code_raises(self):
        codes, member = self._canonical_arrays()
        with pytest.raises(RuntimeError, match="strictly increasing"):
            _bulk._check_canonical(np.insert(codes, 7, codes[7]), np.insert(member, 7, member[:, 7], axis=1))

    def test_columns_out_of_order_raise(self):
        codes, member = self._canonical_arrays()
        swap = np.arange(len(codes))
        swap[[7, 8]] = [8, 7]
        with pytest.raises(RuntimeError, match="strictly increasing"):
            _bulk._check_canonical(codes[swap], member[:, swap])
        # member columns moved without their codes: class 7's members sit under class 8's code
        with pytest.raises(RuntimeError, match="least member"):
            _bulk._check_canonical(codes, member[:, swap])

    def test_decoded_row_off_zero_sum_raises(self):
        codes = self._canonical_arrays()[0]
        assert len(_bulk.decode_many(codes, 5)) == len(codes)
        # code 1 is (0, 0, 0, 0, 1), whose digits sum to 1 mod 5
        with pytest.raises(RuntimeError, match="zero-sum"):
            _bulk.decode_many(np.append(codes, 1), 5)

    def test_value_without_repeat_raises(self, monkeypatch):
        # a real sweep served with one more column flagged under both semantics, whose
        # weights have no repeat: at g = 3 only a column with no weight at all has none
        for weights in [(1,) * 6, (3, 3, 0, 0, 0, 0)]:
            sweep = _bulk.class_sweep(6, weights)
            flagged = tuple(mask.copy() for mask in sweep.flagged)
            column = int(np.flatnonzero(~flagged[True])[0])
            for mask in flagged:
                mask[column] = True
            bad = _bulk.ClassSweep(6, weights, sweep.g, sweep.at, sweep.weights, flagged)
            monkeypatch.setattr(_bulk, "sweep_for", lambda modulus, weight: bad)
            for semantics in ("set", "indexed"):
                with pytest.raises(RuntimeError, match="no repeated weight"):
                    repeated_ht_scan(6, WeightVector(6, weights), semantics)


class TestGcPaused:
    """``_bulk.gc_paused`` turns the cyclic collector off for its body and gives
    the caller's state back on every exit."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_reenabled_after_normal_exit(self):
        gc.enable()
        with _bulk.gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_reenabled_after_an_exception(self):
        # a decoded-row check that fails inside the pause: code 1 is (0, 0, 0, 0, 1)
        gc.enable()
        with pytest.raises(RuntimeError, match="zero-sum"):
            with _bulk.gc_paused():
                _bulk.decode_many(np.array([1]), 5)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self):
        gc.disable()
        with _bulk.gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with _bulk.gc_paused():
                raise RuntimeError
        assert not gc.isenabled()

    def test_nests(self):
        gc.enable()
        with _bulk.gc_paused():
            with _bulk.gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestBuildersPauseTheCollector:
    """The bulk builders build one object per class or report with the cyclic
    collector paused.  With a warm sweep a call starts at most one collection,
    the gen-0 pass that the first allocation after the pause starts, and no
    gen-2 pass; with the collector on, ``repeated_ht_scan(7)`` starts 27 and
    ``enumerate_classes(7)`` 94."""

    @pytest.mark.parametrize("build,size", [
        (lambda: repeated_ht_scan(7), 3920),
        (lambda: enumerate_classes(7), 7 ** 5),
        (lambda: repeated_class_representatives(7), 3920),
    ], ids=["repeated_ht_scan", "enumerate_classes", "repeated_class_representatives"])
    def test_at_most_one_collection(self, collections_started, build, size):
        build()
        result, started = collections_started(build)
        assert len(result) == size
        assert len(started) <= 1 and 2 not in started, started


def _recipe_report(cls, semantics):
    """The witness report of a class from the public per-class recipe: one
    ``hodge_data`` pass per semantics, through the checked constructors."""
    data = hodge_data(cls, semantics)
    repeats = data.repeated_values()
    if not repeats:
        return None
    other = hodge_data(cls, "indexed" if semantics == "set" else "set")
    return WitnessReport(
        char_class=CharClass(cls.weight, ResidueVector(cls.modulus, cls.representative.entries)),
        hodge=data,
        repeated_value=repeats[0],
        multiplicity=data.weights.count(repeats[0]),
        semantics_divergent=data.weights != other.weights,
    )


def _pivot_recipe(n, weights):
    """construct_repeat_witness's vector, rebuilt: 0 or 1 by gcd(w_i, N), the pivot forced."""
    pivot = weights.index(0)
    entries = [0 if gcd(w, n) == 1 else 1 for w in weights]
    entries[pivot] = 0
    entries[pivot] = -sum(entries) % n
    return tuple(entries), pivot


class TestOnePassRecipe:
    """``_witness_from_class`` reads the N shifts once for both semantics; a
    report built from one ``hodge_data`` pass per semantics is its oracle."""

    def test_constructed_witnesses(self):
        built = refused = 0
        for n in range(3, 7):
            for weights in _compositions(n):
                w = WeightVector(n, weights)
                if w.classical:
                    continue
                entries, pivot = _pivot_recipe(n, weights)
                if entries[pivot] == 0:
                    with pytest.raises(WitnessConstructionError):
                        construct_repeat_witness(n, w)
                    refused += 1
                    continue
                report = construct_repeat_witness(n, w)
                assert report == _recipe_report(class_of(entries, w), "indexed"), weights
                built += 1
        # 629 non-classical W at N = 3..6; the refusal family, the permutations of
        # (0, 2, 1, ..., 1) at odd N, has 3! + 5!/3! of them
        assert (built, refused) == (629 - 26, 6 + 20)

    @pytest.mark.parametrize("semantics", ["set", "indexed"])
    def test_every_class_up_to_n4(self, semantics):
        for n in range(1, 5):
            for weights in _compositions(n):
                for c in enumerate_classes(n, WeightVector(n, weights)):
                    assert _witness_from_class(c, semantics) == _recipe_report(c, semantics), (
                        weights, semantics, c)

    @pytest.mark.parametrize("n", [6, 8, 9, 10])
    def test_classical_repeat_class(self, n):
        seed = (0, 0, 0, 2, 2, 2) if n == 6 else (4, n - 2, n - 2) + (0,) * (n - 3)
        assert classical_repeat_class(n) == _recipe_report(class_of(seed, classical_weight(n)), "set")
