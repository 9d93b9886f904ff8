"""Command-line interface: payloads, formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from dworklab import cli
from dworklab.characters import (
    WeightVector,
    class_of,
    classical_weight,
    coset_elements,
    enumerate_classes,
    orbit_normal_form,
    zero_dominant_form,
)
from dworklab.cli import _class_row, _classical_table, main
from dworklab.hodge import hodge_data, totally_nonzero_representatives

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def walk_numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from walk_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk_numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


class TestClasses:
    def test_count(self, capsys):
        doc = run_json(["classes", "--N", "5"], capsys)
        assert doc["payload"]["count"] == 125
        assert len(doc["payload"]["classes"]) == 125
        assert doc["W"] == [1, 1, 1, 1, 1]

    def test_orbits(self, capsys):
        doc = run_json(["classes", "--N", "5", "--orbits"], capsys)
        orbits = doc["payload"]["orbits"]
        assert doc["payload"]["orbit_count"] == len(orbits) == 6
        assert sum(o["size"] for o in orbits) == 125

    def test_bad_weight_sum_exits_2(self, capsys):
        code, _, err = run(["classes", "--N", "5", "--W", "1,1,1,1,2"], capsys)
        assert code == 2
        assert "sum" in err

    def test_past_row_limit_exits_4(self, capsys):
        # the transversal of N = 10 has 10^8 rows, and that of W = (10,0,...,0),
        # of order 1, 10^9: over the 10 M row limit, refused before allocation,
        # like a count over the work budget
        for argv, rows in [(["classes", "--N", "10"], 10 ** 8),
                           (["hodge", "--N", "10", "--W", "10" + ",0" * 9], 10 ** 9)]:
            code, out, err = run(argv, capsys)
            assert code == 4 and out == ""
            assert f"needs {rows} rows, over the limit of 10000000" in err

    def test_built_with_collector_paused(self, capsys, collections_started):
        # 16,807 classes, their rows and the JSON text: at most the one gen-0 pass
        # that the first allocation after the pause starts (119 with the collector on)
        run(["classes", "--N", "7"], capsys)
        (code, out, _), started = collections_started(lambda: run(["classes", "--N", "7"], capsys))
        assert code == 0 and json.loads(out)["payload"]["count"] == 7 ** 5
        assert len(started) <= 1 and 2 not in started, started

    def test_orbits_need_classical(self, capsys):
        code, _, _ = run(["classes", "--N", "4", "--W", "2,2,0,0", "--orbits"], capsys)
        assert code == 2

    def test_general_weight_count(self, capsys):
        doc = run_json(["classes", "--N", "4", "--W", "2,2,0,0"], capsys)
        assert doc["payload"]["count"] == 32


class TestHodge:
    def test_single_class(self, capsys):
        doc = run_json(["hodge", "--N", "5", "--v", "0,0,1,1,3"], capsys)
        p = doc["payload"]
        assert p["dimension"] == 2
        assert p["weights"] == [1, 2]
        assert p["totally_nonzero"] == [[1, 1, 2, 2, 4], [3, 3, 4, 4, 1]]
        assert len(p["coset"]) == 5

    def test_table_has_eight_rows(self, capsys):
        doc = run_json(["hodge", "--N", "5"], capsys)
        rows = doc["payload"]["rows"]
        assert len(rows) == 8
        assert doc["payload"]["total_dimension"] == 204
        by_rep = {tuple(r["representative"]): r for r in rows}
        assert by_rep[(0, 0, 0, 0, 0)]["weights"] == [0, 1, 2, 3]
        assert by_rep[(0, 1, 2, 3, 4)]["dimension"] == 0
        assert by_rep[(0, 0, 2, 4, 4)]["totally_nonzero"] == [[2, 2, 4, 1, 1], [4, 4, 1, 3, 3]]

    def test_classical_table_past_class_limit(self, capsys):
        # the classical table reads sorted vectors, not the 10^8 classes
        p = run_json(["hodge", "--N", "10"], capsys)["payload"]
        assert len(p["rows"]) == 1290
        assert p["total_dimension"] == 348_678_441

    def test_classical_table_refused_before_first_row(self, capsys, monkeypatch):
        # C(27, 14) sorted 14-tuples are over the row limit: refused before any class
        def no_class(*args):
            raise AssertionError("a class was built")

        monkeypatch.setattr(cli, "class_of", no_class)
        code, out, err = run(["hodge", "--N", "14"], capsys)
        assert code == 4 and out == ""
        # what is refused is the filter over sorted tuples, not a class enumeration
        assert "the classical table's filter over sorted 14-tuples needs 20058300 rows" in err
        assert "class enumeration" not in err

    def test_nonzero_sum_vector_exits_2(self, capsys):
        code, _, err = run(["hodge", "--N", "5", "--v", "0,0,1,1,1"], capsys)
        assert code == 2

    def test_nonclassical_table_lists_both_semantics(self, capsys):
        doc = run_json(["hodge", "--N", "4", "--W", "2,2,0,0"], capsys)
        rows = doc["payload"]["rows"]
        assert len(rows) == 32
        assert all("weights_indexed" in r for r in rows)


def _weights(n):
    """Every weight vector at N = n: n non-negative entries summing to n."""
    return [w for w in product(range(n + 1), repeat=n) if sum(w) == n]


def _sample_weights(n, k, seed):
    """k seeded non-classical weight vectors at N = n, by stars and bars."""
    rng = random.Random(seed)
    sample = set()
    while len(sample) < k:
        bars = sorted(rng.sample(range(2 * n - 1), n - 1))
        weights = tuple(b - a - 1 for a, b in zip([-1] + bars, bars + [2 * n - 1]))
        if weights != (1,) * n:
            sample.add(weights)
    return sorted(sample)


def _check_row(row, cls, indexed):
    """A table row against the per-class oracle: ``hodge_data`` under both
    semantics and ``totally_nonzero_representatives``."""
    data = hodge_data(cls, "set")
    assert row["representative"] == list(cls.representative.entries)
    assert row["dimension"] == data.dimension
    assert row["weights"] == list(data.weights)
    assert row["totally_nonzero"] == [list(m.entries) for m in totally_nonzero_representatives(cls)]
    if indexed:
        assert row["weights_indexed"] == list(hodge_data(cls, "indexed").weights)
    else:
        assert "weights_indexed" not in row


def _check_hodge_table(n, weights, capsys, sample=None):
    """Every row of ``hodge --N n --W weights`` (a seeded ``sample`` of them when
    given) against the oracle; non-classical rows run over the classes in order."""
    w = WeightVector(n, weights)
    rows = run_json(["hodge", "--N", str(n), "--W", ",".join(map(str, weights))], capsys)["payload"]["rows"]
    if w.classical:
        for row in rows:
            _check_row(row, class_of(row["representative"], w), indexed=False)
        return
    classes = enumerate_classes(n, w)
    assert [r["representative"] for r in rows] == [list(c.representative.entries) for c in classes]
    picks = range(len(rows)) if sample is None else random.Random(sample).sample(range(len(rows)), 300)
    for i in picks:
        _check_row(rows[i], classes[i], indexed=True)


class TestRowsMatchOracle:
    """The hodge and report rows are built from one pass over each coset
    (``hodge._read_coset``); the per-class recipe ``hodge_data`` and
    ``totally_nonzero_representatives`` are their oracle.  Weights with
    gcd(N, W) > 1, such as (2,2,0,0) and (3,3,0,0,0,0), have indexed weights
    that differ from the set ones."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_weight(self, n, capsys):
        for weights in _weights(n):
            _check_hodge_table(n, weights, capsys)

    @pytest.mark.parametrize("weights", [(1,) * 6, (3, 3, 0, 0, 0, 0)] + _sample_weights(6, 4, 2403),
                             ids=lambda w: ",".join(map(str, w)))
    def test_n6_sample(self, weights, capsys):
        _check_hodge_table(6, weights, capsys)

    @pytest.mark.parametrize("weights", [(1,) * 7] + _sample_weights(7, 2, 2404),
                             ids=lambda w: ",".join(map(str, w)))
    def test_n7_sample(self, weights, capsys):
        _check_hodge_table(7, weights, capsys, sample=2405)

    def test_single_class_rows(self, capsys):
        # hodge --v: the row of one class, with both weight semantics and its coset
        rng = random.Random(2406)
        for weights in [(1,) * 6, (3, 3, 0, 0, 0, 0), (2, 2, 2, 0, 0, 0)]:
            w = WeightVector(6, weights)
            for cls in rng.sample(enumerate_classes(6, w), 20):
                v = ",".join(map(str, cls.representative.entries))
                p = run_json(["hodge", "--N", "6", "--W", ",".join(map(str, weights)), "--v", v],
                             capsys)["payload"]
                assert p.pop("coset") == [list(m.entries) for m in coset_elements(cls)]
                _check_row(p, cls, indexed=True)

    def test_report(self, capsys):
        p = run_json(["report"], capsys)["payload"]
        w = classical_weight(5)
        for row in p["class_table"]:
            _check_row(row, class_of(row["representative"], w), indexed=False)
        census = Counter(hodge_data(c, "set").dimension for c in enumerate_classes(5, w))
        assert p["dimension_census"] == {str(d): census[d] for d in sorted(census)}


def _oracle_table(n):
    """The classical table the long way: ``zero_dominant_form`` of every class,
    deduped and sorted, each row with the orbit normal form of the first class
    that has that form."""
    w = classical_weight(n)
    rows = {}
    for cls in enumerate_classes(n, w):
        form = zero_dominant_form(cls).entries
        if form not in rows:
            row = _class_row(class_of(form, w))
            row["orbit_normal_form"] = list(orbit_normal_form(cls).entries)
            rows[form] = row
    return {form: rows[form] for form in sorted(rows)}


@lru_cache(maxsize=None)
def _table(n):
    return _classical_table(classical_weight(n))


class TestClassicalTable:
    """``cli._classical_table`` keeps the sorted zero-sum vectors in which 0 is a
    most frequent entry; the zero-dominant forms of all classes are its oracle."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_class_loop(self, n):
        assert list(_table(n).items()) == list(_oracle_table(n).items())

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_keys_are_their_forms(self, n):
        w = classical_weight(n)
        for s in _table(n):
            assert list(s) == sorted(s) and sum(s) % n == 0
            assert zero_dominant_form(class_of(s, w)).entries == s

    def test_row_counts(self):
        assert [len(_table(n)) for n in range(1, 12)] == \
            [1, 1, 2, 3, 8, 19, 49, 142, 414, 1290, 4044]


class TestWitness:
    def test_n6_classical(self, capsys):
        doc = run_json(["witness", "--N", "6"], capsys)
        p = doc["payload"]
        assert p["constructed"]["class"] == [0, 0, 0, 2, 2, 2]
        assert p["constructed"]["multiplicity"] >= 2
        assert p["agreement"] == 1

    def test_n5_classical_none_found(self, capsys):
        doc = run_json(["witness", "--N", "5"], capsys)
        p = doc["payload"]
        assert p["constructed"] is None
        assert p["scan"]["repeated_class_count"] == 0
        assert any("no repeated-weight class exists" in w for w in doc["warnings"])

    def test_n7_classical_scan_finds_classes(self, capsys):
        # no construction exists for N=7, but the scan does find witnesses
        doc = run_json(["witness", "--N", "7"], capsys)
        p = doc["payload"]
        assert p["constructed"] is None
        assert p["scan"]["repeated_class_count"] > 0

    def test_constructed_general_weight(self, capsys):
        doc = run_json(["witness", "--N", "6", "--W", "3,3,0,0,0,0"], capsys)
        p = doc["payload"]
        assert p["constructed"]["class"] == [1, 1, 1, 1, 1, 1]
        assert p["agreement"] == 1

    def test_degenerate_weight_falls_back_to_scan(self, capsys):
        doc = run_json(["witness", "--N", "5", "--W", "0,2,1,1,1"], capsys)
        p = doc["payload"]
        assert p["constructed"] is None
        assert "pivot" in p["construction_error"]
        assert p["scan"]["repeated_class_count"] > 0

    def test_n_below_3_exits_2(self, capsys):
        code, out, err = run(["witness", "--N", "2"], capsys)
        assert code == 2 and out == ""
        assert err == "error: witness requires N >= 3\n"

    def test_scan_past_row_limit_skipped(self, capsys):
        # the transversal of N = 10 has 10^8 rows, over the 10 M row limit
        doc = run_json(["witness", "--N", "10"], capsys)
        p = doc["payload"]
        assert p["constructed"]["class"] == [0, 4, 4, 6, 6, 6, 6, 6, 6, 6]
        assert p["scan"]["checked"] == 0
        assert "100000000 rows, over the limit of 10000000" in p["scan"]["reason"]
        assert p["agreement"] is None
        assert any(w.startswith("scan skipped: ") for w in doc["warnings"])

    def test_n9_order3_scan_refused_under_memory_cap(self):
        # (3,3,3,0,...,0) at N = 9 has 3 * 9^7 classes, a sweep of about 0.6 GB;
        # run apart under a 1 GiB address-space cap, so that admitting it fails
        # here instead of exhausting the machine's memory
        resource = pytest.importorskip("resource")
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from dworklab.cli import main; "
             "sys.exit(main(['witness', '--N', '9', '--W', '3,3,3,0,0,0,0,0,0']))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 0, proc.stderr
        scan = json.loads(proc.stdout)["payload"]["scan"]
        assert scan["checked"] == 0
        assert scan["reason"].startswith("class enumeration for modulus 9 needs ")
        assert " rows, over the limit of " in scan["reason"]

    def test_builds_only_printed_reports(self, capsys, monkeypatch):
        # the count and the agreement come from the sweep's flag mask: N = 8 builds the
        # constructed witness and the 50 printed scan reports, not all 125,475; each
        # scan report's representative is one decoded row, and no other row is decoded
        from dworklab import _bulk, hodge

        checked, decoded = [], []
        checked_init, decode_many = hodge.WitnessReport.__post_init__, _bulk.decode_many

        def counting_init(report):
            checked.append(report)
            checked_init(report)

        def counting_decode(codes, modulus):
            decoded.append(len(codes))
            return decode_many(codes, modulus)

        monkeypatch.setattr(hodge.WitnessReport, "__post_init__", counting_init)
        monkeypatch.setattr(_bulk, "decode_many", counting_decode)
        p = run_json(["witness", "--N", "8"], capsys)["payload"]
        assert p["scan"]["repeated_class_count"] == 125_475
        assert len(p["scan"]["repeated_classes"]) == 50
        assert p["agreement"] == 1
        assert len(checked) == 1 and decoded == [50]


class TestCount:
    def test_singular_t_exits_3(self, capsys):
        code, _, err = run(["count", "--N", "5", "--p", "11", "--t", "1"], capsys)
        assert code == 3
        assert "smooth" in err

    def test_all_fifth_roots_exit_3(self, capsys):
        for t in (1, 3, 4, 5, 9):
            code, _, _ = run(["count", "--N", "5", "--p", "11", "--t", str(t)], capsys)
            assert code == 3, t

    def test_nonclassical_cone_exits_3(self, capsys):
        # W = (3,0,0) over F_7: t = 5 makes (1-3t)x^3 + y^3 + z^3 = 0 a cone,
        # while t = 1 gives a smooth cubic within the Weil bound
        code, out, err = run(["count", "--N", "3", "--W", "3,0,0", "--p", "7", "--t", "5",
                              "--format", "text"], capsys)
        assert code == 3 and out == ""
        assert "singular" in err
        doc = run_json(["count", "--N", "3", "--W", "3,0,0", "--p", "7", "--t", "1"], capsys)
        fiber = doc["payload"]["fibers"][0]
        assert fiber["weil_bound_ok"] == 1 and fiber["lefschetz_identity_ok"] == 1

    def test_paper_fiber_has_trace(self, capsys):
        # the P^5 member, N = 6, over F_13 at t = 2: -21131 = 7 mod 13, the
        # Hasse-Witt residue
        doc = run_json(["count", "--N", "6", "--p", "13", "--t", "2", "--strategy", "both"], capsys)
        fibers = doc["payload"]["fibers"]
        assert [f["strategy"] for f in fibers] == ["naive", "fast"]
        for f in fibers:
            assert (f["projective_count"], f["trace"]) == (9810, -21131)
            assert f["lefschetz_identity_ok"] == 1 and f["weil_bound_ok"] == 1
        assert doc["payload"]["strategies_agree"] == 1

    def test_bad_characteristic_exits_3(self, capsys):
        code, _, _ = run(["count", "--N", "5", "--p", "5", "--t", "2"], capsys)
        assert code == 3

    def test_fast_at_n1_exits_3(self, capsys):
        # a capability refusal, not a usage error; the naive counter finds no point
        code, out, err = run(["count", "--N", "1", "--p", "5", "--t", "2", "--strategy", "fast"],
                             capsys)
        assert code == 3 and out == ""
        assert err == "error: the stratified counter requires N >= 2\n"
        doc = run_json(["count", "--N", "1", "--p", "5", "--t", "2"], capsys)
        assert doc["payload"]["fibers"][0]["projective_count"] == 0

    def test_budget_exits_4(self, capsys):
        code, _, err = run(
            ["count", "--N", "5", "--p", "101", "--t", "2", "--budget", "1000"], capsys
        )
        assert code == 4
        assert "budget" in err

    def test_huge_prime_refused_by_budget(self):
        # the budget refusal comes before any allocation of size q; run apart
        # under a 1 GiB address-space cap, so that a regression fails here
        # instead of exhausting the machine's memory
        resource = pytest.importorskip("resource")
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from dworklab.cli import main; "
             "sys.exit(main(['count', '--N', '5', '--p', '1000000007', '--t', '2']))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 4, proc.stderr
        assert "budget" in proc.stderr

    def test_octic_at_211_counts_under_memory_cap(self):
        # refused by the budget while one coordinate came from the table
        # (3.3e9 candidates); k = 3 of them now, under a 1 GiB address-space
        # cap.  The trace is the Hasse-Witt residue mod p
        from test_counting import _hasse_witt_mod_p

        resource = pytest.importorskip("resource")
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from dworklab.cli import main; "
             "sys.exit(main(['count', '--N', '8', '--p', '211', '--t', '2', '--strategy', 'fast']))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 0, proc.stderr
        fiber = json.loads(proc.stdout)["payload"]["fibers"][0]
        assert fiber["projective_count"] == 88_666_463_738_208
        assert fiber["trace"] % 211 == _hasse_witt_mod_p(211, 8, 2) == 17
        assert fiber["weil_bound_ok"] == 1 and fiber["lefschetz_identity_ok"] == 1

    def test_prime_past_two_pow_20(self, capsys):
        # x^2 + y^2 = 4xy has 1 + (3 | p) points: the naive count builds its
        # field tables for q = 1048583 > 2^20
        p = 1048583
        doc = run_json(["count", "--N", "2", "--p", str(p), "--t", "2"], capsys)
        legendre = 1 if pow(3, (p - 1) // 2, p) == 1 else -1
        assert doc["payload"]["fibers"][0]["projective_count"] == 1 + legendre == 2

    def test_n9_fast_count_exits_0(self, capsys):
        doc = run_json(["count", "--N", "9", "--p", "2", "--t", "0", "--strategy", "fast"], capsys)
        fiber = doc["payload"]["fibers"][0]
        assert fiber["weil_bound_ok"] == 1
        assert fiber["lefschetz_identity_ok"] == 1

    def test_quotient_admits_n5_over_gf1331(self, capsys):
        # gcd(5, 1330) = 5: 266^3 torus tuples, within the default budget; a
        # sweep over all 1330^3 tuples gives the same count
        code, out, err = run(["count", "--N", "5", "--p", "11", "--m", "3", "--t", "2",
                              "--strategy", "fast", "--format", "text"], capsys)
        assert code == 0, err
        assert "points 2357035050" in out
        assert "weil ok" in out and "lefschetz ok" in out

    def test_quotient_admits_n6_over_gf343(self, capsys):
        # gcd(6, 342) = 6: 57^4 torus tuples, within the default budget; a
        # sweep over all 342^4 tuples gives the same count
        doc = run_json(["count", "--N", "6", "--p", "7", "--m", "3", "--t", "0,1,0",
                        "--strategy", "fast"], capsys)
        fiber = doc["payload"]["fibers"][0]
        assert (fiber["q"], fiber["t"]) == (343, 7)
        assert fiber["projective_count"] == 13797881856

    def test_both_strategies(self, capsys):
        doc = run_json(["count", "--N", "5", "--p", "11", "--t", "2", "--strategy", "both"], capsys)
        fibers = doc["payload"]["fibers"]
        assert len(fibers) == 2
        assert fibers[0]["projective_count"] == fibers[1]["projective_count"]
        assert {f["strategy"] for f in fibers} == {"naive", "fast"}
        assert doc["payload"]["strategies_agree"] == 1
        for f in fibers:
            assert f["lefschetz_identity_ok"] == 1
            assert f["weil_bound_ok"] == 1

    def test_extension_field_both_strategies(self, capsys):
        doc = run_json(["count", "--N", "5", "--p", "3", "--m", "2", "--t", "2",
                        "--strategy", "both"], capsys)
        fibers = doc["payload"]["fibers"]
        assert [f["strategy"] for f in fibers] == ["naive", "fast"]
        assert fibers[0]["projective_count"] == fibers[1]["projective_count"]
        assert doc["payload"]["strategies_agree"] == 1

    def test_tower(self, capsys):
        doc = run_json(["count", "--N", "5", "--p", "3", "--t", "2", "--tower", "2"], capsys)
        fibers = doc["payload"]["fibers"]
        assert [f["q"] for f in fibers] == [3, 9]
        assert all(f["lefschetz_identity_ok"] == 1 for f in fibers)
        assert [f["strategy"] for f in fibers] == ["fast", "fast"]
        doc = run_json(["count", "--N", "4", "--W", "2,2,0,0", "--p", "3", "--t", "0",
                        "--tower", "2"], capsys)
        fibers = doc["payload"]["fibers"]
        assert [f["strategy"] for f in fibers] == ["naive", "naive"]
        assert all(f["lefschetz_identity_ok"] == f["weil_bound_ok"] == 1 for f in fibers)

    def test_extension_coefficients(self, capsys):
        doc = run_json(["count", "--N", "5", "--p", "3", "--m", "2", "--t", "2,1"], capsys)
        fiber = doc["payload"]["fibers"][0]
        assert fiber["q"] == 9 and fiber["t"] == 5  # 2 + 1*3

    def test_workers_flag(self, capsys):
        doc1 = run_json(["count", "--N", "5", "--p", "11", "--t", "2"], capsys)
        workers = str(min(3, os.cpu_count() or 1))
        doc2 = run_json(["count", "--N", "5", "--p", "11", "--t", "2", "--workers", workers],
                        capsys)
        assert doc1["payload"]["fibers"][0]["projective_count"] == \
            doc2["payload"]["fibers"][0]["projective_count"]

    def test_workers_above_cpu_count_exits_2(self, capsys):
        too_many = str((os.cpu_count() or 1) + 1)
        code, out, err = run(["count", "--N", "3", "--p", "5", "--t", "2", "--workers", too_many],
                             capsys)
        assert code == 2
        assert out == "" and "--workers" in err

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exits_2(self, capsys, workers):
        code, out, err = run(["count", "--N", "3", "--p", "7", "--t", "3", "--workers", workers],
                             capsys)
        assert code == 2
        assert out == "" and "--workers" in err


class TestReport:
    def test_document(self, capsys):
        doc = run_json(["report"], capsys)
        p = doc["payload"]
        assert p["class_count"] == 125
        assert p["table_row_count"] == 8
        assert p["orbit_count"] == 6
        assert p["total_dimension"] == 204
        assert p["dimension_census"] == {"0": 24, "2": 100, "4": 1}
        by_rep = {tuple(r["representative"]): r for r in p["class_table"]}
        assert by_rep[(0, 0, 1, 1, 3)]["dual"] == [0, 0, 2, 4, 4]
        assert by_rep[(0, 0, 1, 2, 2)]["dual"] == [0, 0, 3, 3, 4]
        assert by_rep[(0, 0, 0, 1, 4)]["dual"] == [0, 0, 0, 1, 4]
        assert [[0, 0, 1, 1, 3], [0, 0, 2, 4, 4]] in p["duality_pairs"]


class TestInterface:
    def test_byte_identical_reruns(self, capsys):
        for argv in (
            ["report"],
            ["classes", "--N", "5", "--orbits"],
            ["witness", "--N", "6"],
            ["count", "--N", "5", "--p", "11", "--t", "2", "--strategy", "both"],
        ):
            _, out1, _ = run(argv, capsys)
            _, out2, _ = run(argv, capsys)
            assert out1.encode() == out2.encode(), argv

    def test_payload_numbers_are_integers(self, capsys):
        for argv in (
            ["report"],
            ["hodge", "--N", "5"],
            ["witness", "--N", "6", "--W", "3,3,0,0,0,0"],
            ["count", "--N", "5", "--p", "11", "--t", "2", "--strategy", "both"],
        ):
            doc = run_json(argv, capsys)
            for value in walk_numbers(doc["payload"]):
                assert isinstance(value, int), (argv, value)

    def test_text_format(self, capsys):
        code, out, _ = run(["hodge", "--N", "5", "--format", "text"], capsys)
        assert code == 0
        assert "total dimension 204" in out
        code, out, _ = run(["report", "--format", "text"], capsys)
        assert code == 0 and "6 orbits" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "doc.json"
        code, out, err = run(["hodge", "--N", "5", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["payload"]["total_dimension"] == 204

    @pytest.mark.parametrize("argv", [
        ["count", "--N", "5", "--p", "11", "--t", "2"],
        ["hodge", "--N", "6", "--W", "3,3,0,0,0,0"],
        ["report", "--format", "text"],
    ], ids=" ".join)
    def test_out_file_holds_stdout_bytes(self, argv, tmp_path, capsys):
        # the document names its argv, so a JSON file differs from stdout in "argv" only
        target = tmp_path / "doc"
        _, expected, _ = run(argv, capsys)
        out_argv = argv + ["--out", str(target)]
        code, out, err = run(out_argv, capsys)
        assert code == 0 and out == "" and err.endswith(f"# wrote {target}\n"), err
        if "text" not in argv:
            doc = json.loads(expected)
            doc["argv"] = out_argv
            expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert target.read_bytes() == expected.encode()

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_out_unwritable_exits_2(self, where, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run(["count", "--N", "5", "--p", "11", "--t", "2", "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith(f"error: cannot write --out {target}: "), err
        assert "Traceback" not in err

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([], capsys)[0] == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["classes", "--N", "5", "--frobnicate"], capsys)[0] == 2

    def test_argv_echoed(self, capsys):
        doc = run_json(["classes", "--N", "3"], capsys)
        assert doc["argv"] == ["classes", "--N", "3"]
        assert doc["schema_version"] == 1

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    def test_documents_validate_against_schema(self, capsys):
        import importlib.resources as resources

        schema = json.loads(
            resources.files("dworklab").joinpath("report_schema.json").read_text()
        )
        for argv in (
            ["classes", "--N", "5", "--orbits"],
            ["classes", "--N", "4", "--W", "2,2,0,0"],
            ["hodge", "--N", "5"],
            ["hodge", "--N", "5", "--v", "0,0,1,1,3"],
            ["witness", "--N", "6"],
            ["witness", "--N", "5"],
            ["count", "--N", "5", "--p", "11", "--t", "2", "--strategy", "both"],
            ["count", "--N", "5", "--p", "3", "--t", "2", "--tower", "2"],
            ["count", "--N", "5", "--p", "3", "--m", "2", "--t", "2", "--strategy", "both"],
            ["count", "--N", "6", "--p", "13", "--t", "2", "--strategy", "both"],
            ["count", "--N", "4", "--W", "2,2,0,0", "--p", "3", "--t", "0", "--tower", "2"],
            ["report"],
        ):
            doc = run_json(argv, capsys)
            jsonschema.validate(doc, schema)


# sha256 of the JSON stdout as printed when every class was built by CharClass's
# checking constructor; the documents name the tool version, so a version bump
# changes every hash
PINNED_OUTPUTS = {
    ("witness", "--N", "7"): "961b78adc121bd46e2c41bf2485ec71c3e4495607ff0b0625232c6bef895acb7",
    ("witness", "--N", "7", "--W", "0,0,6,0,1,0,0"):
        "dc40e91fe6c3c5eb6499a219cd736cc1c6f2c0aad48f3147d9bf4b9f5fbd8ac0",
    ("classes", "--N", "6"): "ce351cb9f6469f4e092ea0b6d478a81f85dc56153c8977f4f9e96c237021060a",
    ("hodge", "--N", "6"): "41e1bbd1f3c1415be1b5c071502f38260d8283e9e17275201f44f27bc5e58f7d",
    # printed when the classical table was read off every class's zero-dominant form
    ("hodge", "--N", "7"): "e990095ecbd30e88529f23e9ee928370dcd959e624ec5a7370408903f1a4bdfd",
    ("hodge", "--N", "8"): "87cfeebcc523d4ee91472984a43d8badf357ec229adb20738d7c1a18723ca6fb",
    ("hodge", "--N", "9"): "a2b439a1e56ab5fae47da6b7bee5aaa5f23278655d660dfbe1478e8b9d8a94b8",
    # weights with no unit entry; (2,0,0,0,3,1)'s only unit is its last entry
    ("classes", "--N", "6", "--W", "2,2,2,0,0,0"):
        "429130bd8a10559d51aff2b8ab2b31fc4fa0379f1719a3093084ceab83fbfe93",
    ("hodge", "--N", "6", "--W", "3,3,0,0,0,0"):
        "7510438b4a445db7724a87ea2d7665490f0b650721cda06286388d3de4af5db4",
    ("witness", "--N", "6", "--W", "2,0,0,0,3,1"):
        "48319d233c9d8ce8711e1c75ed73a08ca61121e2e79f2628a20b826dd5ad4a0a",
    ("witness", "--N", "7", "--W", "7,0,0,0,0,0,0"):
        "55549bc043d1318101b6c16a4a98acfab40d81e47c50011bf358b697f4c1beb5",
    # ord(W) = 3 and 2: g > 1, so every scanned report is divergent
    ("witness", "--N", "6", "--W", "2,2,2,0,0,0"):
        "6f0d4bca925bd61704c3f430dfc67d263c9c682078143be31e6f7710890aca93",
    ("witness", "--N", "6", "--W", "3,3,0,0,0,0"):
        "d97f1067178a7f9e871389155fc5203869270714f399e8bdb5ca60e4a2f13625",
}


# sha256 of the --format text stdout, one argv per command, as printed when
# one if-chain rendered every command
PINNED_TEXT_OUTPUTS = {
    ("classes", "--N", "5", "--orbits", "--format", "text"):
        "44334c79921e12a64b56042eab0f999a0d80d79ca310b124d0c949617e3e2d28",
    ("hodge", "--N", "5", "--format", "text"):
        "18e4ddd5cd413c604171110439d24494590ec7135487b69c79ea02a00f804f88",
    ("hodge", "--N", "5", "--v", "0,0,1,1,3", "--format", "text"):
        "57490e1463c7cfb4cfe882b986caf821fef9cde6f2dcc868f251ae512605cf81",
    ("witness", "--N", "6", "--format", "text"):
        "2fed2698856dfc1f38533930377d51f3cf9c22e1f7901412e12e5c16b59fe1fe",
    ("count", "--N", "5", "--p", "11", "--t", "2", "--strategy", "both", "--format", "text"):
        "499459dc085ac1839ccd4a0c75137b4bfd820a396b8f20744ce123c80e39b703",
    ("report", "--format", "text"):
        "3b1e3d79d0769c00a5e89e7c2f4153493905d94ad07f2ebc62e954857326046a",
}


ALL_PINNED = {**PINNED_OUTPUTS, **PINNED_TEXT_OUTPUTS}


@pytest.mark.parametrize("argv", sorted(ALL_PINNED), ids=" ".join)
def test_output_bytes_pinned(argv, capsys):
    code, out, err = run(list(argv), capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_PINNED[argv]
