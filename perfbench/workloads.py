"""The three workloads: their seeded inputs, their operations and their checks.

An operation is one call sequence a user would make through the public
API, always with workers=1.  Before every operation the runner clears every
cache in the library (`clear_caches`), so each one starts from the state a
fresh command-line call starts from; see README.md for what that costs.

Each call into a layer sits in a span of the recorder it is given (a no-op
when tracing is off), named `<module>.<function>`, with the work the call
must do attached as computed by the benchmark, not by the library.
"""

import random
import sys
from dataclasses import dataclass
from math import gcd
from typing import Callable

from dworklab import counting, hodge
from dworklab.characters import WeightVector, classical_weight

import reference


@dataclass(frozen=True)
class Op:
    run: Callable  # run(rec, *args) -> output; raises when the operation fails
    args: tuple


def clear_caches() -> None:
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("dworklab"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _classes(n: int, w: WeightVector) -> int:
    """Number of classes N^(N-1) / ord(W) that a scan over W walks."""
    g = n
    for e in w.entries:
        g = gcd(g, e)
    return n ** (n - 1) // (n // g)


def _candidates(q: int, n: int) -> int:
    return (q ** n - 1) // (q - 1)


# ---------------------------------------------------------------------------
# operations


def trace_op(rec, q: int, n: int, t: int, w: WeightVector):
    with rec.span("counting.field_make"):
        field = counting.field_make(q, 1)
    with rec.span("counting.FiberSpec"):
        spec = counting.FiberSpec(n, w, t, field)
    with rec.span("counting.count_projective_fast", torus_tuples=(q - 1) ** (n - 2)):
        fc = counting.count_projective_fast(spec, workers=1)
    with rec.span("counting.middle_trace"):
        a = counting.middle_trace(fc.projective_count, q, n)
    with rec.span("counting.weil_bound_ok"):
        ok = counting.weil_bound_ok(a, q, n)
    return fc.projective_count, a, ok


def tower_op(rec, p: int, levels: int, n: int, t: int, w: WeightVector):
    # build every level's field here, so that field construction gets its own
    # spans; tower_counts then finds them in field_make's cache
    fields = []
    for m in range(1, levels + 1):
        with rec.span("counting.field_make"):
            fields.append(counting.field_make(p, m))
    with rec.span("counting.FiberSpec"):
        spec = counting.FiberSpec(n, w, t, fields[0])
    work = sum(_candidates(p ** m, n) for m in range(1, levels + 1))
    with rec.span("counting.tower_counts", candidates=work):
        counts = counting.tower_counts(spec, levels, workers=1)
    return tuple((c.spec.field.q, c.projective_count, c.trace) for c in counts)


def witness_op(rec, n: int, w: WeightVector):
    try:
        with rec.span("hodge.construct_repeat_witness"):
            rep = hodge.construct_repeat_witness(n, w)
    except hodge.WitnessConstructionError:
        with rec.span("hodge.repeated_class_representatives", classes=_classes(n, w)):
            return ("refused", hodge.repeated_class_representatives(n, w, "indexed"))
    with rec.span("hodge.scan_contains", classes=_classes(n, w)):
        found = hodge.scan_contains(rep.char_class, "indexed")
    return ("built", rep, found)


def sweep_op(rec, n: int, weights: tuple[WeightVector, ...]):
    """witness_op for every W of one N in turn, as one operation.

    Single-W operations at N <= 6 last 1 to 3 ms, and on a shared machine
    their median moved by up to half between rounds; one sweep per N keeps
    them in wall_s and leaves op_p50_s to the 23 ms N = 7 operations.
    """
    return [witness_op(rec, n, w) for w in weights]


def report_op(rec, n: int, w: WeightVector):
    with rec.span("hodge.repeated_ht_scan", classes=_classes(n, w)) as span:
        reports = hodge.repeated_ht_scan(n, w, "indexed")
    if span is not None:
        span["reports"] = len(reports)
    return reports


def digest(op: Op, out):
    """A plain value equal for equal outputs, to compare rounds with the checked first one."""
    if op.run is sweep_op:
        return tuple(digest(Op(witness_op, (op.args[0], w)), o) for w, o in zip(op.args[1], out))
    if op.run is witness_op:
        if out[0] == "built":
            rep = out[1]
            return ("built", rep.char_class.representative.entries, rep.repeated_value,
                    rep.multiplicity, out[2])
        return out
    if op.run is report_op:
        return tuple((r.char_class.representative.entries, r.repeated_value, r.multiplicity)
                     for r in out)
    return out


# ---------------------------------------------------------------------------
# inputs

FULL = {
    # N = 5 primes: 101, 131 and 181 are 1 mod 5 (one seeded mu_5-orbit of t
    # each), 103, 157 and 229 are not (one seeded t each).  Up to 157,
    # (q-1)^3 <= 2^22 and the torus sweep is one chunk; 181 and 229 need two
    # and three chunks.
    "trace_primes": (101, 103, 131, 157, 181, 229),
    "trace_small": ((7, 11), (7, 13)),  # (N, q), brute-forced in full
    "failing": (9, 7, 3),  # (N, q, t): the count finishes, weil_bound_ok raises
    "brute_extra": (11, 31),  # N = 5 primes for the extra brute-force check
    # (p, levels) of the Hesse cubics; 13 is the only p = 1 mod 3, so the only
    # one with a mu_3-orbit of three t; its three ops sit mid-batch by cost
    "tower_cubics": ((5, 3), (13, 3), (17, 2), (29, 2), (41, 2), (47, 2)),
    "tower_quintic_levels": 2,  # F_11 -> F_121
    "sweep_n": (3, 4, 5, 6),
    "sample7_per_type": 2,
    "report_classical": (5, 6, 7),
    "report_types": ((7, (0, 1, 1, 1, 1, 1, 2)), (7, (0, 0, 0, 0, 0, 1, 6))),
    "probes": 9,
}

SMOKE = {
    "trace_primes": (11, 13),
    "trace_small": ((7, 11),),
    "failing": (9, 7, 3),
    "brute_extra": (11,),
    "tower_cubics": ((5, 3), (7, 2)),
    "tower_quintic_levels": 1,
    "sweep_n": (3, 4, 5),
    "sample7_per_type": 0,
    "report_classical": (5, 6),
    "report_types": ((5, (0, 1, 1, 1, 2)),),
    "probes": 2,
}


def _smooth(q: int, n: int) -> list[int]:
    return [t for t in range(1, q) if pow(t, n, q) != 1]


def orbit_key(q: int, n: int, t: int) -> int:
    return min(t * z % q for z in reference.mu(q, n))


def seeded_orbit(rng: random.Random, q: int, n: int) -> list[int]:
    """The mu_N-orbit {t*z} of a seeded smooth nonzero t; one element unless q = 1 mod N."""
    t0 = rng.choice(_smooth(q, n))
    return sorted({t0 * z % q for z in reference.mu(q, n)})


def traces_inputs(rng: random.Random, size: dict) -> list[Op]:
    w5 = classical_weight(5)
    ops = []
    for q in size["trace_primes"]:
        ops += [Op(trace_op, (q, 5, t, w5)) for t in seeded_orbit(rng, q, 5)]
    for n, q in size["trace_small"]:
        ops.append(Op(trace_op, (q, n, rng.choice(_smooth(q, n)), classical_weight(n))))
    n, q, t = size["failing"]
    ops.append(Op(trace_op, (q, n, t, classical_weight(n))))
    return ops


def towers_inputs(rng: random.Random, size: dict) -> list[Op]:
    w3, w5 = classical_weight(3), classical_weight(5)
    ops = [Op(tower_op, (p, levels, 3, t, w3))
           for p, levels in size["tower_cubics"] for t in seeded_orbit(rng, p, 3)]
    # the only mu_5-orbit of nonzero smooth t in F_11 is {2, 6, 7, 8, 10}
    levels = size["tower_quintic_levels"]
    ops += [Op(tower_op, (11, levels, 5, t, w5)) for t in (2, 6, 7, 8, 10)]
    return ops


def _compositions(n: int):
    def rec(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rec(total - first, parts - 1):
                yield (first,) + rest
    return rec(n, n)


def _weight_types(n: int) -> list[tuple[int, ...]]:
    """The non-classical weight vectors of length n, up to order (sorted descending)."""
    return sorted({tuple(sorted(w, reverse=True)) for w in _compositions(n)} - {(1,) * n})


def _arrangements(rng: random.Random, entries: tuple, count: int) -> list[tuple]:
    """`count` distinct seeded rearrangements of `entries`."""
    out = []
    while len(out) < count:
        perm = list(entries)
        rng.shuffle(perm)
        if tuple(perm) not in out:
            out.append(tuple(perm))
    return out


def witnesses_inputs(rng: random.Random, size: dict) -> list[Op]:
    ops = [Op(sweep_op, (n, tuple(WeightVector(n, w) for w in _compositions(n) if w != (1,) * n)))
           for n in size["sweep_n"]]
    # a seeded sample of N = 7 weights: rearrangements of each sorted type,
    # so the sample's make-up (and its cost) does not depend on the seed
    for kind in _weight_types(7):
        ops += [Op(witness_op, (7, WeightVector(7, w)))
                for w in _arrangements(rng, kind, size["sample7_per_type"])]
    ops += [Op(report_op, (n, classical_weight(n))) for n in size["report_classical"]]
    ops += [Op(report_op, (n, WeightVector(n, _arrangements(rng, kind, 1)[0])))
            for n, kind in size["report_types"]]
    return ops


INPUTS = {"traces": traces_inputs, "towers": towers_inputs, "witnesses": witnesses_inputs}


def make(workload: str, seed: int, smoke: bool) -> tuple[list[Op], dict]:
    size = SMOKE if smoke else FULL
    rng = random.Random(f"{workload}:{seed}")
    return INPUTS[workload](rng, size), size


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when all hold


def _check_traces(ops, outputs, size, rng):
    failures = []
    orbits: dict = {}
    for op, out in zip(ops, outputs):
        q, n, t, w = op.args
        if out is None:
            continue
        count, a, ok = out
        tag = f"traces N={n} q={q} t={t}"
        if a != reference.middle_trace(count, q, n):
            failures.append(f"{tag}: trace {a} does not match count {count}")
        if not (ok and reference.weil_ok(a, q, n)):
            failures.append(f"{tag}: a_q = {a} fails the Weil bound (library says {ok})")
        if q ** (n - 1) <= 5_000_000 and count != reference.brute_force_count(q, n, w.entries, t):
            failures.append(f"{tag}: count {count} differs from the brute-force count")
        orbits.setdefault((q, n, orbit_key(q, n, t)), set()).add(count)
    for (q, n, key), counts in orbits.items():
        if len(counts) != 1:
            failures.append(f"traces N={n} q={q}: counts {sorted(counts)} differ across the orbit of t={key}")
    # the independent brute-force counter against the fast counter at small q
    w5 = classical_weight(5)
    for q in size["brute_extra"]:
        t = rng.choice(_smooth(q, 5))
        fast = counting.count_projective_fast(counting.FiberSpec(5, w5, t, counting.field_make(q, 1)))
        if fast.projective_count != reference.brute_force_count(q, 5, w5.entries, t):
            failures.append(f"traces N=5 q={q} t={t}: fast count differs from the brute-force count")
    # the naive counter at the smallest N = 5 prime of the workload
    first = next((op, out) for op, out in zip(ops, outputs) if op.args[1] == 5 and out is not None)
    q, n, t, w = first[0].args
    naive = counting.count_projective_naive(counting.FiberSpec(n, w, t, counting.field_make(q, 1)))
    if naive.projective_count != first[1][0]:
        failures.append(f"traces N={n} q={q} t={t}: naive count {naive.projective_count} "
                        f"differs from fast count {first[1][0]}")
    return failures


def _check_towers(ops, outputs, size, rng):
    failures = []
    orbits: dict = {}
    for op, out in zip(ops, outputs):
        p, levels, n, t, w = op.args
        if out is None:
            continue
        tag = f"towers N={n} p={p} t={t}"
        qs = [q for q, _, _ in out]
        traces = [a for _, _, a in out]
        if qs != [p ** m for m in range(1, levels + 1)]:
            failures.append(f"{tag}: levels {qs}, expected powers of {p} up to {levels}")
            continue
        for q, count, a in out:
            if a != reference.middle_trace(count, q, n):
                failures.append(f"{tag}: trace {a} over GF({q}) does not match count {count}")
            if not reference.weil_ok(a, q, n):
                failures.append(f"{tag}: a = {a} over GF({q}) fails the Weil bound")
        if n == 3 and not reference.genus_one_tower_ok(p, traces):
            failures.append(f"{tag}: traces {traces} break a_(q^2) = a^2 - 2q, a_(q^3) = a^3 - 3qa")
        spec = counting.FiberSpec(n, w, t, counting.field_make(p, 1))
        if out[0][1] != counting.count_projective_fast(spec).projective_count:
            failures.append(f"{tag}: level 1 differs from count_projective_fast")
        if out[0][1] != reference.brute_force_count(p, n, w.entries, t):
            failures.append(f"{tag}: level 1 differs from the brute-force count")
        orbits.setdefault((p, n, orbit_key(p, n, t)), set()).add(tuple(c for _, c, _ in out))
    for (p, n, key), counts in orbits.items():
        if len(counts) != 1:
            failures.append(f"towers N={n} p={p}: tower counts {sorted(counts)} differ across the orbit of t={key}")
    return failures


def _sample(items, limit: int):
    step = max(1, len(items) // limit)
    return items[::step]


def _check_class(tag, entries, w, repeated_value=None, multiplicity=None, weights=None):
    """Failures for one reported class, recomputed in plain Python."""
    out = []
    if sum(entries) % len(entries) or reference.canonical(entries, w) != tuple(entries):
        out.append(f"{tag}: {entries} is not a canonical zero-sum representative")
    repeat = reference.repeat_of(tuple(entries), w)
    if repeat is None:
        out.append(f"{tag}: class {entries} has no repeated indexed weight")
    elif repeated_value is not None and repeat != (repeated_value, multiplicity):
        out.append(f"{tag}: class {entries} states repeat {(repeated_value, multiplicity)}, "
                   f"recomputed {repeat}")
    if weights is not None and list(weights) != reference.indexed_weights(tuple(entries), w):
        out.append(f"{tag}: class {entries} states weights {weights}")
    return out


def _check_witnesses(ops, outputs, size, rng):
    failures = []
    items = []  # (run, N, W, output) for every single-W result
    for op, out in zip(ops, outputs):
        if op.run is sweep_op and out is not None:
            items += [(witness_op, op.args[0], w, o) for w, o in zip(op.args[1], out)]
        elif out is not None:
            items.append((op.run, *op.args, out))
    for run, n, w, out in items:
        tag = f"witnesses N={n} W={w.entries}"
        if run is witness_op and out[0] == "built":
            rep, found = out[1], out[2]
            if reference.is_refusal_family(w.entries):
                failures.append(f"{tag}: built a witness inside the documented refusal family")
            failures += _check_class(tag, rep.char_class.representative.entries, w.entries,
                                     rep.repeated_value, rep.multiplicity, rep.hodge.weights)
            if not found:
                failures.append(f"{tag}: scan_contains does not report the built witness")
        elif run is witness_op:
            reps = out[1]
            if not reference.is_refusal_family(w.entries):
                failures.append(f"{tag}: refused outside the documented refusal family")
            if bool(reps) != (n > 3):
                failures.append(f"{tag}: refused, and the scan lists {len(reps)} repeated classes")
            for entries in _sample(reps, 20):
                failures += _check_class(tag, entries, w.entries)
        else:
            reps = [r.char_class.representative.entries for r in out]
            if reps != sorted(set(reps)):
                failures.append(f"{tag}: reports are not in strict representative order")
            if w.classical and n == 5 and out:
                failures.append(f"{tag}: the classical N=5 scan reports {len(out)} classes, expected none")
            if w.classical and n == 6 and set(reps) != reference.classical_repeat_classes(6):
                failures.append(f"{tag}: {len(reps)} reports, brute force finds "
                                f"{len(reference.classical_repeat_classes(6))} classes")
            for r in _sample(list(out), 50):
                failures += _check_class(tag, r.char_class.representative.entries, w.entries,
                                         r.repeated_value, r.multiplicity, r.hodge.weights)
    return failures


CHECKS = {"traces": _check_traces, "towers": _check_towers, "witnesses": _check_witnesses}


def check(workload: str, seed: int, ops, outputs, size) -> list[str]:
    rng = random.Random(f"{workload}:{seed}:check")
    return CHECKS[workload](ops, outputs, size, rng)

