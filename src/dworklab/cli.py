"""Command-line front end.

Subcommands
    classes   enumerate character classes, optionally grouped into orbits
    hodge     dimension / weight tables, or one class in detail
    witness   repeated-weight witnesses plus a brute-force scan cross-check
    count     exact fiber point counts, traces, bound checks, towers
    report    the full classical table document for N = 5

Every command accepts --format json|text, --workers (from 1 to the number of
CPUs), --budget and --out.
JSON goes to stdout (or the --out file), diagnostics to stderr.  Payloads
contain exact integers only, orderings are deterministic, and repeated runs
with the same flags produce byte-identical JSON (timings are therefore
reported on stderr, never in the document).

The classical ``hodge`` table and ``report``'s table read no class table: their
rows, the zero-dominant forms, are the sorted zero-sum vectors in which 0 is a
most frequent entry (``characters.zero_dominant_form``), filtered from the
C(2N-1, N) sorted N-tuples.

Exit codes: 0 success, 2 usage (an --out path that cannot be written
included, with nothing on stdout), 3 domain (smoothness / characteristic /
capability), 4 work budget or row limit exceeded (class table, or sorted tuples
of the classical table).

A command and the writing of its document run with the cyclic garbage
collector paused (``_bulk.gc_paused``): their row dicts, lists, classes and
JSON text are acyclic, and building them with the collector on starts a
collection every few hundred allocations.
"""

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement
from math import comb

from . import __version__, _bulk
from .characters import (
    CharClass,
    ResidueVector,
    WeightVector,
    class_of,
    classical_weight,
    enumerate_classes,
    orbit_normal_form,
    symmetric_orbits,
    zero_dominant_form,
)
from .hodge import (
    WitnessConstructionError,
    _read_coset,
    _scan,
    _scan_reports,
    classical_repeat_class,
    construct_repeat_witness,
    dual_class,
    total_dimension,
)
from .counting import (
    BudgetError,
    CapabilityError,
    CharacteristicError,
    DEFAULT_BUDGET,
    FiberSpec,
    SmoothnessError,
    count_projective_fast,
    count_projective_naive,
    field_make,
    tower_counts,
    weil_bound_ok,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


class UsageError(ValueError):
    pass


@dataclass
class ReportDocument:
    command: str
    argv: list[str]
    N: int
    W: tuple[int, ...]
    payload: dict
    warnings: list[str] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": "dworklab", "version": __version__},
            "command": self.command,
            "argv": list(self.argv),
            "N": self.N,
            "W": list(self.W),
            "payload": self.payload,
            "warnings": list(self.warnings),
        }


def _parse_vector(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _weight_from_args(n: int, w_text: str | None) -> WeightVector:
    if w_text is None:
        return classical_weight(n)
    entries = _parse_vector(w_text, "--W")
    try:
        return WeightVector(n, entries)
    except ValueError as exc:
        raise UsageError(f"bad --W: {exc}")


def _class_from_v(n: int, weight: WeightVector, v_text: str) -> CharClass:
    entries = _parse_vector(v_text, "--v")
    if len(entries) != n:
        raise UsageError(f"--v needs {n} entries, got {len(entries)}")
    try:
        vector = ResidueVector(n, tuple(e % n for e in entries))
    except ValueError as exc:
        raise UsageError(f"bad --v: {exc}")
    return class_of(vector, weight)


def _entries(v) -> list[int]:
    return list(v.entries if isinstance(v, (ResidueVector, WeightVector)) else v)


def _vec(v) -> str:
    """A vector as text: (a,b,c)."""
    return "(" + ",".join(map(str, v)) + ")"


def _multiset(weights) -> str:
    """A weight multiset as text: {a,b,c}."""
    return "{" + ",".join(map(str, weights)) + "}"


# ---------------------------------------------------------------------------
# payload builders


def _class_row(cls: CharClass, indexed: bool = False, coset: bool = False) -> dict:
    """A table row of one class from one pass over its coset (``hodge._read_coset``):
    dimension, set weights and totally nonzero members, then the indexed weights
    when ``indexed`` (hodge rows that list both semantics) and the distinct
    members when ``coset`` (the one-class ``hodge --v`` document)."""
    members, weights, indexed_weights = _read_coset(cls)
    row = {
        "representative": _entries(cls.representative),
        "dimension": len(weights),
        "weights": list(weights),
        "totally_nonzero": [list(m) for m in members if all(m)],
    }
    if indexed:
        row["weights_indexed"] = list(indexed_weights)
    if coset:
        row["coset"] = [list(m) for m in members]
    return row


def _classical_table(weight: WeightVector) -> dict:
    """One row per zero-dominant form, sorted by form, each with its orbit normal form.

    The forms are exactly the sorted zero-sum vectors in which 0 is a most frequent
    entry (``zero_dominant_form``), so the rows come from a filter over the
    C(2N-1, N) sorted N-tuples, in lexicographic order, with no class enumerated:
    refused past the row limit before the first row.
    """
    n = weight.modulus
    _bulk._check_rows(f"the classical table's filter over sorted {n}-tuples", comb(2 * n - 1, n))
    rows = {}
    for form in combinations_with_replacement(range(n), n):
        if sum(form) % n == 0 and form.count(0) == max(map(form.count, form)):
            cls = class_of(form, weight)
            row = _class_row(cls)
            row["orbit_normal_form"] = _entries(orbit_normal_form(cls))
            rows[form] = row
    return rows


def cmd_classes(args) -> ReportDocument:
    weight = _weight_from_args(args.N, args.W)
    classes = enumerate_classes(args.N, weight)
    payload: dict = {"count": len(classes)}
    if args.orbits:
        if not weight.classical:
            raise UsageError("--orbits requires the classical weight (1,...,1)")
        orbits = symmetric_orbits(args.N)
        payload["orbit_count"] = len(orbits)
        payload["orbits"] = [
            {
                "normal_form": _entries(form),
                "size": len(members),
                "classes": [_entries(c.representative) for c in members],
            }
            for form, members in orbits.items()
        ]
    else:
        payload["classes"] = [_entries(c.representative) for c in classes]
    return ReportDocument("classes", [], args.N, weight.entries, payload)


def _text_classes(p: dict) -> list[str]:
    if "orbits" not in p:
        return [f"{p['count']} classes"] + [f"  {_vec(c)}" for c in p["classes"]]
    lines = [f"{p['orbit_count']} orbits over {p['count']} classes"]
    for orb in p["orbits"]:
        lines.append(f"  orbit {_vec(orb['normal_form'])}  size {orb['size']}")
        lines.extend(f"    {_vec(c)}" for c in orb["classes"])
    return lines


def cmd_hodge(args) -> ReportDocument:
    weight = _weight_from_args(args.N, args.W)
    warnings: list[str] = []
    if args.v is not None:
        cls = _class_from_v(args.N, weight, args.v)
        payload = _class_row(cls, indexed=True, coset=True)
    elif weight.classical:
        payload = {
            "rows": list(_classical_table(weight).values()),
            "total_dimension": total_dimension(args.N, weight),
        }
    else:
        payload = {
            "rows": [_class_row(cls, indexed=True) for cls in enumerate_classes(args.N, weight)],
            "total_dimension": total_dimension(args.N, weight),
        }
        warnings.append(
            "set and indexed weight multisets can differ for non-classical weights; both are listed"
        )
    return ReportDocument("hodge", [], args.N, weight.entries, payload, warnings)


def _text_hodge(p: dict) -> list[str]:
    if "rows" in p:
        lines = [f"  {_vec(row['representative'])}  dim {row['dimension']}  "
                 f"weights {_multiset(row['weights'])}" for row in p["rows"]]
        return lines + [f"total dimension {p['total_dimension']}"]
    return [
        f"class {_vec(p['representative'])}",
        f"  dimension {p['dimension']}  weights {_multiset(p['weights'])}",
        "  totally nonzero representatives:",
        *(f"    {_vec(m)}" for m in p["totally_nonzero"]),
        "  coset:",
        *(f"    {_vec(m)}" for m in p["coset"]),
    ]


def _witness_dict(report) -> dict:
    return {
        "class": _entries(report.char_class.representative),
        "dimension": report.hodge.dimension,
        "weights": list(report.hodge.weights),
        "semantics": report.hodge.semantics,
        "repeated_value": report.repeated_value,
        "multiplicity": report.multiplicity,
        "semantics_divergent": int(report.semantics_divergent),
    }


def cmd_witness(args) -> ReportDocument:
    if args.N < 3:
        raise UsageError("witness requires N >= 3")
    weight = _weight_from_args(args.N, args.W)
    warnings: list[str] = []
    payload: dict = {"constructed": None, "construction_error": None}

    constructed = None
    if weight.classical:
        try:
            constructed = classical_repeat_class(args.N)
        except ValueError as exc:
            payload["construction_error"] = str(exc)
    else:
        try:
            constructed = construct_repeat_witness(args.N, weight)
        except WitnessConstructionError as exc:
            payload["construction_error"] = str(exc)
    if constructed is not None:
        payload["constructed"] = _witness_dict(constructed)

    try:
        # the count and the agreement read the sweep's flag mask; only the printed
        # reports are built
        _, sweep, indexed = _scan(args.N, weight, "indexed")
        count = int(sweep.flagged[indexed].sum())
        shown = _scan_reports(args.N, weight, "indexed", 50)
        payload["scan"] = {
            "checked": 1,
            "repeated_class_count": count,
            "repeated_classes": [_witness_dict(r) for r in shown],
        }
        if constructed is None:
            payload["agreement"] = None
            if not count:
                warnings.append("no repeated-weight class exists for this (N, W): exhaustive scan is empty")
            else:
                warnings.append(
                    "the direct construction produced no witness but the scan found repeated-weight "
                    "classes; the first scanned class is a valid witness"
                )
        else:
            rep = constructed.char_class.representative.entries
            payload["agreement"] = int(sweep.is_flagged(indexed, weight.entries, rep))
    except ValueError as exc:
        payload["scan"] = {"checked": 0, "reason": str(exc)}
        payload["agreement"] = None
        warnings.append(f"scan skipped: {exc}")

    return ReportDocument("witness", [], args.N, weight.entries, payload, warnings)


def _text_witness(p: dict) -> list[str]:
    w = p["constructed"]
    if w:
        lines = [f"constructed witness {_vec(w['class'])}: value {w['repeated_value']} "
                 f"x{w['multiplicity']} in weights {_multiset(w['weights'])}"]
    else:
        lines = [f"no constructed witness: {p['construction_error']}"]
    scan = p.get("scan", {})
    if scan.get("checked"):
        lines.append(f"scan: {scan['repeated_class_count']} repeated-weight classes")
        agreement = p.get("agreement")
        if agreement is not None:
            lines.append(f"agreement: {'yes' if agreement else 'NO'}")
    return lines


def _fiber_dict(fc, weight: WeightVector) -> dict:
    q, n = fc.spec.field.q, fc.spec.N
    return {
        "p": fc.spec.field.p,
        "m": fc.spec.field.m,
        "q": q,
        "t": fc.spec.t,
        "projective_count": fc.projective_count,
        "strategy": fc.strategy,
        "trace": fc.trace,
        "lefschetz_identity_ok": int(
            fc.projective_count == sum(q ** j for j in range(n - 1)) + (-1) ** n * fc.trace
        ),
        "weil_bound_ok": int(weil_bound_ok(fc.trace, q, n, weight)),
    }


def cmd_count(args) -> ReportDocument:
    weight = _weight_from_args(args.N, args.W)
    field = field_make(args.p, args.m)
    t_entries = _parse_vector(args.t, "--t")
    if len(t_entries) == 1:
        t = t_entries[0]
        if not (0 <= t < field.q):
            raise UsageError(f"--t must lie in 0..{field.q - 1}")
    else:
        if len(t_entries) != field.m:
            raise UsageError(f"--t as coefficients needs {field.m} entries for {field}")
        if any(not (0 <= c < field.p) for c in t_entries):
            raise UsageError(f"--t coefficients must be canonical lifts in 0..{field.p - 1}")
        t = sum(c * field.p ** i for i, c in enumerate(t_entries))
    spec = FiberSpec(args.N, weight, t, field)
    warnings = list(spec.notes)

    fibers = []
    if args.tower:
        for fc in tower_counts(spec, args.tower, workers=args.workers, budget=args.budget):
            fibers.append(_fiber_dict(fc, weight))
            print(f"# level m={fc.spec.field.m}: {fc.strategy} count in {fc.elapsed:.3f}s",
                  file=sys.stderr)
    else:
        strategies = {"naive": [count_projective_naive], "fast": [count_projective_fast],
                      "both": [count_projective_naive, count_projective_fast]}[args.strategy]
        results = [fn(spec, workers=args.workers, budget=args.budget) for fn in strategies]
        for fc in results:
            fibers.append(_fiber_dict(fc, weight))
            print(f"# {fc.strategy} count in {fc.elapsed:.3f}s", file=sys.stderr)
        if len(results) == 2:
            agree = results[0].projective_count == results[1].projective_count
            if not agree:
                raise RuntimeError(
                    f"strategy disagreement: naive={results[0].projective_count} "
                    f"fast={results[1].projective_count}"
                )
    payload = {"fibers": fibers}
    if args.strategy == "both" and not args.tower:
        payload["strategies_agree"] = 1
    return ReportDocument("count", [], args.N, weight.entries, payload, warnings)


def _text_count(p: dict) -> list[str]:
    return [
        f"q={f['q']} t={f['t']} [{f['strategy']}]  points {f['projective_count']}"
        f"  trace {f['trace']}  lefschetz {'ok' if f['lefschetz_identity_ok'] else 'FAIL'}  "
        f"weil {'ok' if f['weil_bound_ok'] else 'FAIL'}"
        for f in p["fibers"]
    ]


def cmd_report(args) -> ReportDocument:
    n = 5
    weight = classical_weight(n)
    classes = enumerate_classes(n, weight)

    rows = _classical_table(weight)
    for form, row in rows.items():
        row["dual"] = _entries(zero_dominant_form(dual_class(class_of(form, weight))))

    census = Counter(len(_read_coset(cls)[1]) for cls in classes)

    orbits = symmetric_orbits(n)
    payload = {
        "class_table": list(rows.values()),
        "table_row_count": len(rows),
        "duality_pairs": sorted(
            {tuple(sorted((f, tuple(rows[f]["dual"])))) for f in rows}
        ),
        "dimension_census": {str(d): c for d, c in sorted(census.items())},
        "total_dimension": total_dimension(n, weight),
        "orbit_count": len(orbits),
        "orbits": [
            {"normal_form": _entries(form), "size": len(members)}
            for form, members in orbits.items()
        ],
        "class_count": len(classes),
    }
    payload["duality_pairs"] = [[list(a), list(b)] for a, b in payload["duality_pairs"]]
    warnings = [
        "table rows are labelled by zero-dominant forms; rows with equal orbit_normal_form "
        "are permutation-equivalent"
    ]
    return ReportDocument("report", [], n, weight.entries, payload, warnings)


def _text_report(p: dict) -> list[str]:
    lines = [f"{p['class_count']} classes, {p['table_row_count']} table rows, "
             f"{p['orbit_count']} orbits, total dimension {p['total_dimension']}"]
    lines.extend(
        f"  {_vec(row['representative'])}  dim {row['dimension']}  "
        f"weights {_multiset(row['weights'])}  "
        f"dual {_vec(row['dual'])}  orbit {_vec(row['orbit_normal_form'])}"
        for row in p["class_table"]
    )
    lines.append("census: " + ", ".join(
        f"dim {d}: {c}" for d, c in p["dimension_census"].items()))
    return lines


# ---------------------------------------------------------------------------
# rendering


_TEXT = {
    "classes": _text_classes,
    "hodge": _text_hodge,
    "witness": _text_witness,
    "count": _text_count,
    "report": _text_report,
}


def _render_text(doc: ReportDocument) -> str:
    lines = [f"# dworklab {__version__} -- {doc.command} (N={doc.N}, W={list(doc.W)})"]
    lines.extend(f"! {warning}" for warning in doc.warnings)
    lines.extend(_TEXT[doc.command](doc.payload))
    return "\n".join(lines) + "\n"


def _emit(doc: ReportDocument, args) -> None:
    if args.format == "json":
        text = json.dumps(doc.to_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(doc)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}")
        print(f"# wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--workers", type=int, default=1,
                        help="counting threads, from 1 to the number of CPUs")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common.add_argument("--out", default=None, help="write the document to a file")

    parser = argparse.ArgumentParser(
        prog="dworklab",
        description="exact eigenspace tables and point counts for Dwork-family hypersurfaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", parents=[common], help="enumerate character classes")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--W", default=None, help="comma-separated weights, default classical")
    p.add_argument("--orbits", action="store_true", help="group by symmetric-group orbit")
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("hodge", parents=[common], help="dimension and weight tables")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--W", default=None)
    p.add_argument("--v", default=None, help="single class, comma-separated residues")
    p.set_defaults(fn=cmd_hodge)

    p = sub.add_parser("witness", parents=[common], help="repeated-weight witnesses")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--W", default=None)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("count", parents=[common], help="fiber point counts")
    p.add_argument("--N", type=int, default=5)
    p.add_argument("--W", default=None)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--t", required=True,
                   help="parameter: integer lift, or comma-separated coefficients for extensions")
    p.add_argument("--strategy", choices=("naive", "fast", "both"), default="naive")
    p.add_argument("--tower", type=int, default=0, help="count over extensions up to this degree")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("report", parents=[common], help="full classical N=5 table document")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        print(f"error: --workers {args.workers} is outside 1..{cpus}, the CPUs of this machine",
              file=sys.stderr)
        return EXIT_USAGE

    with _bulk.gc_paused():
        try:
            doc = args.fn(args)
            doc.argv = argv
            _emit(doc, args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (SmoothnessError, CharacteristicError, CapabilityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        except (BudgetError, _bulk.RowLimitError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
