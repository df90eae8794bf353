"""Command-line front end.

Verbs mirror the pipeline stages: ``roots`` builds a root system,
``decompose`` grades it, ``analyze`` runs one toral element through the
complex-form tests, ``classify`` scans all involution candidates against
the golden registry, ``table`` checks the quaternionic dimension table,
and ``cases`` replays the bundled reference cases.

Each verb builds one report: a JSON document and its text lines, side by
side.  The text is printed by default; ``--json`` prints the same report
as a document instead.  Runners import the modules their verb needs, so a
fresh process loads no more of the package than its verb runs.

Exit codes: 0 on success, 1 on a verification mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from .rootsys import (
    COROOT,
    COWEIGHT,
    GradingError,
    InvalidTypeError,
    build_root_system,
    load_table,
    node_set,
    parse_type,
    quaternionic_decomposition,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# One --sym coordinate or --denom once stripped, as int() strips it: ASCII
# digits only, where int() alone also takes any Unicode digit and underscores.
_SYM_FIELD = re.compile(r"[+-]?[0-9]+")

# What a verb's runner returns: the JSON document, the text lines and the
# exit code.
_Report = tuple[dict, list[str], int]


@lru_cache(maxsize=None)  # built once: main() may run many times in one process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatforms",
        description="complex forms of quaternionic symmetric spaces, from root data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_roots = sub.add_parser("roots", help="build a root system and summarize it")
    p_roots.add_argument("type_label", metavar="TYPE")
    p_roots.add_argument("--json", action="store_true")
    p_roots.add_argument(
        "--dump-roots", action="store_true", help="include all positive roots"
    )

    p_dec = sub.add_parser("decompose", help="grade the positive roots at the node")
    p_dec.add_argument("type_label", metavar="TYPE")
    p_dec.add_argument("--json", action="store_true")

    p_an = sub.add_parser("analyze", help="test one toral element for a complex form")
    p_an.add_argument("type_label", metavar="TYPE")
    p_an.add_argument(
        "--sym", required=True, help="comma-separated coordinates, e.g. 0,0,0,0,0,0,0,1"
    )
    p_an.add_argument("--denom", type=_denom, default=2)
    p_an.add_argument("--basis", choices=(COROOT, COWEIGHT), default=COROOT)
    p_an.add_argument("--json", action="store_true")

    p_cl = sub.add_parser("classify", help="scan all involutions, diff the registry")
    p_cl.add_argument("type_label", metavar="TYPE")
    p_cl.add_argument("--golden", help="path to a golden registry file")
    p_cl.add_argument("--json", action="store_true")

    p_tab = sub.add_parser("table", help="verify the quaternionic dimension table")
    p_tab.add_argument("--json", action="store_true")

    p_cases = sub.add_parser("cases", help="replay the bundled reference cases")
    p_cases.add_argument("--json", action="store_true")

    return parser


def _denom(text: str) -> int:
    """--denom's integer, read by --sym's rule for one coordinate."""
    if not _SYM_FIELD.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on digits in an int string
        raise argparse.ArgumentTypeError("invalid int value: too many digits") from None


def _parse_sym(text: str, rank: int) -> tuple[int, ...]:
    fields = text.split(",")
    if not all(_SYM_FIELD.fullmatch(x.strip()) for x in fields):
        raise InvalidTypeError(f"cannot parse --sym {text!r}: expected integers")
    try:
        coords = tuple(map(int, fields))
    except ValueError:  # past the interpreter's limit on digits in an int string
        raise InvalidTypeError("cannot parse --sym: a coordinate has too many digits")
    if len(coords) != rank:
        raise InvalidTypeError(
            f"--sym has {len(coords)} coordinates, expected {rank}"
        )
    return coords


def _run_roots(ns: argparse.Namespace) -> _Report:
    rs = build_root_system(parse_type(ns.type_label))
    try:
        nodes = sorted(node_set(rs))
    except GradingError:
        nodes = []
    obj = {
        "type": rs.type.label,
        "rank": rs.rank,
        "positive_count": len(rs.positive_roots),
        "highest_root": list(rs.highest_root),
        "cartan": [list(row) for row in rs.cartan],
        "node_set": nodes,
    }
    lines = [
        f"type: {rs.type.label}",
        f"rank: {rs.rank}",
        f"positive roots: {len(rs.positive_roots)}",
        f"highest root: {json.dumps(obj['highest_root'])}",
        f"node set: {','.join(str(i) for i in nodes) or '-'}",
    ]
    if ns.dump_roots:
        obj["positive_roots"] = [list(r) for r in rs.positive_roots]
        lines.append("positive root list:")
        lines.extend(json.dumps(r) for r in obj["positive_roots"])
    return obj, lines, EXIT_OK


def _run_decompose(ns: argparse.Namespace) -> _Report:
    rs = build_root_system(parse_type(ns.type_label))
    gd = quaternionic_decomposition(rs)
    nodes = sorted(gd.node_set)
    obj = {
        "type": rs.type.label,
        "node_set": nodes,
        "k_count": len(gd.k_pos),
        "m_count": len(gd.m_pos),
        "quaternionic_dim": gd.quaternionic_dim,
    }
    lines = [
        f"type: {rs.type.label}",
        f"node set: {','.join(str(i) for i in nodes)}",
        f"positive roots of k: {len(gd.k_pos)}",
        f"positive roots of m: {len(gd.m_pos)}",
        f"dim/H: {gd.quaternionic_dim}",
    ]
    return obj, lines, EXIT_OK


def _run_analyze(ns: argparse.Namespace) -> _Report:
    from .complexform import analyze, render_report
    from .involution import ToralElement

    rs = build_root_system(parse_type(ns.type_label))
    gd = quaternionic_decomposition(rs)
    coords = _parse_sym(ns.sym, rs.rank)
    a = analyze(rs, gd, ToralElement(coords, ns.denom, ns.basis))
    return a.to_json(), render_report(a).split("\n"), EXIT_OK


def _run_classify(ns: argparse.Namespace) -> _Report:
    from .classify import classify_equal_rank

    rs = build_root_system(parse_type(ns.type_label))
    report = classify_equal_rank(rs, ns.golden)
    lines = [f"ambient: {report.ambient.label}", f"candidates: {report.candidates}"]
    for f in report.found:
        lines.append(
            f"found: L = {f.l_type.render()} | V = {f.v_type.render()} "
            f"(witness {f.witness.describe()}, multiplicity {f.multiplicity})"
        )
    for e in report.skipped_unequal_rank:
        lines.append(
            f"skipped (lower rank, not reachable by toral centralizers): "
            f"{e.label}: {e.s_description}"
        )
    if report.no_golden_baseline:
        lines.append("no golden baseline for this type")
    for e in report.missing:
        lines.append(
            f"MISSING: {e.label}: L = {e.l_type.render()} | V = {e.v_type.render()}"
        )
    for f in report.unexpected:
        lines.append(f"UNEXPECTED: L = {f.l_type.render()} | V = {f.v_type.render()}")
    lines.append("result: " + ("ok" if report.ok else "MISMATCH"))
    return report.to_json(), lines, EXIT_OK if report.ok else EXIT_MISMATCH


def _run_table(ns: argparse.Namespace) -> _Report:
    rows, lines = [], []
    for row in load_table():
        rs = build_root_system(parse_type(row["ambient"]))
        computed = quaternionic_decomposition(rs).quaternionic_dim
        good = computed == row["dim_h"]
        rows.append(
            {
                "ambient": row["ambient"],
                "compact": row["compact"],
                "noncompact": row["noncompact"],
                "rank": row["rank"],
                "dim_h": row["dim_h"],
                "computed_dim_h": computed,
                "ok": good,
            }
        )
        lines.append(
            f"{row['ambient']:<3} {row['compact']:<42} rank {row['rank']}  "
            f"dim/H {computed:>2} (expected {row['dim_h']:>2})  "
            f"{'ok' if good else 'MISMATCH'}"
        )
    ok = all(r["ok"] for r in rows)
    lines.append(f"result: {'ok' if ok else 'MISMATCH'} ({len(rows)} rows)")
    return {"rows": rows, "ok": ok}, lines, EXIT_OK if ok else EXIT_MISMATCH


def _run_cases(ns: argparse.Namespace) -> _Report:
    from .cases import REFERENCE_CASES, run_case

    cases, lines = [], []
    for case in REFERENCE_CASES:
        a, ok = run_case(case)
        cases.append(
            {
                "label": case.label,
                "ambient": case.ambient,
                "sym_bourbaki": list(case.sym_bourbaki),
                "sym_lie": list(case.lie_sym),
                "node_bourbaki": case.node_bourbaki,
                "node_lie": case.node_lie,
                "expected_l": case.expected_l.to_json(),
                "expected_v": case.expected_v.to_json(),
                "got_l": a.l_type.to_json(),
                "got_v": a.v_type.to_json(),
                "step6_count": a.step6_count,
                "verdict": a.verdict,
                "ok": ok,
            }
        )
        sym_b = ",".join(str(c) for c in case.sym_bourbaki)
        sym_l = ",".join(str(c) for c in case.lie_sym)
        lines.append(
            f"{case.label:<3} node {case.node_bourbaki} (LiE {case.node_lie})  "
            f"sym {sym_b} (LiE {sym_l})  "
            f"L = {a.l_type.render(case.display_aliases)} | "
            f"V = {a.v_type.render(case.display_aliases)}  "
            f"step6 {a.step6_count}  {'pass' if ok else 'FAIL'}"
        )
    passed = sum(1 for c in cases if c["ok"])
    lines.append(f"{passed}/{len(cases)} cases pass")
    obj = {"cases": cases, "passed": passed, "total": len(cases)}
    return obj, lines, EXIT_OK if passed == len(cases) else EXIT_MISMATCH


_RUNNERS = {
    "roots": _run_roots,
    "decompose": _run_decompose,
    "analyze": _run_analyze,
    "classify": _run_classify,
    "table": _run_table,
    "cases": _run_cases,
}


def run(ns: argparse.Namespace) -> int:
    """Run one parsed invocation, print its report; return the exit code."""
    try:
        obj, lines, code = _RUNNERS[ns.verb](ns)
    except ValueError as exc:  # InvalidTypeError, GradingError, GoldenDataError
        sys.stderr.write(f"quatforms {ns.verb}: error: {exc}\n")
        return EXIT_USAGE
    text = json.dumps(obj, indent=2) if ns.json else "\n".join(lines)
    sys.stdout.write(text + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with its own code on usage errors / --help
        return int(exc.code) if exc.code is not None else EXIT_OK
    return run(ns)


if __name__ == "__main__":
    raise SystemExit(main())
