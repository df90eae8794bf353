"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Every comparison is exact (integer and Cartan-type equality, no tolerances);
the runtime budgets are asserted as stated.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

from __future__ import annotations

import json
import time
from importlib import resources
from itertools import product

import pytest

from quatforms import (
    CartanType,
    REFERENCE_CASES,
    ToralElement,
    analyze,
    build_root_system,
    classify_equal_rank,
    parse_type,
    quaternionic_decomposition,
    recognize,
    run_case,
    step6_count,
)
from quatforms.involution import centralizer, centralizer_roots, convert_to_coweight
from quatforms.rootsys import grade
from quatforms.subsys import Subsystem

from conftest import GRADED_LABELS, SUPPORTED_LABELS
from oracles import disjoint_cover_ok, positive_part, reflection_closure

EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")


def _report(number: int, name: str, errors: list[str], elapsed: float) -> None:
    status = "PASS" if not errors else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.2f}s]")
    assert not errors, "\n".join(errors)


@pytest.fixture(scope="module")
def classification_runs():
    """All desk-rank classification reports, with per-type wall time."""
    runs = {}
    for label in GRADED_LABELS:
        rs = build_root_system(parse_type(label))
        start = time.perf_counter()
        report = classify_equal_rank(rs)
        runs[label] = (report, time.perf_counter() - start)
    return runs


def test_criterion_1_reference_case_regression():
    """The seven pinned cases reproduce their L and V types exactly."""
    start = time.perf_counter()
    errors = []
    for case in REFERENCE_CASES:
        a, ok = run_case(case)
        if not ok:
            errors.append(
                f"{case.label}: got L={a.l_type.render()} V={a.v_type.render()} "
                f"step6={a.step6_count} verdict={a.verdict}"
            )
        if a.l_type != case.expected_l or a.v_type != case.expected_v:
            errors.append(f"{case.label}: Cartan types differ from pinned values")
        if a.step6_count != 0:
            errors.append(f"{case.label}: step6_count = {a.step6_count} != 0")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        errors.append(f"runtime {elapsed:.2f}s exceeds 1s budget")
    _report(1, "reference-case regression", errors, elapsed)


def test_criterion_2_dimension_table():
    """Quaternionic dimensions computed from root data match the table."""
    start = time.perf_counter()
    rows = json.loads(
        (resources.files("quatforms") / "data/quaternionic_table.json").read_text()
    )
    errors = []
    seen = set()
    for row in rows:
        rs = build_root_system(parse_type(row["ambient"]))
        got = quaternionic_decomposition(rs).quaternionic_dim
        seen.add(row["ambient"])
        if got != row["dim_h"]:
            errors.append(f"{row['ambient']}: dim {got} != table {row['dim_h']}")
    required = (
        {f"A{n}" for n in range(2, 10)}
        | {f"B{n}" for n in range(2, 10)}
        | {f"C{n}" for n in range(2, 8)}
        | {f"D{n}" for n in range(3, 10)}
        | set(EXCEPTIONAL)
    )
    if not required <= seen:
        errors.append(f"table misses rows for {sorted(required - seen)}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        errors.append(f"runtime {elapsed:.2f}s exceeds 1s budget")
    _report(2, "dimension table", errors, elapsed)


def test_criterion_3_equal_rank_classification(classification_runs):
    """Search output equals the golden equal-rank sets, every desk type."""
    start = time.perf_counter()
    errors = []
    expected_counts = {"G2": 1, "F4": 1, "E6": 2, "E7": 3, "E8": 2}
    for label in GRADED_LABELS:
        report, elapsed_type = classification_runs[label]
        if report.no_golden_baseline:
            errors.append(f"{label}: no golden baseline")
        if report.missing:
            errors.append(
                f"{label}: missing {[e.label for e in report.missing]}"
            )
        if report.unexpected:
            errors.append(
                f"{label}: unexpected "
                f"{[(f.l_type.render(), f.v_type.render()) for f in report.unexpected]}"
            )
        if len(report.found) != len(report.expected_equal_rank):
            errors.append(
                f"{label}: {len(report.found)} forms vs "
                f"{len(report.expected_equal_rank)} golden entries"
            )
        if label in expected_counts and len(report.found) != expected_counts[label]:
            errors.append(f"{label}: expected {expected_counts[label]} forms")
        if label in EXCEPTIONAL and elapsed_type >= 5.0:
            errors.append(f"{label}: scan took {elapsed_type:.2f}s (budget 5s)")
    c5 = classification_runs["C5"][0]
    if [
        (f.l_type, f.v_type) for f in c5.found
    ] != [(CartanType.of("A4", torus_rank=1), CartanType.of("A3", torus_rank=2))]:
        errors.append("C5: expected exactly the projective-space form A4+T1 / A3+T1T1")
    _report(3, "equal-rank classification", errors, time.perf_counter() - start)


def test_criterion_4_unequal_rank_bookkeeping(classification_runs):
    """Lower-rank registry entries are skipped, never found."""
    start = time.perf_counter()
    errors = []
    for label in GRADED_LABELS:
        report, _ = classification_runs[label]
        found_keys = {f.key for f in report.found}
        for e in report.skipped_unequal_rank:
            if e.equal_rank:
                errors.append(f"{label}: equal-rank entry {e.label} marked skipped")
            if e.key in found_keys:
                errors.append(f"{label}: skipped entry {e.label} was found")
        skipped_labels = {e.label for e in report.skipped_unequal_rank}
        family, rank = label[0], int(label[1:])
        if family == "A" and "1a" not in skipped_labels:
            errors.append(f"{label}: entry 1a not under skipped_unequal_rank")
        if family == "D":
            r = 2 * rank - 4
            odd = {f"2b(u={u})" for u in range(0, r // 2 + 1) if u % 2}
            if skipped_labels != odd:
                errors.append(f"{label}: skipped {skipped_labels} != odd-u set {odd}")
        if label == "E6" and skipped_labels != {"6b"}:
            errors.append(f"E6: skipped {skipped_labels} != {{'6b'}}")
    _report(4, "unequal-rank bookkeeping", errors, time.perf_counter() - start)


def test_criterion_5_property_suites(classification_runs):
    """Exhaustive invariant suites over all supported types."""
    start = time.perf_counter()
    errors = []

    # 5a: dual-oracle generation agreement.
    for label in SUPPORTED_LABELS:
        rs = build_root_system(parse_type(label))
        oracle = reflection_closure(rs.cartan)
        if rs.root_set != oracle or set(rs.positive_roots) != positive_part(oracle):
            errors.append(f"{label}: root-string and reflection closures differ")

    # 5b: recognize of the full system round-trips.
    for label in SUPPORTED_LABELS:
        rs = build_root_system(parse_type(label))
        if recognize(Subsystem(rs, rs.root_set)) != CartanType((rs.type,), 0):
            errors.append(f"{label}: recognize round trip failed")

    # 5c: grade-2 singleton and agreement of grades with the highest coroot.
    from oracles import pairing_with_coroot

    for label in GRADED_LABELS:
        rs = build_root_system(parse_type(label))
        gd = quaternionic_decomposition(rs)
        theta = rs.highest_root
        grade2 = [a for a in rs.positive_roots if grade(rs, gd.node_set, a) == 2]
        if grade2 != [theta]:
            errors.append(f"{label}: grade-2 slice is not the highest root alone")
        for alpha in rs.positive_roots:
            if pairing_with_coroot(rs, alpha, theta) != grade(rs, gd.node_set, alpha):
                errors.append(f"{label}: grading disagrees with theta pairing at {alpha}")
                break

    # 5d: parity lemma and disjoint cover for every accepted form.
    for label in GRADED_LABELS:
        report, _ = classification_runs[label]
        rs = build_root_system(parse_type(label))
        gd = quaternionic_decomposition(rs)
        theta = rs.highest_root
        for form in report.found:
            a = analyze(rs, gd, form.witness)
            if not a.is_complex_form:
                errors.append(f"{label}: witness no longer verifies")
            cent = centralizer(rs, form.witness)
            mirrors = {
                tuple(x - y for x, y in zip(theta, beta)) for beta in a.s_pos
            }
            if mirrors & cent.roots:
                errors.append(f"{label}: theta - s meets the centralizer")
            if not disjoint_cover_ok(rs, gd, a.s_pos):
                errors.append(f"{label}: s and theta - s do not partition m+")
            if a.step6_count != 0:
                errors.append(f"{label}: accepted form has step6 {a.step6_count}")

    # 5e: basis change preserves centralizers.
    for label in SUPPORTED_LABELS:
        rs = build_root_system(parse_type(label))
        if rs.rank <= 5:
            elements = [
                ToralElement(c, 2, "coroot")
                for c in product((0, 1), repeat=rs.rank)
            ]
        else:
            elements = [
                ToralElement(
                    tuple(1 if j == i else 0 for j in range(rs.rank)), 2, "coroot"
                )
                for i in range(rs.rank)
            ] + [ToralElement((1,) * rs.rank, 3, "coroot")]
        for t in elements:
            if centralizer_roots(rs, t) != centralizer_roots(
                rs, convert_to_coweight(rs, t)
            ):
                errors.append(f"{label}: centralizer changed under basis change")
                break

    # 5f: the step6 count is identically zero on grading-compatible sets.
    for label in GRADED_LABELS:
        rs = build_root_system(parse_type(label))
        gd = quaternionic_decomposition(rs)
        theta = rs.highest_root
        m_set = set(gd.m_pos)
        for beta in gd.m_pos:
            if tuple(x - y for x, y in zip(theta, beta)) not in m_set:
                errors.append(f"{label}: theta - {beta} left the grade-1 slice")
        if step6_count(rs, gd, gd.m_pos) != 0:
            errors.append(f"{label}: step6 nonzero on the full grade-1 slice")
        if step6_count(rs, gd, ()) != 0:
            errors.append(f"{label}: step6 nonzero on the empty set")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        errors.append(f"runtime {elapsed:.2f}s exceeds 30s budget")
    _report(5, "property suites", errors, elapsed)
