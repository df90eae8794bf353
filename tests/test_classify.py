from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from itertools import product
from pathlib import Path

import pytest

from quatforms import (
    CartanType,
    GoldenDataError,
    GradingError,
    ToralElement,
    analyze,
    build_root_system,
    classify_equal_rank,
    generate_classical,
    golden_for_type,
    load_golden,
    parse_type,
    quaternionic_decomposition,
)
from quatforms.classify import (
    CLASSICAL_FAMILIES,
    _bundled_exceptional,
    _orbit_table,
)
from quatforms.involution import centralizer_roots, pairing
from quatforms.rootsys import SimpleType

from conftest import EXCEPTIONAL_LABELS, GRADED_LABELS
from oracles import brute_force_classify, enumerate_involutions, wk_orbits


def _rs(label):
    return build_root_system(parse_type(label))


def test_enumerate_counts():
    assert len(enumerate_involutions(_rs("G2"))) == 4
    assert len(enumerate_involutions(_rs("E8"))) == 256
    first = enumerate_involutions(_rs("A2"))[0]
    assert first.coords == (0, 0) and first.basis == "coweight" and first.denom == 2


def test_enumerate_rejects_rank_one():
    with pytest.raises(GradingError, match="no quaternionic node grading"):
        enumerate_involutions(_rs("A1"))


def test_enumerate_rank_cap_override():
    # The only rank cap is SimpleType's; the top classical rank enumerates in full.
    assert len(enumerate_involutions(_rs("D10"))) == 1024


def test_classify_g2_exactly_one_form():
    rep = classify_equal_rank(_rs("G2"))
    assert rep.ok
    assert len(rep.found) == 1
    f = rep.found[0]
    assert f.l_type == CartanType.of("A1", "A1")
    assert f.v_type == CartanType((), 2)
    assert f.multiplicity == 2  # both non-central odd-pairing candidates


def test_classify_e7_exactly_three_forms():
    rep = classify_equal_rank(_rs("E7"))
    assert rep.ok
    keys = {(f.l_type.render(), f.v_type.render()) for f in rep.found}
    assert keys == {
        ("E6 T1", "D5 T1 T1"),
        ("A7", "A3 A3 T1"),
        ("D6 A1", "A5 T1 T1"),
    }


def test_classify_e6_splits_equal_and_unequal_rank():
    rep = classify_equal_rank(_rs("E6"))
    assert rep.ok
    keys = {(f.l_type.render(), f.v_type.render()) for f in rep.found}
    assert keys == {("D5 T1", "A4 T1 T1"), ("A5 A1", "A2 A2 T1 T1")}
    assert [e.label for e in rep.skipped_unequal_rank] == ["6b"]
    skipped = rep.skipped_unequal_rank[0]
    assert skipped.l_type == CartanType.of("C4")
    assert skipped.key not in {f.key for f in rep.found}


def test_classify_e8_exactly_two_forms():
    rep = classify_equal_rank(_rs("E8"))
    assert rep.ok
    keys = {(f.l_type.render(), f.v_type.render()) for f in rep.found}
    assert keys == {("E7 A1", "E6 T1 T1"), ("D8", "A7 T1")}


def test_derived_fields_follow_replace():
    """The registry diff, an entry's equal_rank and the analysis dimensions
    are derived, so dataclasses.replace recomputes them."""
    rs = _rs("E8")
    rep = classify_equal_rank(rs)
    lost = dataclasses.replace(rep, found=[])
    assert lost.missing == lost.expected_equal_rank and len(lost.missing) == 2
    assert not lost.ok and lost.unexpected == []
    bare = dataclasses.replace(rep, golden=[])
    assert bare.no_golden_baseline and bare.unexpected == [] and bare.missing == []
    assert bare.ok and bare.to_json()["found"] == rep.to_json()["found"]

    entry = golden_for_type(rs.type)[0]
    assert entry.equal_rank
    lower = dataclasses.replace(entry, l_type=CartanType.of("E6"))
    assert lower.l_type.total_rank < rs.rank and not lower.equal_rank

    gd = quaternionic_decomposition(rs)
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    empty = dataclasses.replace(a, s_pos=())
    assert empty.dim_s == 0 and empty.to_json()["s_count"] == 0
    assert empty.dim_h == a.dim_h == 28


def test_zero_candidate_never_reported():
    for label in ("G2", "A3", "B3"):
        rep = classify_equal_rank(_rs(label))
        for f in rep.found:
            assert any(f.witness.coords)


def test_witnesses_reproduce_their_verdict():
    rs = _rs("F4")
    gd = quaternionic_decomposition(rs)
    rep = classify_equal_rank(rs)
    for f in rep.found:
        again = analyze(rs, gd, f.witness)
        assert again.is_complex_form
        assert (again.l_type, again.v_type) == f.key


def test_classification_is_deterministic():
    a = classify_equal_rank(_rs("E6")).to_json()
    b = classify_equal_rank(_rs("E6")).to_json()
    assert json.dumps(a) == json.dumps(b)


_DIAGRAM_AUTOMORPHISMS = {
    "A4": (4, 3, 2, 1),          # reversal
    "D4": (1, 2, 4, 3),          # swap the fork
    "E6": (6, 2, 5, 4, 3, 1),    # arm swap fixing nodes 2 and 4
}


@pytest.mark.parametrize("label", sorted(_DIAGRAM_AUTOMORPHISMS))
def test_conjugation_stability_under_diagram_automorphisms(label):
    """Permuted candidates give the same form keys, so dedup is stable."""
    perm = _DIAGRAM_AUTOMORPHISMS[label]
    rs = _rs(label)
    # sanity: the permutation really is a diagram automorphism
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert rs.cartan[i][j] == rs.cartan[perm[i] - 1][perm[j] - 1]
    gd = quaternionic_decomposition(rs)
    for t in enumerate_involutions(rs):
        a = analyze(rs, gd, t)
        if not a.is_complex_form:
            continue
        image = ToralElement(
            tuple(t.coords[perm[i] - 1] for i in range(rs.rank)), 2, "coweight"
        )
        b = analyze(rs, gd, image)
        assert b.is_complex_form
        assert (b.l_type, b.v_type) == (a.l_type, a.v_type)


# ---------------------------------------------------------------------------
# W_K-orbit scan
# ---------------------------------------------------------------------------


_ORBIT_COUNTS = {
    "G2": 3, "F4": 5, "E6": 6, "E7": 8, "E8": 6,
    "A8": 12, "B9": 24, "C7": 8, "D9": 14,
    "A10": 15, "B10": 27, "C10": 11, "D10": 18,
}


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_orbit_scan_matches_brute_force(label):
    """Found forms, witnesses and multiplicities equal the full scan's, and so
    does the registry diff the report derives from them."""
    rs = _rs(label)
    assert classify_equal_rank(rs).to_json() == brute_force_classify(rs).to_json()


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_circle_test_implies_dimension_test(label):
    """At d = 2 every candidate passing the circle test meets m+ in exactly
    dim_H M roots, so classify screens by the circle test alone."""
    rs = _rs(label)
    gd = quaternionic_decomposition(rs)
    m_pos = frozenset(gd.m_pos)
    passed = 0
    for t in enumerate_involutions(rs):
        if pairing(rs, t, rs.highest_root) == 0:
            continue
        assert len(centralizer_roots(rs, t) & m_pos) == gd.quaternionic_dim
        passed += 1
    assert passed


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_wk_orbits_partition_the_candidates(label):
    rs = _rs(label)
    orbits = wk_orbits(rs, quaternionic_decomposition(rs))
    members = sorted(c for orbit in orbits for c in orbit)
    assert members == list(product((0, 1), repeat=rs.rank))  # all 2^rank, once each
    assert all(list(orbit) == sorted(orbit) for orbit in orbits)
    reps = [orbit[0] for orbit in orbits]
    assert reps == sorted(reps)
    rows, failing = [], 0
    for o in orbits:
        t = ToralElement(o[0], 2, "coweight")
        if pairing(rs, t, rs.highest_root) != 0:
            rows.append((t, len(o)))
        else:
            failing += len(o)
    assert list(_orbit_table(rs)) == rows  # the passing orbits, as (witness, size)
    assert failing == 1 << (rs.rank - 1)
    if label in _ORBIT_COUNTS:
        assert len(orbits) == _ORBIT_COUNTS[label]


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank <= 8]
)
def test_orbit_table_circle_verdict_holds_for_every_member(label):
    """Every member of a listed orbit passes the circle test, the pairing of
    the highest root, and every member of an orbit the table drops fails it."""
    rs = _rs(label)
    table = {t.coords: size for t, size in _orbit_table(rs)}
    kept = 0
    for orbit in wk_orbits(rs, quaternionic_decomposition(rs)):
        listed = orbit[0] in table
        if listed:
            assert table[orbit[0]] == len(orbit)
            kept += 1
        for c in orbit:
            t = ToralElement(c, 2, "coweight")
            assert listed == (pairing(rs, t, rs.highest_root) != 0), c
    assert kept == len(table)


def test_warm_classify_screens_without_pairing(monkeypatch):
    """Once the orbit table is built, classify makes no pairing call and
    builds no toral element: the witnesses are the table's."""
    import quatforms.classify as classify
    import quatforms.involution as involution

    rs = _rs("D9")
    classify_equal_rank(rs)  # builds the per-type tables

    def refuse(*args):
        raise AssertionError("warm classify called pairing")

    monkeypatch.setattr(involution, "pairing", refuse)
    monkeypatch.setattr(classify, "pairing", refuse, raising=False)
    built = []
    post_init = ToralElement.__post_init__

    def count(self):
        built.append(self.coords)
        post_init(self)

    monkeypatch.setattr(ToralElement, "__post_init__", count)
    report = classify_equal_rank(rs)
    assert built == []
    witnesses = [w for w, _size in _orbit_table(rs)]
    assert witnesses and all(isinstance(w, ToralElement) for w in witnesses)
    assert report.found and all(any(f.witness is w for w in witnesses) for f in report.found)


@pytest.mark.parametrize("label", ["A10", "B10", "C10", "D10"])
def test_orbit_members_analyze_alike(label):
    """Each orbit's lex-largest member has its representative's L, V and verdict."""
    rs = _rs(label)
    gd = quaternionic_decomposition(rs)
    for orbit in wk_orbits(rs, gd):
        rep, far = (analyze(rs, gd, ToralElement(c, 2, "coweight")) for c in (orbit[0], orbit[-1]))
        assert (far.l_type, far.v_type, far.verdict) == (rep.l_type, rep.v_type, rep.verdict)


# ---------------------------------------------------------------------------
# Golden data
# ---------------------------------------------------------------------------


def test_bundled_exceptional_registry():
    entries = _bundled_exceptional()
    assert len(entries) == 10
    per_type = {}
    for e in entries:
        per_type.setdefault(e.ambient.label, []).append(e)
    assert {k: len(v) for k, v in per_type.items()} == {
        "G2": 1, "F4": 1, "E6": 3, "E7": 3, "E8": 2,
    }
    assert sum(1 for e in entries if not e.equal_rank) == 1  # only 6b


def test_registry_lists_are_fresh_per_call():
    """The bundled registry is parsed and sliced per type once, but callers
    get their own lists."""
    assert _bundled_exceptional() is _bundled_exceptional()
    e8 = parse_type("E8")
    entries = golden_for_type(e8)
    assert entries and all(a is b for a, b in zip(entries, golden_for_type(e8)))
    entries.pop()
    assert len(golden_for_type(e8)) == 2


def test_bundled_registry_refuses_a_repeated_key(monkeypatch):
    """The bundled registry is parsed by load_golden's rule: a key repeated
    in one object is refused, not kept at its last value."""
    from quatforms import classify

    text = classify._bundled_text("data/registry_exceptional.json")
    repeated = text.replace('"label": ', '"label": "4x", "label": ', 1)
    monkeypatch.setattr(classify, "_bundled_text", lambda name: repeated)
    _bundled_exceptional.cache_clear()
    message = "repeats the key 'label' in one object"
    try:
        with pytest.raises(GoldenDataError, match=f"^{re.escape(message)}$"):
            _bundled_exceptional()
    finally:
        _bundled_exceptional.cache_clear()


@pytest.mark.parametrize("label", EXCEPTIONAL_LABELS)
def test_exceptional_registry_slice_matches_a_filter(label):
    """Each type's slice holds the bundled entries of that type, in file order."""
    t = parse_type(label)
    entries = golden_for_type(t)
    assert entries and entries == [e for e in _bundled_exceptional() if e.ambient.label == label]


@pytest.mark.parametrize("label", [s for s in GRADED_LABELS if s[0] in CLASSICAL_FAMILIES])
def test_classical_registry_is_generated_once_and_lists_are_fresh(label):
    t = parse_type(label)
    first = golden_for_type(t)
    assert first and first == generate_classical(t)
    second = golden_for_type(t)
    assert all(a is b for a, b in zip(first, second))  # generated once
    first.clear()
    assert golden_for_type(t) == second


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_classify_repeats_with_tables_cached(label):
    """A call that builds the per-type tables and one that reuses them agree."""
    rs = _rs(label)
    _orbit_table.cache_clear()
    quaternionic_decomposition.cache_clear()
    assert classify_equal_rank(rs).to_json() == classify_equal_rank(rs).to_json()


def test_generator_c5_single_entry():
    entries = generate_classical(parse_type("C5"))
    assert len(entries) == 1
    e = entries[0]
    assert e.label == "3"
    assert e.l_type == CartanType.of("A4", torus_rank=1)
    assert e.v_type == CartanType.of("A3", torus_rank=2)
    assert e.equal_rank


def test_generator_d4_merges_coincident_grassmannian_and_quadric():
    entries = generate_classical(parse_type("D4"))
    labels = {e.label for e in entries}
    assert "2a = 2b(u=0)" in labels
    equal = [e for e in entries if e.equal_rank]
    assert len(equal) == 2
    keys = {e.key for e in entries}
    assert len(keys) == len(entries)  # no residual collisions


def test_generator_b_family_counts_and_worked_row():
    entries = generate_classical(parse_type("B7"))
    assert all(e.equal_rank for e in entries)
    assert len(entries) == 6  # u = 0..5 with u + v = 11
    by_label = {e.label: e for e in entries}
    row = by_label["2b(u=2)"]  # the SO(4) x SO(13) split, half-spin side
    assert row.l_type == CartanType.of("B5", "A1", "A1")
    assert row.v_type == CartanType.of("B4", torus_rank=3)


def test_generator_a_family_unequal_rank_entry():
    entries = generate_classical(parse_type("A4"))
    a1 = [e for e in entries if e.label == "1a"]
    assert len(a1) == 1 and not a1[0].equal_rank
    assert a1[0].l_type == CartanType.of("B2")
    degenerate = [e for e in entries if e.degenerate]
    assert [e.label for e in degenerate] == ["1b(u=0)"]


def test_generator_rejects_a1():
    with pytest.raises(GradingError, match=r"^no quaternionic node grading for A1 \(rank 1\)$"):
        generate_classical(parse_type("A1"))


def test_table_dim_matches_decomposition():
    for label in ("A5", "B6", "C4", "D5", "E7"):
        t = parse_type(label)
        entries = golden_for_type(t)
        assert entries
        dim = quaternionic_decomposition(_rs(label)).quaternionic_dim
        for e in entries:
            assert e.table_dim_h == dim


def _write_golden(tmp_path, entries):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


_G2_ENTRY = {
    "ambient": "G2",
    "label": "4",
    "l_type": {"components": [{"family": "A", "rank": 1}, {"family": "A", "rank": 1}], "torus_rank": 0},
    "v_type": {"components": [], "torus_rank": 2},
    "s_description": "P^1(C) x P^1(C)",
    "noncompact_dual": "H^1(C) x H^1(C)",
    "equal_rank": True,
    "table_rank": 2,
    "table_dim_h": 2,
}


def test_load_golden_roundtrip(tmp_path):
    path = _write_golden(tmp_path, [_G2_ENTRY])
    entries = load_golden(path)
    assert len(entries) == 1
    assert entries[0].to_json() == _G2_ENTRY
    rep = classify_equal_rank(_rs("G2"), path)
    assert rep.ok and not rep.no_golden_baseline


def test_load_golden_names_missing_field(tmp_path):
    bad = {k: v for k, v in _G2_ENTRY.items() if k != "v_type"}
    path = _write_golden(tmp_path, [bad])
    with pytest.raises(GoldenDataError, match="missing field 'v_type'"):
        load_golden(path)


def test_load_golden_names_mistyped_field(tmp_path):
    bad = dict(_G2_ENTRY, equal_rank="yes")
    path = _write_golden(tmp_path, [bad])
    with pytest.raises(GoldenDataError, match="'equal_rank' must be bool"):
        load_golden(path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"degenerate": "no"}, "entry 0: field 'degenerate' must be bool"),
        ({"comment": "x"}, "entry 0: unknown field 'comment'"),
        ({"table_rank": 0}, "entry 0: field 'table_rank' must be at least 1"),
        ({"table_dim_h": 0}, "entry 0: field 'table_dim_h' must be at least 1"),
        ({"ambient": "g2"}, "entry 0: bad ambient type 'g2'"),
        ({"v_type": {"components": [], "torus_rank": 2, "x": 0}}, "unknown key in Cartan type"),
        (
            {"v_type": {"components": [{"family": "A", "rank": 1, "x": 0}], "torus_rank": 1}},
            "unknown key in Cartan type",
        ),
    ],
    ids=[
        "degenerate-not-bool",
        "unknown-field",
        "table-rank-0",
        "table-dim-h-0",
        "lowercase-ambient",
        "cartan-type-key",
        "component-key",
    ],
)
def test_load_golden_enforces_the_entry_schema(tmp_path, capsys, change, message):
    """Entries the schema rejects raise, and classify --golden exits 2."""
    from quatforms.cli import main

    path = _write_golden(tmp_path, [dict(_G2_ENTRY, **change)])
    with pytest.raises(GoldenDataError, match=re.escape(message)):
        load_golden(path)
    assert main(["classify", "G2", "--golden", path]) == 2
    assert message in capsys.readouterr().err


def test_load_golden_keeps_a_boolean_degenerate_flag(tmp_path):
    for flag in (True, False):
        entry = load_golden(_write_golden(tmp_path, [dict(_G2_ENTRY, degenerate=flag)]))[0]
        assert entry.degenerate is flag


def test_load_golden_rejects_rank_contradiction(tmp_path):
    bad = dict(_G2_ENTRY, equal_rank=False)
    path = _write_golden(tmp_path, [bad])
    with pytest.raises(GoldenDataError, match="equal_rank flag contradicts"):
        load_golden(path)


def test_load_golden_rejects_key_collision(tmp_path):
    other = dict(_G2_ENTRY, label="4-bis")
    path = _write_golden(tmp_path, [_G2_ENTRY, other])
    with pytest.raises(GoldenDataError, match="share the dedup key"):
        load_golden(path)


def test_load_golden_rejects_unreadable_and_malformed(tmp_path):
    with pytest.raises(GoldenDataError, match="cannot read"):
        load_golden(str(tmp_path / "absent.json"))
    p = tmp_path / "broken.json"
    p.write_text("{", encoding="utf-8")
    with pytest.raises(GoldenDataError, match="not valid JSON"):
        load_golden(str(p))
    p2 = tmp_path / "object.json"
    p2.write_text("{}", encoding="utf-8")
    with pytest.raises(GoldenDataError, match="JSON array"):
        load_golden(str(p2))


def test_classify_reports_missing_against_wrong_golden(tmp_path):
    fake = dict(
        _G2_ENTRY,
        label="4-fake",
        l_type={"components": [{"family": "G", "rank": 2}], "torus_rank": 0},
        v_type={"components": [], "torus_rank": 2},
    )
    path = _write_golden(tmp_path, [fake])
    rep = classify_equal_rank(_rs("G2"), path)
    assert not rep.ok
    assert [e.label for e in rep.missing] == ["4-fake"]
    assert len(rep.unexpected) == 1  # the true form is not in the fake registry


def test_classify_without_baseline_still_lists_forms(tmp_path):
    path = _write_golden(tmp_path, [_G2_ENTRY])
    rep = classify_equal_rank(_rs("F4"), path)  # file has no F4 entries
    assert rep.no_golden_baseline
    assert rep.ok  # nothing to diff against
    assert len(rep.found) == 1


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_every_graded_type_has_a_bundled_baseline(label):
    """Every graded type, up to the rank cap, is checked against the
    bundled registry, and its search finds exactly the registry's forms."""
    assert golden_for_type(parse_type(label))
    rep = classify_equal_rank(_rs(label))
    assert rep.ok and not rep.no_golden_baseline


@pytest.mark.parametrize(
    "change",
    [
        (lambda l, v, c, s, k: (l, v, c, s & s - 1, k), "verdict not-complex-form, step6 count 0"),
        (lambda l, v, c, s, k: (l, v, c, s, 1), "verdict complex-form, step6 count 1"),
    ],
)
def test_screen_disagreement_raises(monkeypatch, change):
    """The screen/analysis cross-check on classify's kernel call is a raise,
    so it survives python -O; s short of a root breaks the verdict."""
    import quatforms.classify
    from quatforms.complexform import _mod2_analysis

    edit, message = change
    monkeypatch.setattr(
        quatforms.classify, "_mod2_analysis", lambda *args: edit(*_mod2_analysis(*args))
    )
    with pytest.raises(
        RuntimeError, match=f"^fast screen disagrees with full analysis at .*: {message}$"
    ):
        classify_equal_rank(_rs("G2"))


_DIGESTS = Path(__file__).resolve().parent / "classify_digests.json"


def test_classify_reports_match_pinned_digests():
    """Every graded type's report, witnesses and multiplicities included, is
    pinned by the SHA-256 of its sorted-key JSON, recorded before analyze
    moved to positive-root indices."""
    pinned = json.loads(_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(GRADED_LABELS)
    for label in GRADED_LABELS:
        text = json.dumps(classify_equal_rank(_rs(label)).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[label], label


def test_types_found_are_one_instance_per_type():
    """The kernel's types are the constructor's one instance per type, shared
    with the bundled registry, so classify's dict hits and registry diff
    compare by identity; from_json and CartanType.of return that instance."""
    e7, a1 = SimpleType("E", 7), SimpleType("A", 1)
    table = CartanType([a1, e7], 0)
    assert CartanType([e7, a1], 0) is table
    for built in (CartanType.of("A1", "E7"), CartanType.from_json(table.to_json())):
        assert built is table
        assert CartanType(built.components, built.torus_rank) is table
    assert CartanType([e7, a1], 1) != table
    for label in ("E8", "D9"):
        rep = classify_equal_rank(_rs(label))
        registry = {e.key: e for e in rep.expected_equal_rank}
        for f in rep.found:
            e = registry[f.key]
            assert f.l_type is e.l_type and f.v_type is e.v_type, f.key
