from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import quatforms
import quatforms.complexform as complexform
from quatforms import (
    CartanType,
    ToralElement,
    analyze,
    build_root_system,
    parse_type,
    quaternionic_decomposition,
    render_report,
    step6_count,
)
from quatforms.involution import _pairing_values, centralizer
from quatforms.rootsys import grade
from quatforms.subsys import NotClosedError, Subsystem, _base_mask, _bits, _closed_base

from conftest import GRADED_LABELS, base_type_test_elements, l_and_v_bases, orbit_representatives
from oracles import (
    analysis_by_lists,
    analyze_via_subsystems,
    centralizer_roots_by_dot,
    disjoint_cover_ok,
    grade_slices,
    step6_rows,
)


def _setup(label):
    rs = build_root_system(parse_type(label))
    return rs, quaternionic_decomposition(rs)


def test_analyze_e8_worked_case():
    rs, gd = _setup("E8")
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    assert a.l_type == CartanType.of("E7", "A1")
    assert a.v_type == CartanType.of("E6", torus_rank=2)
    assert a.circle_ok
    assert a.dim_s == a.dim_h == 28
    assert a.step6_count == 0
    assert a.verdict == "complex-form"


def test_analyze_f4_worked_case():
    rs, gd = _setup("F4")
    a = analyze(rs, gd, ToralElement((1, 0, 0, 0), 2, "coroot"))
    assert a.l_type == CartanType.of("C3", "A1")
    assert a.l_type.render({"A1": "C1"}) == "C3 C1"
    assert a.v_type == CartanType.of("A2", torus_rank=2)
    assert a.verdict == "complex-form"


def test_analyze_identity_is_rejected():
    for label in ("G2", "E6", "B3"):
        rs, gd = _setup(label)
        a = analyze(rs, gd, ToralElement((0,) * rs.rank, 2, "coroot"))
        assert a.l_type == CartanType((rs.type,), 0)
        assert not a.circle_ok
        assert a.dim_s == 2 * a.dim_h  # all of m survives, twice too much
        assert a.verdict == "not-complex-form"


def test_step6_count_empty_and_full():
    rs, gd = _setup("E8")
    assert step6_count(rs, gd, ()) == 0
    assert step6_count(rs, gd, gd.m_pos) == 0  # theta - m+ stays inside m+


def test_step6_count_counts_mirror_rows_outside_m():
    """Against a grading whose m is s alone, every theta - beta is a new row."""
    rs, gd = _setup("E8")
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    only_s = dataclasses.replace(gd, m_pos=a.s_pos)
    assert step6_count(rs, only_s, a.s_pos) == len(a.s_pos) == 28
    s = [rs.positive_roots.index(beta) for beta in a.s_pos]
    assert step6_rows(rs, only_s, s) == 28


def test_analyze_reads_m_from_a_replaced_m_pos():
    """A grading whose m_pos is replaced grades the kernel by the new m_pos:
    analyze either reports an s inside it that step6_count accepts, with the
    same count, or refuses a v that is not closed on that grading."""
    rs, gd = _setup("E8")
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    only_s = dataclasses.replace(gd, m_pos=a.s_pos)
    try:
        b = analyze(rs, only_s, ToralElement((1,) + (0,) * 7, 2, "coweight"))
    except NotClosedError:
        return
    assert set(b.s_pos) <= set(only_s.m_pos)
    assert step6_count(rs, only_s, b.s_pos) == b.step6_count


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_step6_count_matches_set_formula_on_real_gradings(label):
    """A real grading's mirror set is empty, so the count is 0, as the set
    formula gives, for analyze's s and for seeded subsets of m."""
    rs, gd = _setup(label)
    assert gd._mirror == 0
    pos = rs.positive_roots
    m = [pos.index(r) for r in gd.m_pos]
    rng = random.Random(f"step6-{label}")
    sets = [_bits(complexform._analysis(rs, gd, t)[3]) for t in _kernel_elements(rs)]
    sets += [rng.sample(m, k) for k in (0, 1, len(m) // 2, len(m))]
    for s in sets:
        assert step6_rows(rs, gd, s) == 0
        assert step6_count(rs, gd, tuple(pos[x] for x in s)) == 0


@pytest.mark.parametrize("label", ["G2", "F4", "B5", "D6", "E7"])
def test_step6_count_matches_set_formula_with_a_mirror_set(label):
    """With a seeded quarter of the grade-1 roots dropped from m, the mirror
    set is not empty, and the count equals the set formula on seeded
    subsets of that m, a repeated root included."""
    rs, gd = _setup(label)
    rng = random.Random(f"step6-mirrors-{label}")
    dropped = set(rng.sample(gd.m_pos, max(1, len(gd.m_pos) // 4)))
    fake = dataclasses.replace(gd, m_pos=tuple(r for r in gd.m_pos if r not in dropped))
    assert fake._mirror
    pos = rs.positive_roots
    m = [pos.index(r) for r in fake.m_pos]
    counts = set()
    for k in range(len(m) + 1):
        s = rng.sample(m, k)
        s += s[:1]
        expected = step6_rows(rs, fake, s)
        assert step6_count(rs, fake, tuple(pos[x] for x in s)) == expected
        counts.add(expected)
    assert len(counts) > 1


def test_step6_count_rejects_non_m_rows():
    rs, gd = _setup("G2")
    with pytest.raises(ValueError, match="grade-1"):
        step6_count(rs, gd, ((1, 0),))  # grade-0 root is not in m+


def test_step6_count_rejects_non_m_rows_under_optimize():
    """The input check is not an assert: it still raises under python -O."""
    src = str(Path(quatforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "from quatforms import build_root_system, parse_type, "
        "quaternionic_decomposition, step6_count\n"
        "rs = build_root_system(parse_type('G2'))\n"
        "gd = quaternionic_decomposition(rs)\n"
        "try:\n"
        "    step6_count(rs, gd, ((1, 0),))\n"
        "except ValueError:\n"
        "    print('raised')\n"
        "else:\n"
        "    print('returned')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_disjoint_cover_on_worked_case():
    rs, gd = _setup("E8")
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    assert disjoint_cover_ok(rs, gd, a.s_pos)
    # the full grade-1 set is theta-symmetric, hence not disjoint from its mirror
    assert not disjoint_cover_ok(rs, gd, gd.m_pos)


def test_parity_lemma_on_worked_case():
    """With the circle test passing, theta - s never lands back in l."""
    rs, gd = _setup("E7")
    t = ToralElement((1,) + (0,) * 6, 2, "coroot")
    a = analyze(rs, gd, t)
    assert a.circle_ok
    cent = centralizer(rs, t)
    theta = rs.highest_root
    for beta in a.s_pos:
        mirror = tuple(x - y for x, y in zip(theta, beta))
        assert mirror not in cent.roots


def test_render_text_report_worked_case():
    rs, gd = _setup("E8")
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    text = render_report(a)
    assert "L = E7 A1" in text
    assert "V = E6 T1 T1" in text
    assert text.endswith("verdict: complex form")


def test_render_text_report_names_failed_criteria():
    rs, gd = _setup("G2")
    a = analyze(rs, gd, ToralElement((0, 0), 2, "coroot"))
    text = render_report(a)
    assert "circle test failed" in text
    assert "dimension test failed" in text


def test_render_json_report_schema_fields():
    rs, gd = _setup("E8")
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    obj = json.loads(json.dumps(a.to_json()))
    assert obj["step6_count"] == 0
    assert obj["s_count"] == 28
    assert obj["m_count"] == 56
    assert obj["verdict"] == "complex-form"
    assert obj["sym"] == {"coords": [0, 0, 0, 0, 0, 0, 0, 1], "denom": 2, "basis": "coroot"}
    assert obj == a.to_json()


def test_grade1_mirror_stays_in_m(rs_of):
    """theta - beta is a grade-1 positive root for every grade-1 beta != theta."""
    for label in ("G2", "F4", "C5", "B6", "A5", "D6", "E7"):
        rs = rs_of(label)
        gd = quaternionic_decomposition(rs)
        theta = rs.highest_root
        m_set = set(gd.m_pos)
        for beta in gd.m_pos:
            mirror = tuple(x - y for x, y in zip(theta, beta))
            assert mirror in m_set


def _assert_slices_match_grade_oracle(monkeypatch, rs, gd, t):
    """analyze's s_pos, l and v root sets equal the dot-product and grade()
    filters.

    l and v are read from the role sums analyze hands to the closure
    kernel, in that order: their positive members are the spare bits of
    the third region.
    """
    calls = []

    def spy(ambient, present):
        _, _, _, width, fill, _, _, _ = ambient._triple_masks
        calls.append(_bits(_base_mask(ambient, present >> 2 * width & ~fill)))
        return _closed_base(ambient, present)

    monkeypatch.setattr(complexform, "_closed_base", spy)
    a = analyze(rs, gd, t)
    l_roots = centralizer_roots_by_dot(rs, t)
    s_pos, v_roots = grade_slices(rs, gd, l_roots)
    pos = rs.positive_roots

    def roots(members):
        return frozenset(pos[x] for x in members) | frozenset(
            tuple(-c for c in pos[x]) for x in members
        )

    assert a.s_pos == s_pos, t.describe()
    assert [roots(m) for m in calls] == [l_roots, v_roots], t.describe()


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank <= 6]
)
def test_analyze_slices_match_grade_oracle_on_involutions(label, monkeypatch):
    rs, gd = _setup(label)
    for coords in product((0, 1), repeat=rs.rank):
        t = ToralElement(coords, 2, "coweight")
        _assert_slices_match_grade_oracle(monkeypatch, rs, gd, t)


@pytest.mark.parametrize("label", ["E7", "E8", "B10", "D10"])
def test_analyze_slices_match_grade_oracle_on_higher_order_elements(label, monkeypatch):
    rs, gd = _setup(label)
    rng = random.Random(f"slices-{label}")
    for _ in range(8):
        d = rng.randint(3, 6)
        coords = tuple(rng.randrange(d) for _ in range(rs.rank))
        t = ToralElement(coords, d, rng.choice(["coroot", "coweight"]))
        _assert_slices_match_grade_oracle(monkeypatch, rs, gd, t)


def _kernel_elements(rs):
    """Every orbit representative, failing orbits included, and the d = 1
    and seeded d = 3-7 elements of ``base_type_test_elements``."""
    reps = [ToralElement(rep, 2, "coweight") for rep in orbit_representatives(rs)]
    return reps + [t for t in base_type_test_elements(rs) if t.denom != 2]


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_kernel_matches_analyze_and_subsystem_oracle(label):
    """analyze's kernel gives the L, V, circle verdict, s and step6 count of
    analyze and of the root-set oracle."""
    rs, gd = _setup(label)
    pos = rs.positive_roots
    for t in _kernel_elements(rs):
        l_type, v_type, circle_ok, s, step6 = complexform._analysis(rs, gd, t)
        got = (l_type, v_type, circle_ok, tuple(pos[x] for x in _bits(s)), step6)
        for a in (analyze(rs, gd, t), analyze_via_subsystems(rs, gd, t)):
            assert got == (a.l_type, a.v_type, a.circle_ok, a.s_pos, a.step6_count), t.describe()


def _assert_matches_subsystem_oracle(rs, gd, t):
    a = analyze(rs, gd, t)
    b = analyze_via_subsystems(rs, gd, t)
    assert a == b, t.describe()
    assert a.to_json() == b.to_json(), t.describe()


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank <= 8]
)
def test_analyze_matches_subsystem_oracle_on_involutions(label):
    rs, gd = _setup(label)
    for coords in product((0, 1), repeat=rs.rank):
        _assert_matches_subsystem_oracle(rs, gd, ToralElement(coords, 2, "coweight"))


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank > 8]
)
def test_analyze_matches_subsystem_oracle_on_orbit_representatives(label):
    rs, gd = _setup(label)
    for rep in orbit_representatives(rs):
        _assert_matches_subsystem_oracle(rs, gd, ToralElement(rep, 2, "coweight"))


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_analyze_matches_subsystem_oracle_on_seeded_elements(label):
    """Uniform coordinates, and small ones that pair to 0 exactly even for
    the huge denominator, in both bases."""
    rs, gd = _setup(label)
    rng = random.Random(f"subsystem-oracle-{label}")
    for d in (1, 3, 4, 5, 6, 10**21):
        for basis in ("coroot", "coweight"):
            for lo, hi in ((0, d), (-2, 3)):
                coords = tuple(rng.randrange(lo, hi) for _ in range(rs.rank))
                _assert_matches_subsystem_oracle(rs, gd, ToralElement(coords, d, basis))


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_v_base_is_l_grade0_base_plus_highest_root(label):
    """The lemma in analyze's docstring: v's base is l's base nodes of
    grade 0, plus the highest root (the last index) when l holds it."""
    rs, gd = _setup(label)
    theta = len(rs.positive_roots) - 1
    grade0 = [x for x, r in enumerate(rs.positive_roots) if grade(rs, gd.node_set, r) == 0]
    for t in base_type_test_elements(rs):
        l_base, v_base = l_and_v_bases(rs, gd, t)
        derived = [x for x in l_base if x in grade0]
        if _pairing_values(rs, t)[-1] % t.denom == 0:
            derived.append(theta)
        assert derived == v_base, t.describe()


# analyze with the closure kernel's second base (v's) short of its last node.
_DROP_LAST_OF_V = """
import quatforms.complexform as complexform
from quatforms import ToralElement, analyze, build_root_system, parse_type
from quatforms import quaternionic_decomposition
from quatforms.subsys import _closed_base
calls = []
def drop_last_of_v(ambient, present):
    calls.append(present)
    base = _closed_base(ambient, present)
    return base ^ 1 << base.bit_length() - 1 if len(calls) == 2 else base
complexform._closed_base = drop_last_of_v
rs = build_root_system(parse_type("E8"))
try:
    analyze(rs, quaternionic_decomposition(rs), ToralElement((0,) * 7 + (1,), 2, "coroot"))
except RuntimeError as exc:
    print(exc)
"""


def test_analyze_refuses_a_v_base_off_the_lemma():
    """A v base that is not l's grade-0 base plus theta raises, also under -O."""
    src = str(Path(quatforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _DROP_LAST_OF_V], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("is not l's grade-0 base plus theta\n"), (flags, proc.stdout)


# Each guard of the v typing (complexform._v_type), reached with the earlier
# guards passing: a fabricated A3 grading whose m holds both base nodes of
# l = A2; tables without rows; tables whose rows gain an A1; and records of
# l's one component, A1 off m at (1, 0, 1) / 3 in A3, that claim the roots
# in m.  The last holds past the closure and base checks, so only a patched
# record reaches it.
_V_GUARDS = """
import dataclasses
import quatforms.complexform as complexform
from quatforms import ToralElement, analyze, build_root_system, parse_type
from quatforms import quaternionic_decomposition
from quatforms.rootsys import SimpleType
from quatforms.subsys import _v_tables

def refusal(label, coords, d, basis, **m_pos):
    rs = build_root_system(parse_type(label))
    gd = dataclasses.replace(quaternionic_decomposition(rs), **m_pos)
    try:
        analyze(rs, gd, ToralElement(coords, d, basis))
    except RuntimeError as exc:
        return str(exc)

e8 = ("E8", (0,) * 7 + (1,), 2, "coroot")
a1 = SimpleType("A", 1)
print(refusal("A3", (0, 0, 1), 2, "coweight", m_pos=((1, 0, 0), (0, 1, 0), (1, 1, 0))))
complexform._v_tables = lambda: ({}, {})
print(refusal(*e8))
complexform._v_tables = lambda: tuple({k: v + (a1,) for k, v in t.items()} for t in _v_tables())
print(refusal(*e8))
complexform._v_tables = _v_tables
type_of = complexform._type_of
m = quaternionic_decomposition(build_root_system(parse_type("A3")))._masks[0]
def claiming_m(*args):
    l_type, comps = type_of(*args)
    return l_type, [(nodes, roots | m, t) for nodes, roots, t in comps]
complexform._type_of = claiming_m
print(refusal("A3", (1, 0, 1), 3, "coweight"))
"""


def test_v_typing_guards_hold_under_optimization():
    """Two base nodes in m in a component off theta, a component with no
    table row, parts whose ranks miss v's base and a component with no node
    in m but a root there each raise RuntimeError, also under -O."""
    src = str(Path(quatforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _V_GUARDS], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        two, no_row, rank, meets = proc.stdout.splitlines()
        assert two == "a component of l = 0x16 off theta has two base nodes in m", flags
        assert re.fullmatch(r"no row types v in \w+, a component of l = 0x[0-9a-f]+", no_row)
        assert re.fullmatch(r"v's parts in l = 0x[0-9a-f]+ miss the rank of v's base", rank)
        assert meets == "a component of l = 0x2 with no base node in m meets m", flags


@pytest.mark.parametrize("label", ["A8", "B9", "C7", "D9", "E8"])
def test_warm_classify_floods_once_per_witness(monkeypatch, label):
    """A warm classify_equal_rank floods l's base once per witness, and
    analyze once per call, theta in l or not: v is typed from l's
    components, with no flood of v's own base."""
    from quatforms.classify import _orbit_table, classify_equal_rank

    rs, gd = _setup(label)
    classify_equal_rank(rs)
    type_of, flooded = complexform._type_of, []

    def counting(ambient, base, members):
        flooded.append(base)
        return type_of(ambient, base, members)

    monkeypatch.setattr(complexform, "_type_of", counting)
    classify_equal_rank(rs)
    assert len(flooded) == len(_orbit_table(rs))
    flooded.clear()
    for coords, d in (((0,) * (rs.rank - 1) + (1,), 2), ((0,) * rs.rank, 1)):
        analyze(rs, gd, ToralElement(coords, d, "coroot"))
    assert len(flooded) == 2


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_front_ends_match_the_list_kernel_on_every_candidate(label):
    """On every mod-2 coweight candidate, the parity front-end (classify's),
    the pairing front-end (analyze's) and the list kernel they replaced
    give the same L, V, circle verdict, s and step6 count."""
    rs, gd = _setup(label)
    for coords in product((0, 1), repeat=rs.rank):
        t = ToralElement(coords, 2, "coweight")
        want = analysis_by_lists(rs, gd, t)
        for got in (complexform._mod2_analysis(rs, gd, coords), complexform._analysis(rs, gd, t)):
            assert (*got[:3], _bits(got[3]), got[4]) == want, t.describe()


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_kernel_matches_the_list_kernel_on_seeded_elements(label):
    """Seeded d = 2-7 elements in both bases, and the d = 1 and
    theta-in-l elements of ``base_type_test_elements``."""
    rs, gd = _setup(label)
    rng = random.Random(f"list-kernel-{label}")
    elements = [t for t in base_type_test_elements(rs) if t.denom != 2]
    for d in range(2, 8):
        for basis in ("coroot", "coweight"):
            coords = tuple(rng.randrange(d) for _ in range(rs.rank))
            elements.append(ToralElement(coords, d, basis))
    for t in elements:
        got = complexform._analysis(rs, gd, t)
        assert (*got[:3], _bits(got[3]), got[4]) == analysis_by_lists(rs, gd, t), t.describe()


def test_analyze_builds_no_subsystem(monkeypatch):
    """analyze stays on positive-root indices: it never builds a Subsystem."""

    def refuse(self):
        raise AssertionError("analyze built a Subsystem")

    monkeypatch.setattr(Subsystem, "__post_init__", refuse)
    rs, gd = _setup("E8")
    a = analyze(rs, gd, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    assert a.is_complex_form
