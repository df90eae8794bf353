from __future__ import annotations

import pytest

from quatforms import REFERENCE_CASES, run_case
from quatforms.rootsys import build_root_system, node_set, parse_type


def test_registry_has_the_seven_cases():
    assert [c.label for c in REFERENCE_CASES] == [
        "B7", "D7", "G2", "F4", "E6", "E7", "E8",
    ]


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: c.label)
def test_case_reproduces_pinned_types(case):
    a, ok = run_case(case)
    assert ok
    assert a.l_type == case.expected_l
    assert a.v_type == case.expected_v
    assert a.step6_count == 0
    assert a.verdict == "complex-form"


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: c.label)
def test_case_sym_is_the_node_indicator(case):
    """Each pinned vector is the indicator of the diagram's attach node."""
    rs = build_root_system(parse_type(case.ambient))
    nodes = node_set(rs)
    assert case.node_bourbaki in nodes
    expected = tuple(
        1 if i + 1 == case.node_bourbaki else 0 for i in range(rs.rank)
    )
    assert case.sym_bourbaki == expected
    # LiE layout: rank coordinates followed by the denominator
    assert len(case.lie_sym) == rs.rank + 1
    assert case.lie_sym[-1] == 2
    assert case.lie_sym[case.node_lie - 1] == 1
    assert sum(case.lie_sym) == 3


def test_numbering_map_is_identity_except_e7():
    for case in REFERENCE_CASES:
        if case.ambient == "E7":
            assert (case.node_bourbaki, case.node_lie) == (1, 2)
        else:
            assert case.node_bourbaki == case.node_lie


def test_f4_display_alias_echoes_symplectic_rank_one():
    f4 = next(c for c in REFERENCE_CASES if c.label == "F4")
    assert f4.expected_l.render(f4.display_aliases) == "C3 C1"
    assert f4.expected_v.render(f4.display_aliases) == "A2 T1 T1"
    e8 = next(c for c in REFERENCE_CASES if c.label == "E8")
    assert e8.expected_l.render(e8.display_aliases) == "E7 A1"
    assert e8.expected_v.render(e8.display_aliases) == "E6 T1 T1"
