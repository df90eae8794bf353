"""Bundled reference cases for the analysis pipeline.

Each case pins one ambient type with the node-indicator toral element
(coroot basis, denominator 2) and the centralizer and isotropy types it
must produce.  These serve as a regression suite for the whole pipeline
and double as a worked compatibility table between Bourbaki numbering
(used everywhere in this package) and LiE numbering (useful when
cross-checking against a LiE session); see docs/numbering-map.md.

The ``lie_sym`` vectors carry LiE's cent_roots layout: rank coordinates
followed by the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .complexform import ComplexFormAnalysis, analyze
from .involution import ToralElement
from .rootsys import build_root_system, parse_type, quaternionic_decomposition
from .subsys import CartanType


@dataclass(frozen=True)
class ReferenceCase:
    label: str
    ambient: str
    sym_bourbaki: tuple[int, ...]
    lie_sym: tuple[int, ...]
    node_bourbaki: int
    node_lie: int
    expected_l: CartanType
    expected_v: CartanType
    s_description: str
    display_aliases: Mapping[str, str] = field(default_factory=dict)


REFERENCE_CASES: tuple[ReferenceCase, ...] = (
    ReferenceCase(
        label="B7",
        ambient="B7",
        sym_bourbaki=(0, 1, 0, 0, 0, 0, 0),
        lie_sym=(0, 1, 0, 0, 0, 0, 0, 2),
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("B5", "A1", "A1"),
        expected_v=CartanType.of("B4", torus_rank=3),
        s_description="SO(11)/[SO(9) x SO(2)] x P^1(C) x P^1(C)",
    ),
    ReferenceCase(
        label="D7",
        ambient="D7",
        sym_bourbaki=(0, 1, 0, 0, 0, 0, 0),
        lie_sym=(0, 1, 0, 0, 0, 0, 0, 2),
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("D5", "A1", "A1"),
        expected_v=CartanType.of("D4", torus_rank=3),
        s_description="SO(10)/[SO(8) x SO(2)] x P^1(C) x P^1(C)",
    ),
    ReferenceCase(
        label="G2",
        ambient="G2",
        sym_bourbaki=(0, 1),
        lie_sym=(0, 1, 2),
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("A1", "A1"),
        expected_v=CartanType((), 2),
        s_description="P^1(C) x P^1(C)",
    ),
    ReferenceCase(
        label="F4",
        ambient="F4",
        sym_bourbaki=(1, 0, 0, 0),
        lie_sym=(1, 0, 0, 0, 2),
        node_bourbaki=1,
        node_lie=1,
        expected_l=CartanType.of("C3", "A1"),
        expected_v=CartanType.of("A2", torus_rank=2),
        s_description="[Sp(3)/U(3)] x P^1(C)",
        display_aliases={"A1": "C1"},
    ),
    ReferenceCase(
        label="E6",
        ambient="E6",
        sym_bourbaki=(0, 1, 0, 0, 0, 0),
        lie_sym=(0, 1, 0, 0, 0, 0, 2),
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("A5", "A1"),
        expected_v=CartanType.of("A2", "A2", torus_rank=2),
        s_description="[SU(6)/S(U(3) x U(3))] x P^1(C)",
    ),
    ReferenceCase(
        label="E7",
        ambient="E7",
        sym_bourbaki=(1, 0, 0, 0, 0, 0, 0),
        lie_sym=(0, 1, 0, 0, 0, 0, 0, 2),
        node_bourbaki=1,
        node_lie=2,
        expected_l=CartanType.of("D6", "A1"),
        expected_v=CartanType.of("A5", torus_rank=2),
        s_description="[SO(12)/U(6)] x P^1(C)",
    ),
    ReferenceCase(
        label="E8",
        ambient="E8",
        sym_bourbaki=(0, 0, 0, 0, 0, 0, 0, 1),
        lie_sym=(0, 0, 0, 0, 0, 0, 0, 1, 2),
        node_bourbaki=8,
        node_lie=8,
        expected_l=CartanType.of("E7", "A1"),
        expected_v=CartanType.of("E6", torus_rank=2),
        s_description="(E7/[E6 x T1]) x P^1(C)",
    ),
)


def run_case(case: ReferenceCase) -> tuple[ComplexFormAnalysis, bool]:
    """Analyze one reference case and compare against its pinned data."""
    rs = build_root_system(parse_type(case.ambient))
    gd = quaternionic_decomposition(rs)
    t = ToralElement(case.sym_bourbaki, denom=2, basis="coroot")
    a = analyze(rs, gd, t)
    ok = (
        a.l_type == case.expected_l
        and a.v_type == case.expected_v
        and a.is_complex_form
        and a.step6_count == 0
    )
    return a, ok
