"""Bundled reference cases for the analysis pipeline.

Each case pins one ambient type with the node-indicator toral element
(coroot basis, denominator 2) and the centralizer and isotropy types it
must produce.  These serve as a regression suite for the whole pipeline
and double as a worked compatibility table between Bourbaki numbering
(used everywhere in this package) and LiE numbering (useful when
cross-checking against a LiE session); see docs/numbering-map.md.

Each case stores the attach node in both numberings; its ``sym_bourbaki``
and ``lie_sym`` vectors are derived from them.  ``lie_sym`` carries LiE's
cent_roots layout: rank coordinates followed by the denominator.
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
    """One pinned case: the attach node in both numberings and the L and V
    types its node indicator must produce."""

    label: str
    ambient: str
    node_bourbaki: int
    node_lie: int
    expected_l: CartanType
    expected_v: CartanType
    display_aliases: Mapping[str, str] = field(default_factory=dict)

    def _indicator(self, node: int) -> tuple[int, ...]:
        return tuple(int(i == node) for i in range(1, parse_type(self.ambient).rank + 1))

    @property
    def sym_bourbaki(self) -> tuple[int, ...]:
        """The node indicator in Bourbaki numbering: coroot coordinates over 2."""
        return self._indicator(self.node_bourbaki)

    @property
    def lie_sym(self) -> tuple[int, ...]:
        """The node indicator in LiE numbering, followed by the denominator 2."""
        return (*self._indicator(self.node_lie), 2)


REFERENCE_CASES: tuple[ReferenceCase, ...] = (
    ReferenceCase(
        label="B7",
        ambient="B7",
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("B5", "A1", "A1"),
        expected_v=CartanType.of("B4", torus_rank=3),
    ),
    ReferenceCase(
        label="D7",
        ambient="D7",
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("D5", "A1", "A1"),
        expected_v=CartanType.of("D4", torus_rank=3),
    ),
    ReferenceCase(
        label="G2",
        ambient="G2",
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("A1", "A1"),
        expected_v=CartanType((), 2),
    ),
    ReferenceCase(
        label="F4",
        ambient="F4",
        node_bourbaki=1,
        node_lie=1,
        expected_l=CartanType.of("C3", "A1"),
        expected_v=CartanType.of("A2", torus_rank=2),
        display_aliases={"A1": "C1"},
    ),
    ReferenceCase(
        label="E6",
        ambient="E6",
        node_bourbaki=2,
        node_lie=2,
        expected_l=CartanType.of("A5", "A1"),
        expected_v=CartanType.of("A2", "A2", torus_rank=2),
    ),
    ReferenceCase(
        label="E7",
        ambient="E7",
        node_bourbaki=1,
        node_lie=2,
        expected_l=CartanType.of("D6", "A1"),
        expected_v=CartanType.of("A5", torus_rank=2),
    ),
    ReferenceCase(
        label="E8",
        ambient="E8",
        node_bourbaki=8,
        node_lie=8,
        expected_l=CartanType.of("E7", "A1"),
        expected_v=CartanType.of("E6", torus_rank=2),
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
