"""Complex-form analysis of a toral involution against the node grading.

Given the grading (k, m) of a quaternionic symmetric space G/K and a toral
element with centralizer l, the candidate submanifold S = L/V has complex
tangent part s = l ^ m and isotropy part v = l ^ k.  S is a complex form
exactly when the rank-1 factor of K meets L in a circle (the highest root
pairs nontrivially with the element) and dim_C S equals dim_H M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .involution import ToralElement, centralizer, pairing
from .rootsys import GradedDecomposition, Root, RootSystem
from .subsys import CartanType, Subsystem, recognize

COMPLEX_FORM = "complex-form"
NOT_COMPLEX_FORM = "not-complex-form"


@dataclass(frozen=True)
class ComplexFormAnalysis:
    """Outcome of analyzing one toral element on one graded root system."""

    ambient: str
    sym: ToralElement
    l_type: CartanType
    v_type: CartanType
    s_pos: tuple[Root, ...]
    circle_ok: bool
    dim_s: int
    dim_h: int
    m_count: int
    step6_count: int
    verdict: str

    @property
    def is_complex_form(self) -> bool:
        return self.verdict == COMPLEX_FORM

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient,
            "sym": self.sym.to_json(),
            "l_type": self.l_type.to_json(),
            "v_type": self.v_type.to_json(),
            "s_count": self.dim_s,
            "m_count": self.m_count,
            "circle_ok": self.circle_ok,
            "step6_count": self.step6_count,
            "verdict": self.verdict,
        }


def step6_count(rs: RootSystem, gd: GradedDecomposition, s_pos: tuple[Root, ...]) -> int:
    """Row-count surplus of [s, highest - s, m] over m after deduplication.

    The rows are the positive roots of s, the highest root minus each of
    them (kept even when the difference is not a root), and the positive
    roots of m; the count is the number of distinct rows beyond |m|.  A
    nonzero value flags s as failing to be maximal totally complex.  Rows
    are compared as packed root codes; s_pos is checked against the cached
    set of grade +-1 roots (``GradedDecomposition._m_roots``).
    """
    m_roots = gd._m_roots
    if not all(beta in m_roots and sum(beta) > 0 for beta in s_pos):
        raise ValueError("s_pos must consist of grade-1 positive roots")
    codes = rs._codes
    theta = codes[rs.highest_root]
    rows = {codes[beta] for beta in s_pos}
    rows.update(theta - codes[beta] for beta in s_pos)
    rows.update(codes[beta] for beta in gd.m_pos)
    return len(rows) - len(gd.m_pos)


def analyze(
    rs: RootSystem, gd: GradedDecomposition, t: ToralElement
) -> ComplexFormAnalysis:
    """Run the full pipeline: centralizer, grade slices, criteria, verdict.

    The centralizer reads the root system's parent table (see
    ``centralizer_roots``).  The grade slices are taken by membership in
    the cached set of grade +-1 roots (``GradedDecomposition._m_roots``):
    s is the centralizer's positive roots inside it, v its roots outside.
    """
    cent = centralizer(rs, t)
    l_type = recognize(cent)
    m_roots = gd._m_roots
    s_pos = tuple(alpha for alpha in cent.positive_roots if alpha in m_roots)
    v_roots = cent.roots - m_roots
    v_type = recognize(Subsystem(rs, v_roots))
    circle_ok = pairing(rs, t, rs.highest_root) != 0
    dim_s = len(s_pos)
    dim_h = gd.quaternionic_dim
    verdict = COMPLEX_FORM if circle_ok and dim_s == dim_h else NOT_COMPLEX_FORM
    return ComplexFormAnalysis(
        ambient=rs.type.label,
        sym=t,
        l_type=l_type,
        v_type=v_type,
        s_pos=s_pos,
        circle_ok=circle_ok,
        dim_s=dim_s,
        dim_h=dim_h,
        m_count=len(gd.m_pos),
        step6_count=step6_count(rs, gd, s_pos),
        verdict=verdict,
    )


def render_report(a: ComplexFormAnalysis) -> str:
    """The analysis as a deterministic text report; ``a.to_json()`` is its JSON form."""
    lines = [
        f"ambient: {a.ambient}",
        f"sym: {a.sym.describe()}",
        f"L = {a.l_type.render()}",
        f"V = {a.v_type.render()}",
        f"dim_C S = {a.dim_s}",
        f"dim_H M = {a.dim_h}",
        f"circle test: {'pass' if a.circle_ok else 'fail'}",
        f"step6 count: {a.step6_count}",
    ]
    if a.is_complex_form:
        lines.append("verdict: complex form")
    else:
        reasons = []
        if not a.circle_ok:
            reasons.append("circle test failed")
        if a.dim_s != a.dim_h:
            reasons.append(f"dimension test failed: dim_C S = {a.dim_s} != {a.dim_h} = dim_H M")
        lines.append(f"verdict: not a complex form ({'; '.join(reasons)})")
    return "\n".join(lines)
