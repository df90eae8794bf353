"""Complex-form analysis of a toral involution against the node grading.

Given the grading (k, m) of a quaternionic symmetric space G/K and a toral
element with centralizer l, the candidate submanifold S = L/V has complex
tangent part s = l ^ m and isotropy part v = l ^ k.  S is a complex form
exactly when the rank-1 factor of K meets L in a circle (the highest root
pairs nontrivially with the element) and dim_C S equals dim_H M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .involution import ToralElement, _pairing_values
from .rootsys import GradedDecomposition, Root, RootSystem
from .subsys import _A1, CartanType, _base_diagram, _closed_base, _components

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
    nonzero value flags s as failing to be maximal totally complex.  As s
    lies in m, those rows are theta - beta for beta in s ^ ``gd._mirror``.
    """
    m, codes = gd._m_codes, rs._codes
    s = [rs._position[codes[beta]] for beta in s_pos if codes.get(beta) in m]
    if len(s) != len(s_pos):
        raise ValueError("s_pos must consist of grade-1 positive roots")
    return _step6_count(rs, gd, s)


def _step6_count(rs: RootSystem, gd: GradedDecomposition, s: list[int]) -> int:
    """``step6_count`` of the grade-1 positive roots at indices s: how many lie
    in ``gd._mirror``; O(1) on a real grading, whose mirror set is empty."""
    mirror = gd._mirror
    return len(mirror.intersection([rs._pos_codes[x] for x in s])) if mirror else 0


def _verdict(circle_ok: bool, dim_s: int, dim_h: int) -> str:
    return COMPLEX_FORM if circle_ok and dim_s == dim_h else NOT_COMPLEX_FORM


def _analysis(rs: RootSystem, gd: GradedDecomposition, t: ToralElement) -> tuple:
    """(l_type, v_type, circle_ok, s, step6) of t: the kernel of ``analyze``.

    Every step runs on indices into ``rs.positive_roots``, and s lists the
    indices of s.  l keeps those whose pairing with t is 0 mod denom, the
    circle test reads the highest root's pairing (the last), and
    ``gd.in_m`` splits l into s (grade 1) and v.  l and v go through the
    closure check and base of ``Subsystem``; l's base diagram, read once by
    the kernels behind ``recognize``, types both.

    Lemma: the grading g is additive and >= 0 on positive roots, theta
    alone has g = 2, and g = 0 roots are orthogonal to theta.  So v = (l ^
    g^-1(0)) + {+-theta if theta in l}, and the base of l ^ g^-1(0) is l's
    base nodes with g = 0 (Bourbaki, Lie VI 1.7): v is typed from l's
    diagram on those nodes, plus A1 when the circle test fails.
    """
    vals = _pairing_values(rs, t)
    d = t.denom
    # Indices stand for positive roots and their negatives, so each set is
    # symmetric and made of roots by construction; closure is checked.
    kept = [x for x, v in enumerate(vals) if v % d == 0]
    in_m = gd.in_m
    s = [x for x in kept if in_m[x]]
    l_base = _closed_base(rs, kept)
    v_base = _closed_base(rs, [x for x in kept if not in_m[x]])
    circle_ok = vals[-1] % d != 0
    theta = len(vals) - 1
    v0 = [x for x in l_base if not in_m[x] and x != theta]  # l's grade-0 base nodes
    if v0 + [theta] * (not circle_ok) != v_base:
        raise RuntimeError(f"v base at {t.describe()} is not l's grade-0 base plus theta")
    nbrs = _base_diagram(rs, l_base)  # theta + x is no root, so theta meets no edge
    v_parts = _components({x: [e for e in nbrs[x] if not in_m[e[0]]] for x in v0})
    v_parts += [_A1] * (not circle_ok)
    l_type = CartanType._of_table_parts(_components(nbrs), rs.rank - len(l_base))
    v_type = CartanType._of_table_parts(v_parts, rs.rank - len(v_base))
    return l_type, v_type, circle_ok, s, _step6_count(rs, gd, s)


def analyze(
    rs: RootSystem, gd: GradedDecomposition, t: ToralElement
) -> ComplexFormAnalysis:
    """Run the full pipeline: centralizer, grade slices, criteria, verdict.
    ``_analysis`` runs it on positive-root indices; this builds the report."""
    l_type, v_type, circle_ok, s, step6 = _analysis(rs, gd, t)
    dim_s, dim_h = len(s), gd.quaternionic_dim
    return ComplexFormAnalysis(
        ambient=rs.type.label,
        sym=t,
        l_type=l_type,
        v_type=v_type,
        s_pos=tuple(rs.positive_roots[x] for x in s),
        circle_ok=circle_ok,
        dim_s=dim_s,
        dim_h=dim_h,
        m_count=len(gd.m_pos),
        step6_count=step6,
        verdict=_verdict(circle_ok, dim_s, dim_h),
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
