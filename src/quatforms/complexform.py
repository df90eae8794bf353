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
from .rootsys import GradedDecomposition, Root, RootSystem, SimpleType
from .subsys import CartanType, _base_mask, _bits, _by_parts, _closed_base, _type_of

COMPLEX_FORM = "complex-form"
NOT_COMPLEX_FORM = "not-complex-form"


@dataclass(frozen=True)
class ComplexFormAnalysis:
    """Outcome of analyzing one toral element on one graded root system.

    dim_C S and dim_H M are derived from ``s_pos`` and ``m_count``.
    """

    ambient: str
    sym: ToralElement
    l_type: CartanType
    v_type: CartanType
    s_pos: tuple[Root, ...]
    circle_ok: bool
    m_count: int
    step6_count: int
    verdict: str

    @property
    def dim_s(self) -> int:
        return len(self.s_pos)

    @property
    def dim_h(self) -> int:
        return self.m_count // 2

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
    lies in m, those rows are theta - beta for beta in s ^ ``gd._mirror``,
    and a root listed twice in s_pos is one row.
    """
    index, m, s = rs._index, gd._masks[0], 0
    for beta in s_pos:
        x = index.get(beta, -1)  # a negative root's index is ~x < 0
        if x < 0 or not m >> x & 1:
            raise ValueError("s_pos must consist of grade-1 positive roots")
        s |= 1 << x
    return (s & gd._mirror).bit_count()


def _verdict(circle_ok: bool, dim_s: int, dim_h: int) -> str:
    return COMPLEX_FORM if circle_ok and dim_s == dim_h else NOT_COMPLEX_FORM


def _kernel(rs: RootSystem, gd: GradedDecomposition, kept: int, present: int) -> tuple:
    """(l_type, v_type, circle_ok, s, step6) of the centralizer l with positive
    member mask kept and role sum present (``RootSystem._triple_masks``), s a
    member mask: the kernel of ``analyze`` and ``classify_equal_rank``.

    v = l ^ k has role sum present & the role bits of the roots off m, and l
    holds the highest root theta exactly when present has theta's spare bit,
    the top role bit.  Lemma: the grading g is additive and >= 0 on positive
    roots, theta alone has g = 2, and g = 0 roots are orthogonal to theta,
    so v = (l ^ g^-1(0)) + {+-theta if theta in l}, and v's base is l's base
    nodes off m, plus theta when l holds it (Bourbaki, Lie VI 1.7): one mask
    comparison checks it, and turns l's base as root indices into v's with
    no second pass over spare bits.  l is typed by one flood of its base
    (``subsys._type_of``), and v from l's components (``_v_type``).
    """
    m, v_roles = gd._masks
    width = rs._triple_masks[3]
    v_present = present & v_roles
    l_base, v_base = _closed_base(rs, present), _closed_base(rs, v_present)
    theta = present >> 3 * width - 1 << width - 1  # theta's spare bit if theta is in l
    if v_base != l_base & v_present >> 2 * width | theta:
        raise RuntimeError(f"v base of l = {kept:#x} is not l's grade-0 base plus theta")
    l_nodes = _base_mask(rs, l_base)
    v_nodes = l_nodes & ~m | bool(theta) << len(rs.positive_roots) - 1
    l_type, comps = _type_of(rs, l_nodes, kept)
    v_type = _v_type(rs, m, v_nodes, comps, kept)
    s = kept & m
    return l_type, v_type, not theta, s, (s & gd._mirror).bit_count()


# v ^ C for a component C of l, keyed by (C's simple type, v ^ C's positive
# roots, whether C holds theta): a per-type table, filled on first use.
_V_ROWS: dict[tuple[SimpleType, int, int], tuple[SimpleType, ...]] = {}


def _v_type(rs: RootSystem, m: int, v_nodes: int, comps: list, kept: int) -> CartanType:
    """Type of v = l ^ k from l's component records (``subsys._type_of``),
    with v's base v_nodes and m the grade-1 mask; kept, l's member mask,
    names l in errors.

    Lemma: g is additive and >= 0, theta alone has g = 2, and g agrees with
    <., theta-check> (the paper's Section "qss").  Take a component C of l
    and its highest root theta_C, the sum of C's base nodes times their
    marks.  If theta is in C, theta = theta_C and g is C's own grading
    <., theta_C-check>, so v ^ C is K_C, the quaternionic isotropy of C: A1
    plus C minus the nodes joined to -theta.  Else g(theta_C) <= 1, so at
    most one base node of C lies in m, with mark 1, and v ^ C is C minus
    that node, or C whole if none does.  So v ^ C's type depends only on
    C's type, whether C holds theta and v ^ C's positive-root count, which
    tells apart two mark-1 nodes of one type unless a diagram symmetry
    swaps them: A_k - j and A_k - (k + 1 - j) are mirror images, and the
    counts of A_k - j grow with |2j - k - 1|; D_k - 1 has (k - 1)(k - 2)
    positive roots and D_k - k has k(k - 1)/2, equal only at D4, where both
    are A3 (Bourbaki, Lie VI, Plates I-IX).  ``_V_ROWS`` keeps that type
    under that key, filled on a miss by one flood (``subsys._type_of``) of
    v ^ C's base, v's base nodes in C.  The torus is the ambient rank minus
    v's semisimple rank, which holds for any denominator.  Two nodes in m
    off theta's component, a root in m in a component with no node in m,
    and parts whose ranks miss v's base size raise RuntimeError.
    """
    top, parts = len(rs.positive_roots) - 1, []
    for nodes, roots, t in comps:
        cut, theta = nodes & m, roots >> top & 1
        if not (theta or cut):
            if roots & m:
                raise RuntimeError(f"a component of l = {kept:#x} with no base node in m meets m")
            parts.append(t)
            continue
        if not theta and cut & cut - 1:
            raise RuntimeError(f"a component of l = {kept:#x} off theta has two base nodes in m")
        v_roots = roots & ~m
        key = (t, v_roots.bit_count(), theta)
        row = _V_ROWS.get(key)
        if row is None:
            row = _V_ROWS[key] = _type_of(rs, v_nodes & roots, v_roots)[0].components
        parts += row
    rank = v_nodes.bit_count()
    v_type = _by_parts(tuple(parts), rs.rank - rank)
    if v_type.semisimple_rank != rank:
        raise RuntimeError(f"v's parts in l = {kept:#x} miss the rank of v's base")
    return v_type


def _analysis(rs: RootSystem, gd: GradedDecomposition, t: ToralElement) -> tuple:
    """``_kernel`` of t: l keeps the positive roots whose ``_pairing_values``
    entry is 0 mod denom."""
    d, roles = t.denom, rs._triple_masks[0]
    kept = [x for x, v in enumerate(_pairing_values(rs, t)) if v % d == 0]
    return _kernel(rs, gd, sum([1 << x for x in kept]), sum([roles[x] for x in kept]))


def _mod2_analysis(rs: RootSystem, gd: GradedDecomposition, coords: tuple[int, ...]) -> tuple:
    """``_kernel`` of the coweight-basis element coords / 2.  Lemma: c . r mod
    2 is F2-linear in c, and member and role bits are disjoint between roots,
    so c's member mask and role sum are XORs of ``RootSystem._parity_masks``."""
    (kept, present), odd = rs._parity_masks
    for c, (k, r) in zip(coords, odd):
        if c:
            kept ^= k
            present ^= r
    return _kernel(rs, gd, kept, present)


def analyze(
    rs: RootSystem, gd: GradedDecomposition, t: ToralElement
) -> ComplexFormAnalysis:
    """Run the full pipeline: centralizer, grade slices, criteria, verdict.
    ``_analysis`` runs it on bitmasks; this builds the report."""
    l_type, v_type, circle_ok, s, step6 = _analysis(rs, gd, t)
    return ComplexFormAnalysis(
        ambient=rs.type.label,
        sym=t,
        l_type=l_type,
        v_type=v_type,
        s_pos=tuple(rs.positive_roots[x] for x in _bits(s)),
        circle_ok=circle_ok,
        m_count=len(gd.m_pos),
        step6_count=step6,
        verdict=_verdict(circle_ok, s.bit_count(), gd.quaternionic_dim),
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
