"""Closed root subsystems and Cartan-type recognition.

A subsystem here is a symmetric, addition-closed subset of an ambient root
system (every centralizer and grade slice this package produces is of that
kind).  Closure is checked, and the base extracted, on the ambient root
system's positive sum triples alpha + beta = gamma: a symmetric set is
closed exactly when no triple has exactly two of its roots in the set,
and the base of a closed set is its positive members that are the sum of
no triple with both summands present (Humphreys, Introduction to Lie
Algebras and Representation Theory, 10.1).  With the triples held as
bitmasks per root system, validation costs a few big-int operations on
the sum of the members' role masks.  The base is split into components
by flooding its nodes through per-root masks of the roots x +- y, and
each component is typed by its rank, its root count and its short simple
roots, looked up in a per-rank table built from Coxeter numbers and the
Cartan matrices that build the root systems (``rootsys._cartan_matrix``).
Both steps are kernels on bitmasks (``_closed_base``, ``_type_of``):
``Subsystem`` and ``recognize`` wrap them for root-tuple sets, and
``complexform.analyze`` calls them directly.  ``_type_of`` also returns
each component's nodes, roots and simple type, and the analysis types
v = l ^ k from those records, not from a second flood: a component of l
off the highest root loses at most one node, of mark 1, to the grade-1
part, and the one that holds it meets k in its own quaternionic isotropy
K_C.  Two tables built from closed-form family rules give those types
(``_v_tables``: C minus a node of mark 1, Bourbaki's plates; K_C, the
paper's quaternionic pairs).  Types come back through ``CartanType``'s
constructor, or its parts cache for the kernels, as one shared instance
per type, so the search and the registry diff compare them by identity;
their SimpleType parts are shared instances too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .rootsys import (
    _RANKS,
    Root,
    RootSystem,
    SimpleType,
    _cartan_matrix,
    _simple_lengths,
    parse_type,
)


class NotClosedError(ValueError):
    """Raised when a root set is not a closed symmetric subsystem."""


class UnclassifiableSubsystemError(RuntimeError):
    """Raised when a base pairs positively or its components match no simple type.

    Unreachable for closed subsystems of a finite root system; raising it
    means an internal invariant was violated.
    """


def _missing(a: Root, op: str, b: Root) -> NotClosedError:
    """The error for a sum or difference a op b that the set lacks."""
    v = tuple(x + y if op == "+" else x - y for x, y in zip(a, b))
    return NotClosedError(f"not a closed subsystem: {a} {op} {b} = {v} is missing")


@dataclass(frozen=True)
class Subsystem:
    """A symmetric, closed set of roots inside an ambient root system.

    Construction validates the set and extracts ``positive_roots``, the
    positive members in the ambient order (height, then lex), and
    ``base``: the indecomposable positive members, in that order.  Both
    come from the ambient system's positive sum triples (u, v, w), u + v
    = w: a triple is bad when exactly two of its roots are members, and a
    bad triple names a missing root, u + v or a difference with w.  The
    base is the positive members that are the w of no triple whose u and
    v are both members (Humphreys 10.1).

    Lemma: a symmetric S is closed iff no positive triple has exactly two
    members in S.  (=>) Any two roots of a triple give the third by one
    sum or difference.  (<=) Take x, y in S with x + y a root; negating
    both if needed (S is symmetric), x > 0.  If y > 0, the triple
    (x, y, x + y) has x and y in S.  If y < 0 < x + y, the triple
    (-y, x + y, x) has -y and x in S.  If x + y < 0, the triple
    (x, -x - y, -y) has x and -y in S.  Each has two members, hence its
    third, which is x + y or, by symmetry, gives it.
    """

    ambient: RootSystem
    roots: frozenset[Root]
    base: tuple[Root, ...] = field(init=False, repr=False, compare=False)
    positive_roots: tuple[Root, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Every step runs on positive-root indices and their masks (see
        # rootsys); root tuples are only looked up for the results and errors.
        ambient = self.ambient
        get_index = ambient._index.get
        xs = [get_index(r) for r in self.roots]
        x_set = set(xs)
        for r, x in zip(self.roots, xs):
            if x is None:
                raise NotClosedError(f"{r} is not a root of {ambient.type.label}")
            if ~x not in x_set:
                raise NotClosedError(f"not symmetric: missing negative of {r}")
        members = sorted([x for x in x_set if x >= 0])
        pos = ambient.positive_roots
        object.__setattr__(self, "positive_roots", tuple(pos[x] for x in members))
        roles = ambient._triple_masks[0]
        base = _closed_base(ambient, sum([roles[x] for x in members]))
        object.__setattr__(self, "base", tuple(pos[x] for x in _bits(_base_mask(ambient, base))))


def _closed_base(ambient: RootSystem, present: int) -> int:
    """Base, as spare bits (``RootSystem._triple_masks``), of the symmetric
    root set whose positive members' role masks sum to present.  Raises
    NotClosedError, naming a missing root, if the set is not closed.

    Lemma (carry): uv has triple t's bit when both its summands are members.
    fill is all ones on each group, so uv + fill carries into root x's spare
    bit, 0 in both, exactly when x is such a sum; the base is the members'
    spare bits in w_in that no carry reaches (Humphreys 10.1)."""
    _, _, _, width, fill, slots, _, _ = ambient._triple_masks
    full = (1 << width) - 1
    u_in = present & full
    v_in = present >> width & full
    w_in = present >> 2 * width
    uv = u_in & v_in
    bad = (uv | (u_in | v_in) & w_in) & ~(uv & w_in)
    if bad:
        # Name the lowest bad triple's two members, the earlier first:
        # u < v < w in ambient order.
        pos = ambient.positive_roots
        t = min(t for t, p in enumerate(slots) if bad >> p & 1)
        u, v, w = ambient._sum_triples[t]
        if not w_in >> slots[t] & 1:
            raise _missing(pos[u], "+", pos[v])
        raise _missing(pos[u] if u_in >> slots[t] & 1 else pos[v], "-", pos[w])
    return w_in & ~(fill | uv + fill)


def _bits(mask: int) -> list[int]:
    """The positions of mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _base_mask(ambient: RootSystem, base: int) -> int:
    """``_closed_base``'s spare bits as a mask of positive-root indices."""
    spare_roots, nodes = ambient._triple_masks[6], 0
    while base:
        low = base & -base
        nodes |= 1 << spare_roots[low.bit_length() - 1]
        base ^= low
    return nodes


def base_of(sub: Subsystem) -> list[Root]:
    """Indecomposable positive elements of the subsystem.

    These form a base: every positive element is a nonnegative integer
    combination, and distinct base elements pair nonpositively (checked
    by ``recognize``).
    """
    return list(sub.base)


# ---------------------------------------------------------------------------
# Cartan types
# ---------------------------------------------------------------------------

_LOW_RANK_ALIASES = {
    ("B", 1): (("A", 1),),
    ("C", 1): (("A", 1),),
    ("C", 2): (("B", 2),),
    ("D", 2): (("A", 1), ("A", 1)),
    ("D", 3): (("A", 3),),
}


def normalize_components(parts: Iterable[SimpleType | tuple[str, int]]) -> tuple[SimpleType, ...]:
    """Apply ``_LOW_RANK_ALIASES`` to int ranks, reusing SimpleTypes; sort by -rank, family."""
    out: list[SimpleType] = []
    for part in parts:
        pair = (part.family, part.rank) if isinstance(part, SimpleType) else part
        if type(pair[1]) is not int:
            raise TypeError(f"rank {pair[1]!r} is not an integer")
        for t in _LOW_RANK_ALIASES.get(pair, (part,)):
            out.append(t if isinstance(t, SimpleType) else SimpleType(*t))
    out.sort(key=lambda t: (-t.rank, t.family))
    return tuple(out)


@dataclass(frozen=True, init=False, eq=False)
class CartanType:
    """A multiset of simple components plus a torus rank, an int >= 0.

    Torus factors are counted, not located.  The constructor normalizes
    the components, (family, rank) pairs becoming SimpleTypes, and returns
    one shared instance per type from its parts cache (``_by_parts``, which
    the kernels call with SimpleTypes directly), as do copies and pickles;
    equality is identity.
    """

    components: tuple[SimpleType, ...]
    torus_rank: int

    def __new__(cls, components: Iterable = (), torus_rank: int = 0) -> CartanType:
        return _by_parts(normalize_components(components), torus_rank)

    def __reduce__(self) -> tuple:
        return CartanType, (self.components, self.torus_rank)

    @cached_property
    def semisimple_rank(self) -> int:
        return sum(t.rank for t in self.components)

    @property
    def total_rank(self) -> int:
        return self.semisimple_rank + self.torus_rank

    def render(self, aliases: Mapping[str, str] | None = None) -> str:
        """Deterministic text form, e.g. ``"E6 T1 T1"``.

        ``aliases`` optionally remaps individual component labels for
        display (for instance ``{"A1": "C1"}`` to echo a symplectic rank-1
        factor); comparisons are unaffected.
        """
        parts = [t.label for t in self.components]
        if aliases:
            parts = [aliases.get(p, p) for p in parts]
        parts.extend(["T1"] * self.torus_rank)
        return " ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "components": [
                {"family": t.family, "rank": t.rank} for t in self.components
            ],
            "torus_rank": self.torus_rank,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CartanType":
        """Inverse of ``to_json``: its keys alone, ranks integers (not bool or float)."""

        def count(x: object) -> int:
            if type(x) is not int:
                raise TypeError(f"rank {x!r} is not an integer")
            return x

        # The keys read below are required, so a count of two rules out others.
        if len(obj) != 2 or any(len(c) != 2 for c in obj["components"]):
            raise ValueError(f"unknown key in Cartan type {obj!r}")
        comps = [SimpleType(c["family"], count(c["rank"])) for c in obj["components"]]
        return cls(tuple(comps), count(obj["torus_rank"]))

    @classmethod
    def of(cls, *labels: str, torus_rank: int = 0) -> "CartanType":
        """Convenience constructor from labels, e.g. ``CartanType.of("E7", "A1")``."""
        return cls(tuple(parse_type(s) for s in labels), torus_rank)

    def __str__(self) -> str:
        return self.render()


@lru_cache(maxsize=None, typed=True)
def _by_parts(parts: tuple[SimpleType, ...], torus_rank: int) -> CartanType:
    """``CartanType``'s instance for SimpleType parts in any order, the
    kernels' entry: the constructor turns raw (family, rank) pairs into
    SimpleTypes first, so a bool or float rank never reaches this cache.
    Typed, so that a torus rank True or 1.0 misses the entry for 1 and is
    refused."""
    if type(torus_rank) is not int:
        raise TypeError(f"torus rank {torus_rank!r} is not an integer")
    if torus_rank < 0:
        raise ValueError("torus rank must be nonnegative")
    return _by_components(normalize_components(parts), torus_rank)


@lru_cache(maxsize=None)
def _by_components(components: tuple[SimpleType, ...], torus_rank: int) -> CartanType:
    """The one instance of each normalized type."""
    self = object.__new__(CartanType)
    vars(self).update(components=components, torus_rank=torus_rank)
    return self


# Coxeter numbers h: a simple type of rank r has r * h / 2 positive roots,
# and h is r + 1 for A, 2r for B and C, 2r - 2 for D, and for the others
# (Bourbaki, Lie VI, Plates I-IX):
_EXCEPTIONAL_COXETER = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}


def _positive_count(t: SimpleType) -> int:
    """N = rank * h / 2, the positive roots of t, h its Coxeter number."""
    r = t.rank
    h = _EXCEPTIONAL_COXETER.get(t.label) or {"A": r + 1, "D": 2 * r - 2}.get(t.family, 2 * r)
    return r * h // 2


@lru_cache(maxsize=None)
def _count_types(rank: int) -> dict[tuple[int, int], SimpleType]:
    """The simple types of one rank, keyed by (N, s): N = rank * h / 2
    positive roots (``_positive_count``), and s the short simple roots of
    ``_simple_lengths`` mod rank (0 when all or none are short).

    A, D and E of one rank differ in N; B_r and C_r share N = r^2 but have
    1 and r - 1 short simple roots; F4 and G2 are alone at their (rank, N).
    A3/D3 and B2/C2 share a key; the first in family order is kept, and
    both normalize to the same ``CartanType``.
    """
    table: dict[tuple[int, int], SimpleType] = {}
    for t in (SimpleType(family, rank) for family, ranks in _RANKS.items() if rank in ranks):
        short = _simple_lengths(_cartan_matrix(t)).count(1)
        table.setdefault((_positive_count(t), short % rank), t)
    return table


def _minus_mark_one(t: SimpleType) -> list[list[tuple[str, int]]]:
    """The diagram of t minus one node of mark 1, for each such node.

    A node's mark is its simple root's coefficient in the highest root
    (Bourbaki, Lie VI, Plates I-IX).  Every node of A_k has mark 1, and
    A_k - j = A_(j-1) A_(k-j).  B_k - 1 = B_(k-1), C_k - k = A_(k-1),
    D_k - 1 = D_(k-1) and D_k - (k-1) = D_k - k = A_(k-1), E6 - 1 =
    E6 - 6 = D5 and E7 - 7 = E6; E8, F4 and G2 have no node of mark 1.
    A part of rank 0 is empty, and B1 and D3 are A1 and A3.
    """
    f, k = t.family, t.rank
    if f == "A":
        return [[("A", j - 1), ("A", k - j)] for j in range(1, k + 1)]
    rows = {"B": [[("B", k - 1)]], "C": [[("A", k - 1)]], "D": [[("D", k - 1)], [("A", k - 1)]]}
    rows.update(E6=[[("D", 5)]], E7=[[("E", 6)]])
    return rows.get(f if f in "BCD" else t.label, [])


def _attach_removed(t: SimpleType) -> list[tuple[str, int]]:
    """The diagram of t minus its attach nodes, those joined to -theta in
    the extended diagram (the node set of ``rootsys.node_set``; both ends
    of A_k, and the one node of A1).  With the A1 of theta it is K_C of the
    quaternionic symmetric pair (G, K) of type t (Wolf 1965; the paper's
    Section "qss"): A_k -> A_(k-2), B_k -> A1 B_(k-2), C_k -> C_(k-1), D_k
    -> A1 D_(k-2), E6 -> A5, E7 -> D6, E8 -> E7, F4 -> C3 and G2 -> A1 (its
    short simple root).  A part of rank below 1 is empty, and D2 is A1 A1.
    """
    f, k = t.family, t.rank
    rows = {"A": [("A", k - 2)], "B": [("A", 1), ("B", k - 2)], "C": [("C", k - 1)]}
    rows.update(D=[("A", 1), ("D", k - 2)], E6=[("A", 5)], E7=[("D", 6)], E8=[("E", 7)])
    rows.update(F4=[("C", 3)], G2=[("A", 1)])
    return rows[f if f in "ABCD" else t.label]


@lru_cache(maxsize=None)
def _v_tables() -> tuple[dict, dict]:
    """(minus, isotropy): the type of v ^ C for a component C of l, keyed by
    (C's simple type, v ^ C's positive-root count), as a tuple of parts.

    ``minus`` holds C minus a node of mark 1 (``_minus_mark_one``), and
    ``isotropy`` holds K_C, A1 plus C minus its attach nodes
    (``_attach_removed``).  Both are keyed by the normalized types, those of
    ``_count_types`` (B2, not C2; A3, not D3), and the counts come from
    ``_positive_count``.  Two nodes of mark 1 in one type give one key only
    when their diagrams agree: A_k - j and A_k - (k + 1 - j) are mirror
    images, and the counts of A_k - j grow with |2j - k - 1|; D_k - 1 has
    (k - 1)(k - 2) positive roots and D_k - k has k(k - 1)/2, equal only at
    D4, where both are A3.
    """
    minus: dict[tuple[SimpleType, int], tuple[SimpleType, ...]] = {}
    isotropy: dict[tuple[SimpleType, int], tuple[SimpleType, ...]] = {}
    for family, ranks in _RANKS.items():
        for rank in ranks:
            t = SimpleType(family, rank)
            if normalize_components([t]) != (t,):
                continue
            rows = [(minus, row) for row in _minus_mark_one(t)]
            for table, row in rows + [(isotropy, [("A", 1), *_attach_removed(t)])]:
                parts = normalize_components([p for p in row if p[1] > 0])
                table[t, sum(map(_positive_count, parts))] = parts
    return minus, isotropy


def recognize(sub: Subsystem) -> CartanType:
    """Cartan type of a closed subsystem, torus factors included: each base
    component by its rank, root count and short simple roots (``_type_of``),
    and the torus rank as the ambient rank minus the base size (correct for
    the full-rank subsystems this package produces)."""
    index = sub.ambient._index
    base = sum([1 << index[r] for r in sub.base])
    members = sum([1 << index[r] for r in sub.positive_roots])
    return _type_of(sub.ambient, base, members)[0]


def _type_of(ambient: RootSystem, base: int, members: int) -> tuple[CartanType, list]:
    """Cartan type of the closed subsystem whose base and positive members
    are these masks of positive-root indices, and a record (nodes, roots,
    simple type) of each of its components, nodes and roots as masks.

    The base nodes are flooded into components through ``near`` (x +- y a
    root, or x = y; ``RootSystem._triple_masks``), refusing two nodes that
    differ by a root.  A component's roots are the members near one of its
    nodes, and it is typed by (k, N, s), its node count, root count and
    short nodes (``RootSystem._short_mask``) mod k, in ``_count_types(k)``;
    the type is the constructor's shared instance, reached through its
    parts cache (``_by_parts``), as the parts are SimpleTypes already.

    Lemma: a member y lies in base node b's component exactly when y +- b is
    a root, or y = b, for some b in that component.  y pairs nonzero with
    some base node of its own component, which spans it, so y + b or y - b
    is a root (Humphreys 9.4).  Across components, x +- y is never a root:
    closure would put it in the subsystem, and [C, C'] = 0.  Two base nodes
    never differ by a root (closure would make one a sum), so they are
    joined exactly when their sum is a root.  Components whose roots
    overlap, members no component covers and a key that names no type
    raise UnclassifiableSubsystemError: none occurs for a closed subsystem
    and its base.

    The records let ``complexform._kernel`` type v = l ^ k from l's
    components with the tables of ``_v_tables``, so one flood serves both.
    """
    _, _, diffs, *_, near = ambient._triple_masks
    shorts, comps, parts, covered, left = ambient._short_mask, [], [], 0, base
    while left:
        comp = grow = left & -left
        roots = 0
        while grow:  # flood the component from its lowest node
            low = grow & -grow
            grow ^= low
            x = low.bit_length() - 1
            if bad := diffs[x] & base:
                pos, y = ambient.positive_roots, (bad & -bad).bit_length() - 1
                raise UnclassifiableSubsystemError(
                    f"base elements {pos[x]}, {pos[y]} pair positively or differ by a root"
                )
            nx = near[x]
            roots |= nx
            nx &= base
            grow |= nx & ~comp
            comp |= nx
        left ^= comp
        roots &= members
        if roots & covered:
            raise UnclassifiableSubsystemError("base components share a root")
        covered |= roots
        k = comp.bit_count()
        t = _count_types(k).get((roots.bit_count(), (comp & shorts).bit_count() % k))
        parts.append(t)
        comps.append((comp, roots, t))
    if covered != members:
        raise UnclassifiableSubsystemError("base components do not cover the subsystem")
    if None in parts:
        raise UnclassifiableSubsystemError("base component matches no simple type")
    return _by_parts(tuple(parts), ambient.rank - base.bit_count()), comps
