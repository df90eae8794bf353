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
the sum of the members' role masks.  The base diagram's edges are read
off per-root sum masks and its Cartan entries off root lengths, and each
component is looked up by a packed key in a per-rank table of the Dynkin
diagrams that build the root systems (``rootsys._cartan_matrix``).  Both
steps are kernels on bitmasks (``_closed_base``, ``_components``):
``Subsystem`` and ``recognize`` wrap them for root-tuple sets, and
``complexform.analyze`` calls them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

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
    """Raised when a base pairs positively or its diagram is no Dynkin diagram.

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
        # Every step runs on packed root codes and positions (see rootsys);
        # root tuples are only looked up for the results and error messages.
        ambient = self.ambient
        get_code = ambient._codes.get
        codes = [get_code(r) for r in self.roots]
        code_set = set(codes)
        for r, c in zip(self.roots, codes):
            if c is None:
                raise NotClosedError(f"{r} is not a root of {ambient.type.label}")
            if -c not in code_set:
                raise NotClosedError(f"not symmetric: missing negative of {r}")
        position = ambient._position
        members = sorted([position[c] for c in code_set if c > 0])
        pos = ambient.positive_roots
        object.__setattr__(self, "positive_roots", tuple(pos[x] for x in members))
        roles = ambient._triple_masks[0]
        base = _closed_base(ambient, sum([roles[x] for x in members]))
        object.__setattr__(self, "base", tuple(pos[x] for x in _base_indices(ambient, base)))


def _closed_base(ambient: RootSystem, present: int) -> int:
    """Base, as spare bits (``RootSystem._triple_masks``), of the symmetric
    root set whose positive members' role masks sum to present.  Raises
    NotClosedError, naming a missing root, if the set is not closed.

    Lemma (carry): uv has triple t's bit when both its summands are members.
    fill is all ones on each group, so uv + fill carries into root x's spare
    bit, 0 in both, exactly when x is such a sum; the base is the members'
    spare bits in w_in that no carry reaches (Humphreys 10.1)."""
    _, _, _, width, fill, slots, _ = ambient._triple_masks
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


def _base_indices(ambient: RootSystem, base: int) -> list[int]:
    """``_closed_base``'s spare bits as ascending positive-root indices."""
    spare_roots = ambient._triple_masks[6]
    return [spare_roots[p] for p in _bits(base)]


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
_ORDER = attrgetter("_order")  # components by -rank, then family


def normalize_components(parts: Iterable[SimpleType | tuple[str, int]]) -> tuple[SimpleType, ...]:
    """Apply ``_LOW_RANK_ALIASES``, reusing unaliased SimpleTypes; sort by -rank, family."""
    out: list[SimpleType] = []
    for part in parts:
        pair = (part.family, part.rank) if isinstance(part, SimpleType) else part
        for t in _LOW_RANK_ALIASES.get(pair, (part,)):
            out.append(t if isinstance(t, SimpleType) else SimpleType(*t))
    out.sort(key=_ORDER)
    return tuple(out)


@dataclass(frozen=True)
class CartanType:
    """A multiset of simple components plus a torus rank.

    Torus factors are counted, not located; comparisons always use the
    normalized component list.
    """

    components: tuple[SimpleType, ...]
    torus_rank: int = 0

    def __post_init__(self) -> None:
        if self.torus_rank < 0:
            raise ValueError("torus rank must be nonnegative")
        normalized = normalize_components(self.components)
        object.__setattr__(self, "components", normalized)
        object.__setattr__(self, "_hash", hash((normalized, self.torus_rank)))

    @classmethod
    def _of_table_parts(cls, parts: list[SimpleType], torus_rank: int) -> "CartanType":
        """The type of components from ``_diagram_types``, which holds no
        low-rank alias: sorted, with no alias lookup, as its one instance."""
        return _interned(tuple(sorted(parts, key=_ORDER)), torus_rank)

    def __hash__(self) -> int:  # cached: classify keys dicts by (L, V) pairs
        return self._hash

    @property
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


@lru_cache(maxsize=None)
def _interned(comps: tuple[SimpleType, ...], torus_rank: int) -> CartanType:
    """One instance per type, so that the search's dict hits and the diff
    against the bundled registry compare by identity, not by ``__eq__``."""
    self = object.__new__(CartanType)
    vars(self).update(components=comps, torus_rank=torus_rank, _hash=hash((comps, torus_rank)))
    return self


_Adjacency = dict[int, int]  # each node's neighbours, as a mask of node bits
# The entries (a_ij, a_ji) across an edge from the squared lengths of its
# ends, whose ratio is 1, 2 or 3 (Humphreys 9.4), and the 15 classes (a_ij,
# a_ji, degree of j) a Dynkin diagram's neighbours can show, keyed by the
# two lengths and the degree.
_ENTRIES = {
    (a, b): (-(a // b or 1), -(b // a or 1)) for a, b in product((1, 2, 3), repeat=2) if a * b != 6
}
_CLASSES = sorted(set(_ENTRIES.values()))
_EDGE_CLASSES = {
    (*ab, d): 4 ** (3 * _CLASSES.index(e) + d - 1) for ab, e in _ENTRIES.items() for d in (1, 2, 3)
}


def _component_keys(adj: _Adjacency, lengths: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Isomorphism key of each connected component of a base diagram.

    ``adj[i]`` masks the neighbours of node i, and ``lengths[i]`` is its
    squared length, which fixes the entries a_ij = <b_i, b_j-check> across
    its edges (``_ENTRIES``).  A key is the node count and the sorted ints
    that pack each node's multiset of (a_ij, a_ji, degree of j), as the sum
    of their ``_EDGE_CLASSES``.  A neighbour outside those classes raises
    KeyError, so all degrees are at most 3, no count overflows its two
    bits, and the ints hold the multisets.  A connected diagram shares a key
    with a Dynkin diagram only if it is that diagram:

    - The degrees fix the edge count, so a match with n nodes has n - 1
      edges and is a tree.
    - At a multiple edge the entries fix which end is a leaf and the
      arrow: B_n (short leaf), C_n (long leaf) and F4 (no leaf) differ.
    - At the branch point the neighbours' degrees fix how many arms have
      length 1 (D_n two, E_n one); one step out, the neighbours of the
      degree-2 nodes fix which arm has length 2, so E8 (arms 1, 2, 4)
      differs from the tree with arms 1, 3, 3.
    """
    keys, left = [], 0
    for i in adj:
        left |= 1 << i
    while left:
        comp = grow = left & -left
        ints = []
        while grow:  # flood the component from its lowest node, packing each node
            low = grow & -grow
            grow ^= low
            i = low.bit_length() - 1
            nbrs, li, packed = adj[i], lengths[i], 0
            grow |= nbrs & ~comp
            comp |= nbrs
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                j = low.bit_length() - 1
                packed += _EDGE_CLASSES[li, lengths[j], adj[j].bit_count()]
            ints.append(packed)
        left ^= comp
        ints.sort()
        keys.append((len(ints), tuple(ints)))
    return keys


@lru_cache(maxsize=None)
def _diagram_types(rank: int) -> dict[tuple, SimpleType]:
    """The simple types of one rank, keyed by their Dynkin diagrams.

    Built once per rank from the Cartan matrices that build the root
    systems.  A3/D3 and B2/C2 share a key; the first in family order is
    kept, and both normalize to the same ``CartanType``.
    """
    table: dict[tuple, SimpleType] = {}
    for t in (SimpleType(family, rank) for family, ranks in _RANKS.items() if rank in ranks):
        a = _cartan_matrix(t)
        adj = {i: sum([1 << j for j in range(rank) if j != i and a[i][j]]) for i in range(rank)}
        table.setdefault(_component_keys(adj, _simple_lengths(a))[0], t)
    return table


def _components(adj: _Adjacency, lengths: Sequence[int]) -> list[SimpleType]:
    """The simple type of each component of a base diagram, by table lookup."""
    try:
        return [_diagram_types(key[0])[key] for key in _component_keys(adj, lengths)]
    except KeyError:
        raise UnclassifiableSubsystemError("base diagram matches no simple type") from None


def recognize(sub: Subsystem) -> CartanType:
    """Cartan type of a closed subsystem, torus factors included.

    The base diagram is split into connected components and each is looked
    up among the Dynkin diagrams; the torus rank is the ambient rank minus
    the base size (correct for the full-rank subsystems this package
    produces).
    """
    position, codes = sub.ambient._position, sub.ambient._codes
    return _base_type(sub.ambient, [position[codes[r]] for r in sub.base])


def _base_type(ambient: RootSystem, base: list[int]) -> CartanType:
    """Cartan type of the subsystem whose base is at these positive-root indices."""
    parts = _components(_adjacency(ambient, base), ambient._sq_lengths)
    return CartanType._of_table_parts(parts, ambient.rank - len(base))


def _adjacency(ambient: RootSystem, base: list[int]) -> _Adjacency:
    """Neighbour masks of the base diagram at these positive-root indices.

    Lemma: for base elements a, b of a closed symmetric subsystem S, a - b
    is no root (closure would put it in S, and a or b would be a sum of two
    positive members), so the b-string through a starts at a and <a,
    b-check> = -q is nonzero exactly when a + b is a root (Humphreys 9.4,
    10.1).  Edges are read off the sum masks, a pair differing by a root is
    refused, and the entries across an edge follow from the root lengths
    (``_ENTRIES``): no root string is walked."""
    _, sums, diffs, *_ = ambient._triple_masks
    base_mask = sum([1 << x for x in base])
    adj: _Adjacency = {}
    for x in base:
        if bad := diffs[x] & base_mask:
            pos, y = ambient.positive_roots, (bad & -bad).bit_length() - 1
            raise UnclassifiableSubsystemError(
                f"base elements {pos[x]}, {pos[y]} pair positively or differ by a root"
            )
        adj[x] = sums[x] & base_mask
    return adj
