"""Closed root subsystems and Cartan-type recognition.

A subsystem here is a symmetric, addition-closed subset of an ambient root
system (every centralizer and grade slice this package produces is of that
kind).  Closure is checked, and the base extracted, on the ambient root
system's positive sum triples alpha + beta = gamma: a symmetric set is
closed exactly when no triple has exactly two of its roots in the set,
and the base of a closed set is its positive members that are the sum of
no triple with both summands present (Humphreys, Introduction to Lie
Algebras and Representation Theory, 10.1).  With the triples held as
bitmasks per root system, validation costs O(k) big-int operations for
k positive members.  The type of the base diagram is read off by a tree
certificate: edge multiplicities, branch shape and arrow direction pin
the component down to one entry of the classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .rootsys import Root, RootSystem, SimpleType, _string_pairing


class NotClosedError(ValueError):
    """Raised when a root set is not a closed symmetric subsystem."""


class UnclassifiableSubsystemError(RuntimeError):
    """Raised when a base diagram matches no simple type.

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
        # Role bits are disjoint between roots, so the sum is their union.
        roles, sums = ambient._triple_masks
        n_triples = len(ambient._sum_triples)
        present = sum([roles[x] for x in members])
        full = (1 << n_triples) - 1
        u_in = present & full
        v_in = present >> n_triples & full
        w_in = present >> 2 * n_triples
        uv = u_in & v_in
        bad = (uv | (u_in | v_in) & w_in) & ~(uv & w_in)
        if bad:
            # Name the lowest bad triple's two members, the earlier first:
            # u < v < w in ambient order.
            t = (bad & -bad).bit_length() - 1
            u, v, w = ambient._sum_triples[t]
            if not w_in >> t & 1:
                raise _missing(pos[u], "+", pos[v])
            raise _missing(pos[u] if u_in >> t & 1 else pos[v], "-", pos[w])
        object.__setattr__(
            self, "base", tuple(pos[x] for x in members if not uv & sums[x])
        )


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
    ("D", 1): (("A", 1),),
    ("D", 2): (("A", 1), ("A", 1)),
    ("D", 3): (("A", 3),),
}


def normalize_components(pairs: Iterable[tuple[str, int]]) -> tuple[SimpleType, ...]:
    """Apply low-rank aliases and sort components canonically.

    Canonical order is rank descending, then family letter; B1, C1 and D1
    become A1, C2 becomes B2, D2 becomes A1+A1, D3 becomes A3.
    """
    out: list[SimpleType] = []
    for family, rank in pairs:
        for f, r in _LOW_RANK_ALIASES.get((family, rank), ((family, rank),)):
            out.append(SimpleType(f, r))
    out.sort(key=lambda t: (-t.rank, t.family))
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
        normalized = normalize_components((t.family, t.rank) for t in self.components)
        object.__setattr__(self, "components", normalized)

    @property
    def semisimple_rank(self) -> int:
        return sum(t.rank for t in self.components)

    @property
    def total_rank(self) -> int:
        return self.semisimple_rank + self.torus_rank

    def render(self, aliases: Mapping[str, str] | None = None, sep: str = " ") -> str:
        """Deterministic text form, e.g. ``"E6 T1 T1"``.

        ``aliases`` optionally remaps individual component labels for
        display (for instance ``{"A1": "C1"}`` to echo a symplectic rank-1
        factor); comparisons are unaffected.
        """
        parts = [t.label for t in self.components]
        if aliases:
            parts = [aliases.get(p, p) for p in parts]
        parts.extend(["T1"] * self.torus_rank)
        return sep.join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "components": [
                {"family": t.family, "rank": t.rank} for t in self.components
            ],
            "torus_rank": self.torus_rank,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CartanType":
        """Inverse of ``to_json``; ranks must be integers (not bool or float)."""

        def count(x: object) -> int:
            if type(x) is not int:
                raise TypeError(f"rank {x!r} is not an integer")
            return x

        comps = [SimpleType(c["family"], count(c["rank"])) for c in obj["components"]]
        return cls(tuple(comps), count(obj["torus_rank"]))

    @classmethod
    def of(cls, *labels: str, torus_rank: int = 0) -> "CartanType":
        """Convenience constructor from labels, e.g. ``CartanType.of("E7", "A1")``."""
        from .rootsys import parse_type

        return cls(tuple(parse_type(s) for s in labels), torus_rank)

    def __str__(self) -> str:
        return self.render()


def _classify_component(
    pairing: list[list[int]], nodes: list[int]
) -> SimpleType:
    """Recognize one connected base diagram from its Cartan pairings."""
    n = len(nodes)
    if n == 1:
        return SimpleType("A", 1)

    idx = {v: k for k, v in enumerate(nodes)}
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    edges: list[tuple[int, int, int]] = []  # (i, j, multiplicity)
    for a in range(n):
        for b in range(a + 1, n):
            pab = pairing[nodes[a]][nodes[b]]
            pba = pairing[nodes[b]][nodes[a]]
            if pab == 0:
                continue
            mult = pab * pba
            if mult not in (1, 2, 3):
                raise UnclassifiableSubsystemError(
                    f"unclassifiable subsystem: edge multiplicity {mult}"
                )
            adj[a].append(b)
            adj[b].append(a)
            edges.append((a, b, mult))
    if len(edges) != n - 1:
        raise UnclassifiableSubsystemError(
            "unclassifiable subsystem: base diagram is not a tree"
        )

    degrees = sorted(len(v) for v in adj.values())
    triples = [e for e in edges if e[2] == 3]
    doubles = [e for e in edges if e[2] == 2]

    if triples:
        if n == 2 and not doubles:
            return SimpleType("G", 2)
        raise UnclassifiableSubsystemError(
            "unclassifiable subsystem: triple edge in a diagram of rank > 2"
        )

    if len(doubles) > 1:
        raise UnclassifiableSubsystemError(
            "unclassifiable subsystem: more than one double edge"
        )

    if len(doubles) == 1:
        if degrees[-1] > 2:
            raise UnclassifiableSubsystemError(
                "unclassifiable subsystem: branch point with a double edge"
            )
        a, b, _ = doubles[0]
        if n == 2:
            return SimpleType("B", 2)
        enda, endb = len(adj[a]) == 1, len(adj[b]) == 1
        if not enda and not endb:
            if n == 4:
                return SimpleType("F", 4)
            raise UnclassifiableSubsystemError(
                "unclassifiable subsystem: interior double edge outside rank 4"
            )
        end, other = (a, b) if enda else (b, a)
        # pairing[long][short] = -2, so the end node is short exactly when
        # the -2 entry sits in the other node's row.
        end_is_short = pairing[nodes[other]][nodes[end]] == -2
        return SimpleType("B" if end_is_short else "C", n)

    # Simply laced: A by chain, D/E by the unique branch point's arms.
    if degrees[-1] <= 2:
        return SimpleType("A", n)
    if degrees[-1] > 3 or degrees.count(3) != 1:
        raise UnclassifiableSubsystemError(
            "unclassifiable subsystem: bad branch structure"
        )
    center = next(i for i in range(n) if len(adj[i]) == 3)
    arms = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while len(adj[cur]) == 2:
            nxt = next(x for x in adj[cur] if x != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return SimpleType("D", n)
    if arms == [1, 2, 2]:
        return SimpleType("E", 6)
    if arms == [1, 2, 3]:
        return SimpleType("E", 7)
    if arms == [1, 2, 4]:
        return SimpleType("E", 8)
    raise UnclassifiableSubsystemError(
        f"unclassifiable subsystem: branch arms {arms}"
    )


def recognize(sub: Subsystem) -> CartanType:
    """Cartan type of a closed subsystem, torus factors included.

    The base's pairing matrix is split into connected components and each
    component matched against the classification; the torus rank is the
    ambient rank minus the base size (correct for the full-rank subsystems
    this package produces).
    """
    base = sub.base
    ambient = sub.ambient
    rank = ambient.rank
    if not base:
        return CartanType((), rank)
    k = len(base)
    # Base elements are roots of the ambient system, so the pairings come
    # straight from the string walk on packed codes.  <a, b-check> is zero
    # exactly when <b, a-check> is, so the transposed walk runs only when
    # the entry above the diagonal is nonzero.
    roots = ambient._code_set
    codes = [ambient._codes[r] for r in base]
    pairing = [[0] * k for _ in range(k)]
    for i, a in enumerate(codes):
        pairing[i][i] = 2
        for j in range(i + 1, k):
            p = _string_pairing(roots, a, codes[j])
            if p > 0:
                raise UnclassifiableSubsystemError(
                    f"base elements {base[i]}, {base[j]} pair positively"
                )
            if p:
                pairing[i][j] = p
                pairing[j][i] = _string_pairing(roots, codes[j], a)
    seen: set[int] = set()
    components: list[SimpleType] = []
    for start in range(k):
        if start in seen:
            continue
        stack, nodes = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            nodes.append(i)
            for j in range(k):
                if j not in seen and pairing[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        components.append(_classify_component(pairing, sorted(nodes)))
    return CartanType(tuple(components), rank - k)
