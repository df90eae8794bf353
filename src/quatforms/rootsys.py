"""Root systems of the simple Lie algebras, in simple-root coordinates.

A root is an integer coefficient vector over the simple roots.  Simple roots
are numbered 1..rank following Bourbaki (plates I-IX); all public indices in
this package are 1-based Bourbaki indices.  Cartan pairings come from the
Cartan matrix, linear in the first root (<a, alpha_i-check> is a's
coefficients against column i), so all arithmetic stays on integer
coefficient vectors.

Roots are tuples at every API; past it a root is its index in
``positive_roots`` (``RootSystem._index``, with ~x for the negative of
root x), and root sets are bitmasks of those indices.  The two builders
that add roots, root generation and the sum-triple table, pack each root
into one int, the balanced base-32 code sum(c_j * 32**j).  The code is
linear, so sums and differences of roots become int additions, and it is
injective on vectors with |c_j| <= 15.  Every root coefficient is checked
to satisfy |c| <= 7 (E8's highest root has 6), so every sum or difference
of two roots, and every step of a root-string walk, keeps its code unique.

A RootSystem records only its type.  Its Cartan matrix, positive roots
and per-root tables derive from it on first use (``build_root_system``
builds the roots; nothing is built at import): the index; a parent table
that writes each non-simple positive root as an earlier positive root
plus one simple root (Humphreys, 10.2), so anything linear in the root,
such as a toral pairing, costs one addition per positive root; a table of
the positive sum triples alpha + beta = gamma, as per-root masks whose
sum over a root set gives its closure check and base in a few big-int
operations, and per coordinate, the masks of the roots with an odd
coefficient; and the short roots, those whose sum and difference with
one positive root are both roots.  None of these tables leaves the
package.  A GradedDecomposition derives its node set from its root
system and its grade-1 mask from ``m_pos``.

The highest root defines a grading by its attach node(s) in the extended
diagram: grade 1 cuts out the tangent part of the quaternionic symmetric
space attached to the algebra, grade 0 and 2 its isotropy part.

The module also holds what the root-system CLI verbs need besides roots
(the names of the toral bases and the reader of the bundled data files),
so those verbs load no other module of the package.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add, sub

Root = tuple[int, ...]

# Desk-scale cap for the classical families; exceptional types are fixed.
CLASSICAL_RANK_CAP = 10

# The buildable types: each family's valid ranks.  B2 and C2 are both
# accepted (they are the same diagram with opposite numbering).
_RANKS = {
    "A": range(1, CLASSICAL_RANK_CAP + 1),
    "B": range(2, CLASSICAL_RANK_CAP + 1),
    "C": range(2, CLASSICAL_RANK_CAP + 1),
    "D": range(3, CLASSICAL_RANK_CAP + 1),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}

# Bases a toral element's coordinates may be given in.
COROOT = "coroot"
COWEIGHT = "coweight"

_TYPE_RE = re.compile(r"^([A-Za-z])([0-9]+)$")


class InvalidTypeError(ValueError):
    """Raised for unknown families or out-of-range ranks."""


class GradingError(ValueError):
    """Raised when a root system admits no quaternionic node grading."""


@dataclass(frozen=True, init=False, eq=False)
class SimpleType:
    """A simple Cartan type: family letter A-G plus rank, an int (no bool).

    The constructor returns one shared instance per type, as do copies and
    pickles, so equality and hashing are by identity: the type-keyed tables
    on the analysis path (``subsys._count_types``, the parts cache of
    ``subsys.CartanType`` and ``complexform._V_ROWS``, which types v) hash
    a SimpleType at C speed.  Its cache is typed, so a rank True or 1.0
    misses the entry for 1 and is refused every time.
    """

    family: str
    rank: int

    def __new__(cls, family: str, rank: int) -> SimpleType:
        return _simple_type(family, rank)

    def __reduce__(self) -> tuple:
        return SimpleType, (self.family, self.rank)

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.label


@lru_cache(maxsize=None, typed=True)
def _simple_type(family: str, rank: int) -> SimpleType:
    """``SimpleType``'s instance, built and checked on a cache miss only."""
    if type(rank) is not int:
        raise TypeError(f"rank {rank!r} is not an integer")
    ranks = _RANKS.get(family)
    if ranks is None:
        raise InvalidTypeError(f"unknown family {family!r}; valid families are A-G")
    if rank not in ranks:
        if len(ranks) == 1:
            valid = f"the only valid rank is {ranks[0]}"
        elif len(ranks) <= 3:
            valid = "valid ranks are " + ", ".join(map(str, ranks))
        else:
            valid = f"valid ranks are {ranks[0]}..{ranks[-1]}"
        raise InvalidTypeError(f"rank {rank} out of range for family {family}; {valid}")
    self = object.__new__(SimpleType)
    vars(self).update(family=family, rank=rank)
    return self


def parse_type(label: str) -> SimpleType:
    """Parse a type label such as ``"E8"`` or ``"B5"`` into a SimpleType."""
    m = _TYPE_RE.match(label.strip())
    if not m:
        raise InvalidTypeError(
            f"cannot parse type label {label!r}; expected a family letter A-G "
            "followed by a rank, e.g. E8"
        )
    try:
        rank = int(m.group(2))
    except ValueError:  # past the interpreter's limit on digits in an int string
        raise InvalidTypeError("cannot parse type label: the rank has too many digits") from None
    return SimpleType(m.group(1).upper(), rank)


def _cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix A[i][j] = <alpha_i, alpha_j-check>, 0-based."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if t.family == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif t.family == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)  # alpha_n short
    elif t.family == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)  # alpha_n long
    elif t.family == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif t.family == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            edge(i, j)
        if n >= 7:
            edge(5, 6)
        if n == 8:
            edge(6, 7)
    elif t.family == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)  # alpha_3, alpha_4 short
        edge(2, 3)
    else:  # G2: alpha_1 short, alpha_2 long
        edge(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _simple_lengths(a: tuple[tuple[int, ...], ...]) -> list[int]:
    """Squared lengths of the simple roots of a connected Cartan matrix, short
    roots 1: |a_j|^2 / |a_i|^2 = A[j][i] / A[i][j] across each edge."""
    n = len(a)
    d, stack = [6] + [0] * (n - 1), [0]  # 6 is divisible by the ratios 2 and 3
    while stack:
        i = stack.pop()
        for j in range(n):
            if a[i][j] and not d[j]:
                d[j] = d[i] * a[j][i] // a[i][j]
                stack.append(j)
    short = min(d)
    return [x // short for x in d]


# Packed root codes: c_1 + 32 c_2 + ... + 32^(n-1) c_n, unique for |c_j| <= 15.
_CODE_BASE = 32
_COEFF_BOUND = 7


def _encode(v: Root) -> int:
    code = 0
    for c in reversed(v):
        code = code * _CODE_BASE + c
    return code


def _check_coefficient_bound(label: str, roots) -> None:
    """Refuse roots whose packed codes could collide once added or subtracted."""
    for r in roots:
        if any(abs(c) > _COEFF_BOUND for c in r):
            raise RuntimeError(
                f"root {r} of {label} has a coefficient beyond +-{_COEFF_BOUND}; "
                "packed root codes would not be unique"
            )


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[Root]:
    """Positive roots via root-string extension from the simple roots.

    Working height by height, alpha + alpha_i is adjoined exactly when the
    alpha_i-string through alpha does not stop at alpha: with p the largest
    k such that alpha - k*alpha_i is a root, the string extends upward by
    q = p - <alpha, alpha_i-check> steps.  The string is walked on packed
    codes, where alpha_i is the step 32^(i-1).  Each root carries its row
    of pairings <alpha, alpha_i-check>, which is linear in alpha: the row
    of alpha_i is A[i], and alpha + alpha_i has row(alpha) + A[i].
    """
    n = len(cartan)
    steps = [_CODE_BASE**i for i in range(n)]
    known: dict[int, Root] = {}
    layer = []
    for i, step in enumerate(steps):
        known[step] = tuple(1 if j == i else 0 for j in range(n))
        layer.append((step, known[step], cartan[i]))
    while layer:
        next_layer: list[tuple[int, Root, tuple[int, ...]]] = []
        for code, alpha, row in layer:
            for i, step in enumerate(steps):
                p = 0
                beta = code - step
                while beta in known:
                    p += 1
                    beta -= step
                if p > row[i]:
                    up = code + step
                    if up not in known:
                        new = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                        known[up] = new
                        next_layer.append((up, new, tuple(map(add, row, cartan[i]))))
        layer = next_layer
    return sorted(known.values(), key=lambda r: (sum(r), r))


@dataclass(frozen=True)
class RootSystem:
    """The root system of a simple type, its one field: equality and hash
    read the type, and the rest derives from it on first use.  Positive
    roots are ordered by height, then lexicographically, so theta is last."""

    type: SimpleType

    @property
    def rank(self) -> int:
        return self.type.rank

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        return _cartan_matrix(self.type)

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        """Refuses a root past the coefficient bound and a tied top height."""
        label, pos = self.type.label, _generate_positive_roots(self.cartan)
        _check_coefficient_bound(label, pos)
        if len(pos) > 1 and sum(pos[-2]) == sum(pos[-1]):
            raise RuntimeError(f"highest root of {label} is not unique")
        return tuple(pos)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    @cached_property
    def root_set(self) -> frozenset[Root]:
        """All roots, positive and negative."""
        return frozenset(self._index)

    @cached_property
    def _negatives(self) -> tuple[Root, ...]:
        """The negative roots, aligned with ``positive_roots``."""
        return tuple(tuple(-x for x in r) for r in self.positive_roots)

    @cached_property
    def _index(self) -> dict[Root, int]:
        """Index x in ``positive_roots`` of each positive root, and ~x of its negative."""
        index = {}
        for x, (r, neg) in enumerate(zip(self.positive_roots, self._negatives)):
            index[r] = x
            index[neg] = ~x
        return index

    @cached_property
    def _parents(self) -> tuple[tuple[int, int], ...]:
        """(p, i) for each non-simple positive root, in ``positive_roots`` order.

        The root is positive_roots[p] + alpha_(i+1), and p is smaller than
        the root's own index (the parent is one step lower).  Together with
        the simple roots, which open ``positive_roots`` as alpha_n, ...,
        alpha_1, the table builds any function linear in the root with one
        addition per positive root.
        """
        index = self._index
        table = []
        for r in self.positive_roots[self.rank :]:
            for i, c in enumerate(r):
                # A nonzero vector with coefficients >= 0 is no negative root.
                p = index.get(r[:i] + (c - 1,) + r[i + 1 :]) if c else None
                if p is not None:
                    table.append((p, i))
                    break
            else:
                raise RuntimeError(f"positive root {r} is no root plus a simple root")
        return tuple(table)

    @cached_property
    def _sum_triples(self) -> tuple[tuple[int, int, int], ...]:
        """Every (u, v, w) with u < v and positive_roots[u] + [v] = [w].

        Indices are into ``positive_roots``; triple t is the t-th in (u, v)
        order, and w is above both u and v.  Sums are taken on packed codes.
        """
        codes = list(map(_encode, self.positive_roots))
        position = {c: k for k, c in enumerate(codes)}
        triples = []
        for u, a in enumerate(codes):
            for v in range(u + 1, len(codes)):
                w = position.get(a + codes[v])
                if w is not None:
                    triples.append((u, v, w))
        return tuple(triples)

    @cached_property
    def _triple_masks(self) -> tuple:
        """(roles, sums, diffs, width, fill, slots, spare_roots, near): the
        positive sum triples as bitmasks, for ``subsys._closed_base`` and
        ``subsys._type_of``.

        A region of ``width`` bits holds the triples grouped by their w, in
        the order of w, with a spare bit after each root's group; slots[t] is
        triple t's bit, ``fill`` sets every group bit and spare_roots maps each
        spare bit to its root.  roles[x] has, in its first (second) region, the
        bits of the triples whose u (v) is x, and in its third its own group
        and spare bit.  Each role bit belongs to one root, so a root set's role
        masks can be summed, and the sum holds the members on its third
        region's spare bits.  sums[x] (diffs[x]) has bit y when [x] + [y]
        ([x] - [y]) is a root, and near[x] = sums[x] | diffs[x] | bit x.
        """
        triples, n = self._sum_triples, len(self.positive_roots)
        groups: list[list[int]] = [[] for _ in range(n)]
        for t, (_, _, w) in enumerate(triples):
            groups[w].append(t)
        slots, spare_roots, w_roles, width = [0] * len(triples), {}, [], 0
        for x, group in enumerate(groups):
            for t in group:
                slots[t], width = width, width + 1
            spare_roots[width] = x
            w_roles.append((2 << width) - (1 << width - len(group)))
            width += 1
        roles, sums, diffs = [w << 2 * width for w in w_roles], [0] * n, [0] * n
        for t, (u, v, w) in enumerate(triples):
            roles[u] |= 1 << slots[t]
            roles[v] |= 1 << width + slots[t]
            sums[u] |= 1 << v
            sums[v] |= 1 << u
            diffs[u] |= 1 << w
            diffs[v] |= 1 << w
            diffs[w] |= 1 << u | 1 << v
        fill = (1 << width) - 1 - sum([1 << p for p in spare_roots])
        near = tuple(s | d | 1 << x for x, (s, d) in enumerate(zip(sums, diffs)))
        return tuple(roles), tuple(sums), tuple(diffs), width, fill, tuple(slots), spare_roots, near

    @cached_property
    def _parity_masks(self) -> tuple:
        """(all, odd): the member mask and role sum of all positive roots and,
        per coordinate i, of those with an odd coefficient i."""
        roles, pos = self._triple_masks[0], self.positive_roots
        odd = [[x for x, r in enumerate(pos) if r[i] % 2] for i in range(self.rank)]
        pairs = [(sum([1 << x for x in xs]), sum([roles[x] for x in xs])) for xs in odd]
        return ((1 << len(pos)) - 1, sum(roles)), tuple(pairs)

    @cached_property
    def _short_mask(self) -> int:
        """Mask of the short positive roots, the x with sums[x] & diffs[x]
        (``_triple_masks``); 0 in a simply laced type.

        Lemma: a positive root x is short exactly when x + y and |x - y| are
        roots for some positive y.  A long x has |<y, x-check>| <= 1 for
        every root y != +-x, so no x-string holds three roots (Humphreys
        9.4).  The property is W-invariant (negate y if need be) and the
        short roots form one W-orbit (Humphreys 10.4): e_1, e_2 in B2 (so
        in B_n, C_n and F4) and alpha_1, alpha_1 + alpha_2 in G2 suffice.
        """
        _, sums, diffs, *_ = self._triple_masks
        return sum([1 << x for x, (s, d) in enumerate(zip(sums, diffs)) if s & d])

    @cached_property
    def simple_roots(self) -> tuple[Root, ...]:
        n = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def is_root(self, v: Root) -> bool:
        return v in self._index


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """The root system of a simple type, its roots built and checked.

    The result is cached and shared: RootSystem is immutable and all
    operations on it are pure.
    """
    rs = RootSystem(t)
    rs.positive_roots
    return rs


def node_set(rs: RootSystem) -> frozenset[int]:
    """Simple roots attached to the negative of the highest root (1-based).

    This is the set of i with <highest, alpha_i-check> > 0, the pairing
    read off column i of the Cartan matrix.  It is a singleton except for
    diagrams of A shape (family A at rank >= 2, and D3 which is A3
    renumbered), where both chain ends appear and grades add over the pair.
    """
    if rs.rank < 2:
        raise GradingError(
            f"no quaternionic node grading for {rs.type.label} (rank 1)"
        )
    theta = rs.highest_root
    return frozenset(
        i + 1
        for i in range(rs.rank)
        if sum(c * row[i] for c, row in zip(theta, rs.cartan)) > 0
    )


def grade(rs: RootSystem, nodes: frozenset[int] | set[int], alpha: Root) -> int:
    """Sum of alpha's coefficients over the node set (1-based indices)."""
    return sum(alpha[i - 1] for i in nodes)


@dataclass(frozen=True)
class GradedDecomposition:
    """Split of the positive roots by node grade.

    Grade 1 spans the tangent space of the quaternionic symmetric space
    G/K built on the highest root; grades 0 and 2 span the isotropy
    algebra.  The highest root is the unique root of grade 2.  The node
    set derives from ``_rs``, and ``m_pos``, distinct positive roots of
    ``_rs`` other than theta, is the one record of the grade-1 roots:
    ``k_pos``, dim_H and the index masks derive from it.
    """

    m_pos: tuple[Root, ...]
    _rs: RootSystem = field(repr=False)

    def __post_init__(self) -> None:
        index, label, theta = self._rs._index, self._rs.type.label, self._rs.highest_root
        for r in self.m_pos:
            if index.get(r, -1) < 0 or r == theta:
                raise GradingError(f"m_pos holds {r}, no positive root of {label} below theta")
        if len(set(self.m_pos)) < len(self.m_pos):
            raise GradingError(f"m_pos repeats a root of {label}")

    @cached_property
    def node_set(self) -> frozenset[int]:
        return node_set(self._rs)

    @cached_property
    def k_pos(self) -> tuple[Root, ...]:
        """The positive roots off m, in ``positive_roots`` order: theta comes last."""
        m = set(self.m_pos)
        return tuple(r for r in self._rs.positive_roots if r not in m)

    @property
    def quaternionic_dim(self) -> int:
        return len(self.m_pos) // 2

    @cached_property
    def _masks(self) -> tuple[int, int]:
        """The member mask of the grade-1 roots, and the role sum of the others."""
        index, roles = self._rs._index, self._rs._triple_masks[0]
        m = 0
        for r in self.m_pos:
            m |= 1 << index[r]
        return m, sum([r for x, r in enumerate(roles) if not m >> x & 1])

    @cached_property
    def _mirror(self) -> int:
        """Mask of the grade-1 roots beta with theta - beta no grade-1 root: 0
        if built by ``quaternionic_decomposition``, as <beta, theta-check> = 1."""
        index, m = self._rs._index, self._masks[0]
        theta, mirror = self._rs.highest_root, 0
        for r in self.m_pos:
            # theta - beta has coefficients >= 0, so it is no negative root.
            x = index.get(tuple(map(sub, theta, r)))
            if x is None or not m >> x & 1:
                mirror |= 1 << index[r]
        return mirror


@lru_cache(maxsize=None)
def quaternionic_decomposition(rs: RootSystem) -> GradedDecomposition:
    """Grade the positive roots at the node set and collect m, the grade-1 ones.

    The result is cached per root system and shared, like
    ``build_root_system``'s: GradedDecomposition is immutable.
    """
    nodes = node_set(rs)
    m_pos: list[Root] = []
    grade2: list[Root] = []
    for alpha in rs.positive_roots:
        g = grade(rs, nodes, alpha)
        if not 0 <= g <= 2:
            raise RuntimeError(f"grade {g} out of range for {alpha}")
        if g == 1:
            m_pos.append(alpha)
        elif g == 2:
            grade2.append(alpha)
    if grade2 != [rs.highest_root]:
        raise RuntimeError("grade-2 part is not the highest root alone")
    if len(m_pos) % 2:
        raise RuntimeError(f"grade-1 part has odd size {len(m_pos)}")
    return GradedDecomposition(m_pos=tuple(m_pos), _rs=rs)


@lru_cache(maxsize=None)
def _bundled_text(name: str) -> str:
    """A data file shipped inside the package, read once per process.

    ``importlib.resources`` loads on the first read, not at import.
    """
    from importlib import resources

    return resources.files("quatforms").joinpath(name).read_text(encoding="utf-8")


def load_table() -> list[dict]:
    """Rows of the bundled quaternionic dimension table."""
    return json.loads(_bundled_text("data/quaternionic_table.json"))
