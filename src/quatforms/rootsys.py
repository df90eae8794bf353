"""Root systems of the simple Lie algebras, in simple-root coordinates.

A root is an integer coefficient vector over the simple roots.  Simple roots
are numbered 1..rank following Bourbaki (plates I-IX); all public indices in
this package are 1-based Bourbaki indices.  Cartan pairings come from the
Cartan matrix, linear in the first root (<a, alpha_i-check> is a's
coefficients against column i), and across two roots from their integer
squared lengths, so all arithmetic stays on integer coefficient vectors.

Roots are tuples at every API; past it a root is its index in
``positive_roots`` (``RootSystem._index``, with ~x for the negative of
root x), and root sets are bitmasks of those indices.  The two builders
that add roots, root generation and the sum-triple table, pack each root
into one int, the balanced base-32 code sum(c_j * 32**j).  The code is
linear, so sums and differences of roots become int additions, and it is
injective on vectors with |c_j| <= 15.  Every root coefficient is checked
to satisfy |c| <= 7 (E8's highest root has 6), so every sum or difference
of two roots, and every step of a root-string walk, keeps its code unique.

On first use only (never at import or in build_root_system) a RootSystem
caches the index and a parent table that writes each non-simple positive
root as an earlier positive root plus one simple root (Humphreys, 10.2),
so anything linear in the root, such as a toral pairing, costs one
addition per positive root; a table of the positive sum triples alpha +
beta = gamma, as per-root masks whose sum over a root set gives its
closure check and base in a few big-int operations, and per coordinate,
the masks of the roots with an odd coefficient; and each positive root's
squared length, for the pairings across a base diagram's edges.  None of
these tables leaves the package.  A GradedDecomposition derives the mask
of its grade-1 roots from ``m_pos``, so grade slices are mask operations.

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
FAMILIES = tuple(_RANKS)

# Bases a toral element's coordinates may be given in.
COROOT = "coroot"
COWEIGHT = "coweight"

_TYPE_RE = re.compile(r"^([A-Za-z])([0-9]+)$")


class InvalidTypeError(ValueError):
    """Raised for unknown families or out-of-range ranks."""


class GradingError(ValueError):
    """Raised when a root system admits no quaternionic node grading."""


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Cartan type: family letter A-G plus rank."""

    family: str
    rank: int
    # (-rank, family): the order of components in a CartanType
    _order: tuple[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_order", (-self.rank, self.family))
        ranks = _RANKS.get(self.family)
        if ranks is None:
            raise InvalidTypeError(
                f"unknown family {self.family!r}; valid families are A-G"
            )
        if self.rank not in ranks:
            if len(ranks) == 1:
                valid = f"the only valid rank is {ranks[0]}"
            elif len(ranks) <= 3:
                valid = "valid ranks are " + ", ".join(map(str, ranks))
            else:
                valid = f"valid ranks are {ranks[0]}..{ranks[-1]}"
            raise InvalidTypeError(
                f"rank {self.rank} out of range for family {self.family}; {valid}"
            )

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.label


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
    """A simple root system with its Cartan data and highest root.

    Immutable; positive roots are ordered by height then lexicographically
    by coefficients, which places the highest root last.  The hash (taken
    by per-type caches on every call) reads the type alone, which fixes the rest.
    """

    type: SimpleType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root

    def __hash__(self) -> int:
        return hash(self.type)

    @property
    def rank(self) -> int:
        return self.type.rank

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
    def _sq_lengths(self) -> tuple[int, ...]:
        """Squared length of each positive root, short roots 1: ``_simple_lengths``,
        then |b + a_i|^2 = |b|^2 + |a_i|^2 (1 + <b, a_i-check>) along
        ``_parents``, carrying each root's pairing row."""
        a, n = self.cartan, self.rank
        d = _simple_lengths(a)
        rows, lengths = [a[i] for i in reversed(range(n))], d[::-1]
        for p, i in self._parents:
            rows.append(tuple(map(add, rows[p], a[i])))
            lengths.append(lengths[p] + d[i] * (1 + rows[p][i]))
        return tuple(lengths)

    @cached_property
    def _short_mask(self) -> int:
        """Mask of the short positive roots, squared length 1 in ``_sq_lengths``."""
        return sum([1 << x for x, d in enumerate(self._sq_lengths) if d == 1])

    @cached_property
    def simple_roots(self) -> tuple[Root, ...]:
        n = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def is_root(self, v: Root) -> bool:
        return v in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootSystem({self.type.label}, {len(self.positive_roots)} positive roots)"


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Construct the root system of a simple type.

    The result is cached and shared: RootSystem is immutable and all
    operations on it are pure.
    """
    cartan = _cartan_matrix(t)
    pos = _generate_positive_roots(cartan)
    _check_coefficient_bound(t.label, pos)
    highest = pos[-1]
    top_height = sum(highest)
    if sum(1 for r in pos if sum(r) == top_height) != 1:
        raise RuntimeError(f"highest root of {t.label} is not unique")
    return RootSystem(
        type=t,
        cartan=cartan,
        positive_roots=tuple(pos),
        highest_root=highest,
    )


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
    algebra.  The highest root is the unique root of grade 2.  ``m_pos``
    is the one record of the grade-1 roots: the masks of their indices in
    ``positive_roots`` of ``_rs`` are derived from it.
    """

    node_set: frozenset[int]
    k_pos: tuple[Root, ...]
    m_pos: tuple[Root, ...]
    quaternionic_dim: int
    _rs: RootSystem = field(repr=False, compare=False)

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
        theta, mirror = self.k_pos[-1], 0  # k_pos ends with theta
        for r in self.m_pos:
            # theta - beta has coefficients >= 0, so it is no negative root.
            x = index.get(tuple(map(sub, theta, r)))
            if x is None or not m >> x & 1:
                mirror |= 1 << index[r]
        return mirror


@lru_cache(maxsize=None)
def quaternionic_decomposition(rs: RootSystem) -> GradedDecomposition:
    """Grade the positive roots at the node set and split them into k and m.

    The result is cached per root system and shared, like
    ``build_root_system``'s: GradedDecomposition is immutable.
    """
    nodes = node_set(rs)
    k_pos: list[Root] = []
    m_pos: list[Root] = []
    grade2: list[Root] = []
    for alpha in rs.positive_roots:
        g = grade(rs, nodes, alpha)
        if not 0 <= g <= 2:
            raise RuntimeError(f"grade {g} out of range for {alpha}")
        if g == 1:
            m_pos.append(alpha)
        else:
            k_pos.append(alpha)
            if g == 2:
                grade2.append(alpha)
    if grade2 != [rs.highest_root]:
        raise RuntimeError("grade-2 part is not the highest root alone")
    if len(m_pos) % 2:
        raise RuntimeError(f"grade-1 part has odd size {len(m_pos)}")
    return GradedDecomposition(
        node_set=nodes,
        k_pos=tuple(k_pos),
        m_pos=tuple(m_pos),
        quaternionic_dim=len(m_pos) // 2,
        _rs=rs,
    )


def roots_to_json(roots: tuple[Root, ...] | list[Root]) -> list[list[int]]:
    """Serialize a root list as JSON-ready integer vectors."""
    return [list(r) for r in roots]


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
