"""Independent oracles used to cross-check the package.

The root and length-pairing oracles work from the Cartan matrix alone and
share no code with the root-string generator in quatforms.rootsys; the base
and cover oracles work from plain root sets.  The root-string pairing walks
the b-string through a inside the root set: it is how rootsys paired roots
before it read the pairings with the highest root off the Cartan matrix.
The centralizer, grade-slice and order oracles are the per-root dot
product, grade() filters and (height, lex) sort the package replaced with
tables cached per root system, and the pairwise and base-first closure
oracles are the pass over all pairs of positive members and the walk
through the base that Subsystem replaced, in turn, with bitmasks over the
root system's sum triples.  The type oracle is the tree certificate
(edge multiplicities, branch arms, arrow direction) that recognize
replaced with a lookup among the Dynkin diagrams.  The diagram-key type
oracle is that lookup as recognize and the analysis kernel ran it before
they typed each component by its rank, root count and short simple
roots: edges off per-root sum masks, Cartan entries off root lengths and
one packed isomorphism key per component.  The pairwise type oracle is
the same lookup as it ran before it read the edges off sum masks, walking
root strings between every pair of base elements.  The tops-loop base
and the list kernel are subsys._closed_base and complexform._analysis as
they ran before the kernel read l and v off role sums and their bases
off one carry.  The analysis oracle
is complexform.analyze as it ran on sets of root tuples, through
Subsystem and recognize, before it moved to positive-root indices; the
classification oracle analyzes every candidate with it instead of one
per W_K-orbit.  The step6 oracle is the set formula complexform ran on
every call before it read the grading's mirror set.  The orbit oracle is
the W_K-orbit walk on coordinate tuples that classify ran before it walked
ints, with s_theta's column from root-string pairings.
The code table packs every root with rootsys._encode for the oracles
that walk packed codes; the package itself packs roots only while it
builds its root and sum-triple tables.  coroot_pairing and
enumerate_involutions are small helpers the package itself has no use for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product


def reflection_closure(cartan) -> frozenset[tuple[int, ...]]:
    """All roots as the orbit of the simple roots under simple reflections.

    Applies s_i(a) = a - <a, alpha_i-check> alpha_i to a worklist until no
    new vectors appear; every root lies in the orbit of a simple root.
    """
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        alpha = frontier.pop()
        for i in range(n):
            pairing = sum(alpha[j] * cartan[j][i] for j in range(n))
            refl = tuple(
                a - pairing if j == i else a for j, a in enumerate(alpha)
            )
            if refl not in roots:
                roots.add(refl)
                frontier.append(refl)
    return frozenset(roots)


def positive_part(roots) -> frozenset[tuple[int, ...]]:
    return frozenset(r for r in roots if sum(r) > 0)


@lru_cache(maxsize=None)
def root_code_table(rs) -> dict[tuple[int, ...], int]:
    """Packed code (``rootsys._encode``) of every root of rs, positive and
    negative: the package packs roots only inside its two root builders."""
    from quatforms.rootsys import _encode

    return {r: _encode(r) for r in rs.root_set}


@lru_cache(maxsize=None)
def root_codes(rs) -> frozenset[int]:
    """Packed codes of all roots of rs, positive and negative."""
    return frozenset(root_code_table(rs).values())


def pairing_with_coroot(rs, a, b) -> int:
    """Integer Cartan pairing <a, b-check> of two roots.

    For b != +-a the b-string through a runs unbroken from a - p*b to
    a + q*b, and <a, b-check> = p - q (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 9.4).  Both walks run on packed
    root codes.
    """
    codes = root_code_table(rs)
    ca, cb = codes.get(a), codes.get(b)
    for r, c in ((a, ca), (b, cb)):
        if c is None:
            raise ValueError(f"{r} is not a root of {rs.type.label}")
    return _string_pairing(root_codes(rs), ca, cb)


def _string_pairing(roots: frozenset[int], ca: int, cb: int) -> int:
    """<a, b-check> from the packed codes of two roots and the code set."""
    if ca == cb:
        return 2
    if ca == -cb:
        return -2
    p = 0
    v = ca - cb
    while v in roots:
        p += 1
        v -= cb
    q = 0
    v = ca + cb
    while v in roots:
        q += 1
        v += cb
    return p - q


def regenerate_from_base(rs, base) -> frozenset[tuple[int, ...]]:
    """Orbit of a base under its own reflections, inside the ambient system.

    Uses the root-string pairing_with_coroot for the reflection pairings
    (pinned against length_pairing); the result must be exactly the
    subsystem the base came from.
    """
    current = set(base) | {tuple(-x for x in b) for b in base}
    frontier = list(current)
    while frontier:
        alpha = frontier.pop()
        for beta in base:
            p = pairing_with_coroot(rs, alpha, beta)
            refl = tuple(a - p * b for a, b in zip(alpha, beta))
            if refl not in current:
                current.add(refl)
                frontier.append(refl)
    return frozenset(current)


def sorted_positive_roots(roots) -> tuple[tuple[int, ...], ...]:
    """Positive members of a root set, sorted by height, then lexicographically."""
    return tuple(sorted((r for r in roots if sum(r) > 0), key=lambda r: (sum(r), r)))


def indecomposable_base(roots) -> list[tuple[int, ...]]:
    """Positive roots that are not the sum of two positive roots.

    A separate scan over all pairs of positive members of a closed root set,
    ordered by height and then lexicographically; for a closed subsystem the
    result is its base (Humphreys, Introduction to Lie Algebras, 10.1).
    """
    pos = sorted_positive_roots(roots)
    pos_set = set(pos)
    sums = set()
    for i, a in enumerate(pos):
        for b in pos[i:]:
            s = tuple(x + y for x, y in zip(a, b))
            if s in pos_set:
                sums.add(s)
    return [r for r in pos if r not in sums]


def pairwise_closure_base(rs, roots) -> tuple[tuple[int, ...], ...]:
    """Base of a closed symmetric root set, by a pass over all pairs.

    The closure check Subsystem ran before base_first_closure_base: every
    pair of positive members is summed and subtracted, a sum or difference
    that is an ambient root must be a member, and the positive members that
    are no such sum form the base.  Raises NotClosedError like Subsystem
    (membership and symmetry first), naming the first failing pair in
    ambient order.
    """
    from quatforms.subsys import NotClosedError, _missing

    get_code = root_code_table(rs).get
    code_set = {get_code(r) for r in roots}
    for r in roots:
        c = get_code(r)
        if c is None:
            raise NotClosedError(f"{r} is not a root of {rs.type.label}")
        if -c not in code_set:
            raise NotClosedError(f"not symmetric: missing negative of {r}")
    ambient_codes = root_codes(rs)
    pos = tuple(r for r in rs.positive_roots if r in roots)
    pos_codes = [get_code(r) for r in pos]
    decomposable = set()
    for i, a in enumerate(pos_codes):
        for j in range(i + 1, len(pos_codes)):
            b = pos_codes[j]
            s = a + b
            if s in ambient_codes:
                if s not in code_set:
                    raise _missing(pos[i], "+", pos[j])
                decomposable.add(s)
            d = a - b
            if d in ambient_codes and d not in code_set:
                raise _missing(pos[i], "-", pos[j])
    return tuple(r for r, c in zip(pos, pos_codes) if c not in decomposable)


def base_first_closure_base(rs, roots) -> tuple[tuple[int, ...], ...]:
    """Base of a closed symmetric root set, found first and then used to
    check closure.

    The check Subsystem ran before the sum-triple bitmasks: the positive
    members are walked in ambient order, and a member x joins the base
    unless x - a is a member for a base element a found earlier; closure
    is then checked only under +-base (x + a and x - a must be members
    whenever they are roots).  Raises NotClosedError like Subsystem
    (membership and symmetry first), naming the earlier root first.
    """
    from quatforms.subsys import NotClosedError, _missing

    get_code = root_code_table(rs).get
    codes = [get_code(r) for r in roots]
    code_set = set(codes)
    for r, c in zip(roots, codes):
        if c is None:
            raise NotClosedError(f"{r} is not a root of {rs.type.label}")
        if -c not in code_set:
            raise NotClosedError(f"not symmetric: missing negative of {r}")
    pos = tuple(r for r in rs.positive_roots if r in roots)
    pos_codes = [get_code(r) for r in pos]
    base = []  # indices into pos
    for i, x in enumerate(pos_codes):
        for j in base:
            if x - pos_codes[j] in code_set:
                break
        else:
            base.append(i)
    ambient_codes = root_codes(rs)
    for j in base:
        a = pos_codes[j]
        for i, x in enumerate(pos_codes):
            s = x + a
            if s in ambient_codes and s not in code_set:
                op = "+"
            else:
                s = x - a
                if s not in ambient_codes or s in code_set:
                    continue
                op = "-"
            p, q = sorted((i, j))
            raise _missing(pos[p], op, pos[q])
    return tuple(pos[j] for j in base)


def centralizer_roots_by_dot(rs, t) -> frozenset[tuple[int, ...]]:
    """Roots whose pairing with t is 0 mod denom, one dot product per root.

    A coroot-basis element is first moved to the coweight basis by
    c'_j = sum_i A[j][i] c_i, read from the Cartan matrix here; a root r
    then pairs as c' . r.
    """
    n = rs.rank
    c = t.coords
    if t.basis == "coroot":
        c = tuple(sum(rs.cartan[j][i] * c[i] for i in range(n)) for j in range(n))
    return frozenset(
        r for r in rs.root_set if sum(x * y for x, y in zip(c, r)) % t.denom == 0
    )


def grade_slices(rs, gd, roots):
    """(s_pos, v_roots) of a centralizer root set, filtered by grade().

    s_pos is the positive roots of grade 1 in sorted_positive_roots order,
    v_roots the roots of even grade.
    """
    from quatforms.rootsys import grade

    nodes = gd.node_set
    s_pos = tuple(a for a in sorted_positive_roots(roots) if grade(rs, nodes, a) == 1)
    v_roots = frozenset(r for r in roots if grade(rs, nodes, r) % 2 == 0)
    return s_pos, v_roots


def disjoint_cover_ok(rs, gd, s_pos) -> bool:
    """Strict cross-check: s and (highest - s) partition the grade-1 positives."""
    theta = rs.highest_root
    s_set = set(s_pos)
    mirror = {tuple(t - b for t, b in zip(theta, beta)) for beta in s_pos}
    return not (s_set & mirror) and (s_set | mirror) == set(gd.m_pos)


def step6_rows(rs, gd, s) -> int:
    """step6 count of the positive roots at the indices s, by the set formula.

    The rows are the packed codes of those roots and of theta minus each,
    deduplicated; the count is how many rows lie outside the codes of
    gd.m_pos.
    """
    codes, pos = root_code_table(rs), rs.positive_roots
    theta = codes[pos[-1]]  # the highest root is the last positive root
    rows = {codes[pos[x]] for x in s} | {theta - codes[pos[x]] for x in s}
    return len(rows - {codes[r] for r in gd.m_pos})


def squared_lengths(cartan) -> tuple[Fraction, ...]:
    """Squared lengths of the simple roots, long roots normalized to 2.

    Length ratios follow from the Cartan matrix: |a_j|^2 / |a_i|^2 =
    A[j][i] / A[i][j] for every edge (i, j); the diagram is connected,
    so one propagation pass determines all ratios.
    """
    n = len(cartan)
    lengths = {0: Fraction(1)}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and j not in lengths:
                lengths[j] = lengths[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    if len(lengths) != n:
        raise ValueError("Dynkin diagram must be connected")
    top = max(lengths.values())
    return tuple(lengths[i] * 2 / top for i in range(n))


def length_pairing(cartan):
    """Cartan pairing <a, b-check> = 2(a, b)/(b, b) from root lengths.

    (a, b) is the Weyl-invariant form with long roots of squared length 2,
    evaluated in Fraction from squared_lengths; a non-integral pairing
    raises.  Returns pairing(a, b); rows of the Cartan product are cached
    per vector, so one instance serves many pairs of one type.
    """
    n = len(cartan)
    lengths = squared_lengths(cartan)
    rows: dict = {}

    def inner(a, b) -> Fraction:
        row_a = rows.get(a)
        if row_a is None:
            row_a = rows[a] = tuple(
                sum(a[j] * cartan[j][i] for j in range(n)) for i in range(n)
            )
        total = Fraction(0)
        for i in range(n):
            if b[i]:
                total += b[i] * (lengths[i] / 2) * row_a[i]
        return total

    def pairing(a, b) -> int:
        val = 2 * inner(a, b) / inner(b, b)
        if val.denominator != 1:
            raise ValueError(f"non-integral pairing {val} for {a}, {b}")
        return int(val)

    return pairing


def tree_certificate_type(sub):
    """Cartan type of a subsystem, read off a certificate of its base tree.

    The recognizer the package used before its diagram lookup: the base's
    k x k pairing matrix (from pairing_with_coroot) is split into connected
    components, and each component is named by edge multiplicities, branch
    arms and arrow direction.  Raises UnclassifiableSubsystemError for a
    positive pairing or a diagram that is no Dynkin diagram.
    """
    from quatforms import CartanType, SimpleType, UnclassifiableSubsystemError
    rs, base = sub.ambient, sub.base
    k = len(base)
    pairing = [[pairing_with_coroot(rs, a, b) for b in base] for a in base]
    for i in range(k):
        for j in range(i + 1, k):
            if pairing[i][j] > 0:
                raise UnclassifiableSubsystemError(
                    f"base elements {base[i]}, {base[j]} pair positively"
                )

    def fail(why):
        return UnclassifiableSubsystemError(f"unclassifiable subsystem: {why}")

    def component(nodes):
        n = len(nodes)
        if n == 1:
            return SimpleType("A", 1)
        adj = {i: [] for i in range(n)}
        edges = []  # (i, j, multiplicity)
        for a in range(n):
            for b in range(a + 1, n):
                pab = pairing[nodes[a]][nodes[b]]
                if pab == 0:
                    continue
                mult = pab * pairing[nodes[b]][nodes[a]]
                if mult not in (1, 2, 3):
                    raise fail(f"edge multiplicity {mult}")
                adj[a].append(b)
                adj[b].append(a)
                edges.append((a, b, mult))
        if len(edges) != n - 1:
            raise fail("base diagram is not a tree")
        degrees = sorted(len(v) for v in adj.values())
        triples = [e for e in edges if e[2] == 3]
        doubles = [e for e in edges if e[2] == 2]
        if triples:
            if n == 2:
                return SimpleType("G", 2)
            raise fail("triple edge in a diagram of rank > 2")
        if len(doubles) > 1:
            raise fail("more than one double edge")
        if doubles:
            if degrees[-1] > 2:
                raise fail("branch point with a double edge")
            a, b, _ = doubles[0]
            if n == 2:
                return SimpleType("B", 2)
            enda, endb = len(adj[a]) == 1, len(adj[b]) == 1
            if not enda and not endb:
                if n == 4:
                    return SimpleType("F", 4)
                raise fail("interior double edge outside rank 4")
            end, other = (a, b) if enda else (b, a)
            # pairing[long][short] = -2, so the end node is short exactly
            # when the -2 entry sits in the other node's row.
            end_is_short = pairing[nodes[other]][nodes[end]] == -2
            return SimpleType("B" if end_is_short else "C", n)
        if degrees[-1] <= 2:
            return SimpleType("A", n)
        if degrees[-1] > 3 or degrees.count(3) != 1:
            raise fail("bad branch structure")
        center = next(i for i in range(n) if len(adj[i]) == 3)
        arms = []
        for start in adj[center]:
            length = 1
            prev, cur = center, start
            while len(adj[cur]) == 2:
                prev, cur = cur, next(x for x in adj[cur] if x != prev)
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return SimpleType("D", n)
        named = {(1, 2, 2): 6, (1, 2, 3): 7, (1, 2, 4): 8}
        if tuple(arms) in named:
            return SimpleType("E", named[tuple(arms)])
        raise fail(f"branch arms {arms}")

    seen = set()
    components = []
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
        components.append(component(sorted(nodes)))
    return CartanType(tuple(components), rs.rank - k)


# The entries (a_ij, a_ji) across an edge from the squared lengths of its
# ends, whose ratio is 1, 2 or 3 (Humphreys 9.4), and the 15 classes (a_ij,
# a_ji, degree of j) a Dynkin diagram's neighbours can show, keyed by the
# two lengths and the degree.
ENTRIES = {
    (a, b): (-(a // b or 1), -(b // a or 1)) for a, b in product((1, 2, 3), repeat=2) if a * b != 6
}
_CLASSES = sorted(set(ENTRIES.values()))
EDGE_CLASSES = {
    (*ab, d): 4 ** (3 * _CLASSES.index(e) + d - 1) for ab, e in ENTRIES.items() for d in (1, 2, 3)
}


def component_keys(adj, lengths):
    """Isomorphism key of each connected component of a base diagram.

    ``adj[i]`` masks the neighbours of node i, and ``lengths[i]`` is its
    squared length, which fixes the entries a_ij = <b_i, b_j-check> across
    its edges (``ENTRIES``).  A key is the node count and the sorted ints
    that pack each node's multiset of (a_ij, a_ji, degree of j), as the sum
    of their ``EDGE_CLASSES``.  A neighbour outside those classes raises
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
                packed += EDGE_CLASSES[li, lengths[j], adj[j].bit_count()]
            ints.append(packed)
        left ^= comp
        ints.sort()
        keys.append((len(ints), tuple(ints)))
    return keys


@lru_cache(maxsize=None)
def diagram_types(rank):
    """The simple types of one rank, keyed by their Dynkin diagrams.

    Built once per rank from the Cartan matrices that build the root
    systems.  A3/D3 and B2/C2 share a key; the first in family order is
    kept, and both normalize to the same ``CartanType``.
    """
    from quatforms.rootsys import _RANKS, SimpleType, _cartan_matrix, _simple_lengths

    table = {}
    for t in (SimpleType(family, rank) for family, ranks in _RANKS.items() if rank in ranks):
        a = _cartan_matrix(t)
        adj = {i: sum([1 << j for j in range(rank) if j != i and a[i][j]]) for i in range(rank)}
        table.setdefault(component_keys(adj, _simple_lengths(a))[0], t)
    return table


def diagram_components(adj, lengths):
    """The simple type of each component of a base diagram, by table lookup;
    a diagram that is no Dynkin diagram raises UnclassifiableSubsystemError."""
    from quatforms.subsys import UnclassifiableSubsystemError

    try:
        return [diagram_types(key[0])[key] for key in component_keys(adj, lengths)]
    except KeyError:
        raise UnclassifiableSubsystemError("base diagram matches no simple type") from None


def base_adjacency(ambient, base):
    """Neighbour masks of the base diagram at these positive-root indices.

    Two base elements of a closed subsystem never differ by a root, so they
    are joined exactly when their sum is a root (Humphreys 9.4, 10.1):
    edges are read off the sum masks, and a pair differing by a root is
    refused."""
    from quatforms.subsys import UnclassifiableSubsystemError

    _, sums, diffs, *_ = ambient._triple_masks
    base_mask = sum([1 << x for x in base])
    adj = {}
    for x in base:
        if bad := diffs[x] & base_mask:
            pos, y = ambient.positive_roots, (bad & -bad).bit_length() - 1
            raise UnclassifiableSubsystemError(
                f"base elements {pos[x]}, {pos[y]} pair positively or differ by a root"
            )
        adj[x] = sums[x] & base_mask
    return adj


def diagram_base_type(ambient, base):
    """Cartan type of the subsystem whose base is at these positive-root
    indices, by diagram keys: the typing recognize and the analysis kernel
    ran before they counted roots."""
    from quatforms.subsys import CartanType

    parts = diagram_components(base_adjacency(ambient, base), ambient._sq_lengths)
    return CartanType(tuple(parts), ambient.rank - len(base))


def pairwise_base_type(ambient, base):
    """Cartan type of the subsystem whose base sits at these indices of
    ``ambient.positive_roots``, by root-string walks over all base pairs.

    The diagram-key typing (``diagram_base_type``) as it ran before it read
    the edges off the sum masks: <a, b-check> from the string walk for each of the k(k - 1)/2
    pairs, the transposed walk where it is nonzero, a positive pairing
    refused, and each connected component looked up among the Dynkin
    diagrams, with the root lengths the walked entries give.
    """
    from quatforms.subsys import CartanType, UnclassifiableSubsystemError

    codes = [root_code_table(ambient)[ambient.positive_roots[x]] for x in base]
    k = len(codes)
    roots = root_codes(ambient)
    nbrs = [[] for _ in range(k)]
    for i, a in enumerate(codes):
        for j in range(i + 1, k):
            p = _string_pairing(roots, a, codes[j])
            if p > 0:
                pos = ambient.positive_roots
                raise UnclassifiableSubsystemError(
                    f"base elements {pos[base[i]]}, {pos[base[j]]} pair positively"
                )
            if p:
                q = _string_pairing(roots, codes[j], a)
                nbrs[i].append((j, p, q))
                nbrs[j].append((i, q, p))
    # Squared lengths from the walked entries, |b_i|^2 / |b_j|^2 = a_ij / a_ji
    # across each edge, short roots 1 in each component.
    lengths = [0] * k
    components = []
    for start in range(k):
        if lengths[start]:
            continue
        lengths[start] = 6  # divisible by the ratios 2 and 3
        nodes = [start]
        for i in nodes:
            for j, p, q in nbrs[i]:
                if not lengths[j]:
                    lengths[j] = lengths[i] * q // p
                    nodes.append(j)
        short = min(lengths[i] for i in nodes)
        for i in nodes:
            lengths[i] //= short
        adj = {i: sum(1 << j for j, _, _ in nbrs[i]) for i in nodes}
        components += diagram_components(adj, lengths)
    return CartanType(tuple(components), ambient.rank - k)


def coroot_pairing(rs, alpha, i: int) -> int:
    """Cartan pairing <alpha, alpha_i-check> for a root alpha, i 1-based."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    return pairing_with_coroot(rs, alpha, rs.simple_roots[i - 1])


def wk_orbits(rs, gd) -> list[tuple[tuple[int, ...], ...]]:
    """W_K-orbits on the mod-2 coweight candidates, each sorted in lex order.

    The tuple walk classify._orbit_table ran before it walked ints and read
    s_theta's column off the node set.  The orbits come in the lex order of
    their smallest members and together hold all 2^rank candidates once.
    A reflection s_beta moves the coweight coordinates c to
    c - (c . beta) (<alpha_j, beta-check>)_j, so mod 2 it adds that column
    exactly when c . beta is odd.  The generators are s_i for the simple
    roots off the node set (column A[j][i]) and s_theta for the highest
    root, whose column comes from root-string pairings.
    """
    n = rs.rank
    theta = rs.highest_root

    def mask(bits) -> int:
        # Coordinate 0 is the most significant bit, so integer order is lex order.
        return sum(1 << (n - 1 - j) for j, b in enumerate(bits) if b % 2)

    gens = [
        (1 << (n - 1 - i), mask(rs.cartan[j][i] for j in range(n)))
        for i in range(n)
        if i + 1 not in gd.node_set
    ]
    gens.append(
        (mask(theta), mask(pairing_with_coroot(rs, a, theta) for a in rs.simple_roots))
    )
    vectors = list(product((0, 1), repeat=n))  # vectors[x] has the bits of x
    seen = bytearray(1 << n)
    orbits = []
    for start in range(1 << n):
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        for x in members:
            for beta, column in gens:
                if (x & beta).bit_count() % 2:
                    y = x ^ column
                    if not seen[y]:
                        seen[y] = 1
                        members.append(y)
        orbits.append(tuple(vectors[x] for x in sorted(members)))
    return orbits


def enumerate_involutions(rs):
    """All 2^rank coweight-basis candidates with denominator 2, in lex order.

    Includes the zero element; downstream analysis rejects it (the highest
    root pairs to zero with it).
    """
    from quatforms import GradingError, ToralElement

    if rs.rank < 2:
        raise GradingError(
            f"no quaternionic node grading for {rs.type.label} (rank 1)"
        )
    return [
        ToralElement(coords, 2, "coweight")
        for coords in product((0, 1), repeat=rs.rank)
    ]


@lru_cache(maxsize=None)
def triple_masks_by_t(rs):
    """(roles, tops): the sum-triple masks in the layout the package used
    before it grouped the role bits by w.  roles[x] has bit t, T + t and
    2T + t when x is the u, the v and the w of triple t (``_sum_triples``
    order); tops[x] has bit t when x is the w."""
    triples = rs._sum_triples
    n_triples = len(triples)
    roles = [0] * len(rs.positive_roots)
    tops = roles.copy()
    for t, (u, v, w) in enumerate(triples):
        roles[u] |= 1 << t
        roles[v] |= 1 << (n_triples + t)
        roles[w] |= 1 << (2 * n_triples + t)
        tops[w] |= 1 << t
    return roles, tops


def closed_base_by_tops(ambient, members):
    """subsys._closed_base as it ran before the carry: the base, as indices,
    of the symmetric root set whose positive members sit at the ascending
    indices ``members``, found by a pass over the members with their tops
    masks.  Raises the package's NotClosedError for the lowest bad triple."""
    from quatforms.subsys import _missing

    roles, tops = triple_masks_by_t(ambient)
    n_triples = len(ambient._sum_triples)
    present = sum([roles[x] for x in members])
    full = (1 << n_triples) - 1
    u_in = present & full
    v_in = present >> n_triples & full
    w_in = present >> 2 * n_triples
    uv = u_in & v_in
    bad = (uv | (u_in | v_in) & w_in) & ~(uv & w_in)
    if bad:
        pos = ambient.positive_roots
        t = (bad & -bad).bit_length() - 1
        u, v, w = ambient._sum_triples[t]
        if not w_in >> t & 1:
            raise _missing(pos[u], "+", pos[v])
        raise _missing(pos[u] if u_in >> t & 1 else pos[v], "-", pos[w])
    return [x for x in members if not uv & tops[x]]


def analysis_by_lists(rs, gd, t):
    """(l_type, v_type, circle_ok, s, step6) of t, s a list of indices: the
    list kernel complexform._analysis ran before it read l and v off role
    sums.  l keeps the positive roots whose pairing is 0 mod denom, the
    indices of gd.m_pos split it into s and v, both go through
    closed_base_by_tops, the v base must be l's grade-0 base nodes plus
    theta when l holds it, and each base is typed on its own by diagram
    keys (``diagram_base_type``)."""
    from quatforms.involution import _pairing_values

    vals = _pairing_values(rs, t)
    d = t.denom
    kept = [x for x, v in enumerate(vals) if v % d == 0]
    where = {r: k for k, r in enumerate(rs.positive_roots)}
    m_idx = {where[r] for r in gd.m_pos}
    s = [x for x in kept if x in m_idx]
    l_base = closed_base_by_tops(rs, kept)
    v_base = closed_base_by_tops(rs, [x for x in kept if x not in m_idx])
    circle_ok = vals[-1] % d != 0
    theta = len(vals) - 1
    v0 = [x for x in l_base if x not in m_idx and x != theta]
    if v0 + [theta] * (not circle_ok) != v_base:
        raise RuntimeError(f"v base at {t.describe()} is not l's grade-0 base plus theta")
    l_type, v_type = diagram_base_type(rs, l_base), diagram_base_type(rs, v_base)
    return l_type, v_type, circle_ok, s, step6_rows(rs, gd, s)


def analyze_via_subsystems(rs, gd, t):
    """complexform.analyze on root-tuple sets, as it ran before it moved to
    positive-root indices.

    The centralizer is a Subsystem of root tuples, s_pos and the v root
    set are filtered by membership in the set of grade +-1 roots, v is a
    second Subsystem, both are typed by recognize, the circle test is the
    public pairing of t with the highest root, and the step6 rows are root
    tuples.  Returns the ComplexFormAnalysis that analyze must equal.
    """
    from quatforms.complexform import (
        COMPLEX_FORM,
        NOT_COMPLEX_FORM,
        ComplexFormAnalysis,
    )
    from quatforms.involution import centralizer, pairing
    from quatforms.subsys import Subsystem, recognize

    theta = rs.highest_root
    m_roots = frozenset(gd.m_pos) | {tuple(-x for x in r) for r in gd.m_pos}
    cent = centralizer(rs, t)
    s_pos = tuple(alpha for alpha in cent.positive_roots if alpha in m_roots)
    v_type = recognize(Subsystem(rs, cent.roots - m_roots))
    circle_ok = pairing(rs, t, theta) != 0
    rows = set(s_pos) | set(gd.m_pos)
    rows |= {tuple(x - y for x, y in zip(theta, beta)) for beta in s_pos}
    dim_h = gd.quaternionic_dim
    complex_form = circle_ok and len(s_pos) == dim_h
    return ComplexFormAnalysis(
        ambient=rs.type.label,
        sym=t,
        l_type=recognize(cent),
        v_type=v_type,
        s_pos=s_pos,
        circle_ok=circle_ok,
        dim_s=len(s_pos),
        dim_h=dim_h,
        m_count=len(gd.m_pos),
        step6_count=len(rows) - len(gd.m_pos),
        verdict=COMPLEX_FORM if complex_form else NOT_COMPLEX_FORM,
    )


def brute_force_classify(rs, golden_path=None):
    """classify_equal_rank by screening and analyzing all 2^rank candidates.

    No orbit reduction: every candidate passing the circle and dimension
    screens is analyzed, by analyze_via_subsystems, and counted once, and
    the first (lex-smallest) candidate of each (L, V) pair is its witness.
    The registry diff repeats the package's, so the report's to_json()
    must equal the orbit scan's.
    """
    from quatforms.classify import (
        ClassificationReport,
        FoundForm,
        GoldenDataError,
        golden_for_type,
    )
    from quatforms.involution import centralizer_roots, pairing
    from quatforms.rootsys import quaternionic_decomposition

    gd = quaternionic_decomposition(rs)
    theta = rs.highest_root
    m_set = set(gd.m_pos)

    found_order = []
    witnesses = {}
    counts = {}
    n_candidates = 0
    for t in enumerate_involutions(rs):
        n_candidates += 1
        if pairing(rs, t, theta) == 0:
            continue
        cent = centralizer_roots(rs, t)
        if sum(1 for a in m_set if a in cent) != gd.quaternionic_dim:
            continue
        a = analyze_via_subsystems(rs, gd, t)
        if not a.is_complex_form or a.step6_count != 0:
            raise RuntimeError(
                f"fast screen disagrees with full analysis at {t.describe()}: "
                f"verdict {a.verdict}, step6 count {a.step6_count}"
            )
        key = (a.l_type, a.v_type)
        if key not in witnesses:
            witnesses[key] = t
            counts[key] = 0
            found_order.append(key)
        counts[key] += 1

    found = [
        FoundForm(k[0], k[1], witnesses[k], counts[k])
        for k in sorted(found_order, key=lambda k: (k[0].render(), k[1].render()))
    ]

    try:
        golden, have_baseline = golden_for_type(rs.type, golden_path)
    except GoldenDataError:
        if golden_path:
            raise
        golden, have_baseline = [], False

    expected = [e for e in golden if e.equal_rank]
    skipped = [e for e in golden if not e.equal_rank]
    if have_baseline:
        found_keys = {f.key for f in found}
        expected_keys = {e.key for e in expected}
        missing = [e for e in expected if e.key not in found_keys]
        unexpected = [f for f in found if f.key not in expected_keys]
    else:
        missing, unexpected = [], []

    return ClassificationReport(
        ambient=rs.type,
        found=found,
        expected_equal_rank=expected,
        missing=missing,
        unexpected=unexpected,
        skipped_unequal_rank=skipped,
        no_golden_baseline=not have_baseline,
        candidates=n_candidates,
    )
