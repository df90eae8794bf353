from __future__ import annotations

import ast
import random
import re

import pytest

from quatforms import (
    CartanType,
    NotClosedError,
    Subsystem,
    ToralElement,
    UnclassifiableSubsystemError,
    analyze,
    base_of,
    build_root_system,
    centralizer,
    node_set,
    parse_type,
    recognize,
)
from quatforms.involution import _pairing_values
from quatforms.rootsys import (
    CLASSICAL_RANK_CAP,
    InvalidTypeError,
    SimpleType,
    _RANKS,
    _cartan_matrix,
    grade,
    quaternionic_decomposition,
)
from quatforms.subsys import (
    _base_mask,
    _bits,
    _closed_base,
    _count_types,
    _type_of,
    _v_tables,
    normalize_components,
)

from conftest import (
    GRADED_LABELS,
    SUPPORTED_LABELS,
    base_type_test_elements,
    l_and_v,
    l_and_v_bases,
    mask_of,
)
from oracles import (
    EDGE_CLASSES,
    ENTRIES,
    base_adjacency,
    base_first_closure_base,
    closed_base_by_tops,
    component_keys,
    diagram_base_type,
    diagram_components,
    diagram_types,
    indecomposable_base,
    pairing_with_coroot,
    pairwise_base_type,
    pairwise_closure_base,
    regenerate_from_base,
    root_sq_lengths,
    sorted_positive_roots,
    squared_lengths,
    tree_certificate_type,
)


def _full(label):
    rs = build_root_system(parse_type(label))
    return rs, Subsystem(rs, rs.root_set)


def test_base_of_full_e8_is_the_simple_roots():
    rs, sub = _full("E8")
    assert sorted(base_of(sub)) == sorted(rs.simple_roots)


def test_base_of_empty():
    rs = build_root_system(parse_type("A2"))
    sub = Subsystem(rs, frozenset())
    assert base_of(sub) == []
    assert recognize(sub) == CartanType((), 2)


def test_base_of_g2_subsystem():
    rs = build_root_system(parse_type("G2"))
    roots = frozenset({(0, 1), (0, -1), (2, 1), (-2, -1)})
    sub = Subsystem(rs, roots)
    assert sorted(base_of(sub)) == [(0, 1), (2, 1)]
    assert recognize(sub) == CartanType.of("A1", "A1")


def test_subsystem_rejects_non_closed():
    rs = build_root_system(parse_type("A2"))
    # alpha_1 and alpha_2 without their sum
    roots = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})
    with pytest.raises(NotClosedError, match="not a closed subsystem"):
        Subsystem(rs, roots)
    # alpha_1 and the highest root without their difference alpha_2
    roots = frozenset({(1, 0), (-1, 0), (1, 1), (-1, -1)})
    with pytest.raises(
        NotClosedError, match=r"\(1, 0\) - \(1, 1\) = \(0, -1\) is missing"
    ):
        Subsystem(rs, roots)


def test_subsystem_rejects_asymmetric():
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotClosedError, match="missing negative"):
        Subsystem(rs, frozenset({(1, 0)}))


def test_subsystem_rejects_foreign_vectors():
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotClosedError, match="not a root"):
        Subsystem(rs, frozenset({(5, 5), (-5, -5)}))


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_recognize_round_trip(label):
    """recognize(full root set of X) must be X itself with no torus factor."""
    rs, sub = _full(label)
    expected = CartanType((rs.type,), 0)
    assert recognize(sub) == expected


def test_round_trip_applies_low_rank_aliases():
    _, sub = _full("C2")
    assert recognize(sub).render() == "B2"
    _, sub = _full("D3")
    assert recognize(sub).render() == "A3"


def test_recognize_e8_worked_case_v():
    """The isotropy slice of the E8 node involution is E6 plus two tori."""
    rs = build_root_system(parse_type("E8"))
    cent = centralizer(rs, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    v_roots = frozenset(r for r in cent.roots if r[7] % 2 == 0)
    ct = recognize(Subsystem(rs, v_roots))
    assert ct == CartanType.of("E6", torus_rank=2)


def test_recognize_invariant_under_input_order():
    rs = build_root_system(parse_type("F4"))
    cent = centralizer(rs, ToralElement((1, 0, 0, 0), 2, "coroot"))
    roots = list(cent.roots)
    results = set()
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(roots)
        results.add(recognize(Subsystem(rs, frozenset(roots))))
    assert len(results) == 1


@pytest.mark.parametrize("label", ["G2", "F4", "A4", "B4", "C4", "D4", "E6"])
def test_rank_accounting_over_centralizers(label):
    """Component ranks plus torus rank equal the ambient rank."""
    from itertools import product

    rs = build_root_system(parse_type(label))
    for coords in product((0, 1), repeat=rs.rank):
        ct = recognize(centralizer(rs, ToralElement(coords, 2, "coweight")))
        assert ct.total_rank == rs.rank


@pytest.mark.parametrize("label", ["G2", "F4", "E6", "B4", "D5"])
def test_base_regenerates_subsystem(label):
    """Reflection closure of the base inside the ambient set gives back sub."""
    from itertools import product

    rs = build_root_system(parse_type(label))
    for coords in list(product((0, 1), repeat=rs.rank))[:16]:
        sub = centralizer(rs, ToralElement(coords, 2, "coweight"))
        base = base_of(sub)
        assert regenerate_from_base(rs, base) == sub.roots


def _assert_base_matches_oracle(sub):
    expected = indecomposable_base(sub.roots)
    assert list(sub.base) == expected
    assert base_of(sub) == expected


def _centralizer_and_v_slice(rs, nodes, t):
    cent = centralizer(rs, t)
    v_roots = frozenset(r for r in cent.roots if grade(rs, nodes, r) % 2 == 0)
    return cent, Subsystem(rs, v_roots)


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank <= 6]
)
def test_base_matches_oracle_on_involutions(label):
    """The base found by the closure pass equals a separate sum scan."""
    from itertools import product

    rs = build_root_system(parse_type(label))
    nodes = node_set(rs)
    for coords in product((0, 1), repeat=rs.rank):
        t = ToralElement(coords, 2, "coweight")
        for sub in _centralizer_and_v_slice(rs, nodes, t):
            _assert_base_matches_oracle(sub)


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank <= 6]
)
def test_positive_roots_match_sort_on_involutions(label):
    """Filtering the ambient order gives the (height, lex) sort of the set."""
    from itertools import product

    rs = build_root_system(parse_type(label))
    nodes = node_set(rs)
    for coords in product((0, 1), repeat=rs.rank):
        t = ToralElement(coords, 2, "coweight")
        for sub in _centralizer_and_v_slice(rs, nodes, t):
            assert sub.positive_roots == sorted_positive_roots(sub.roots)


@pytest.mark.parametrize("label", ["E7", "E8", "B10", "D10"])
def test_positive_roots_match_sort_on_higher_order_elements(label):
    rs = build_root_system(parse_type(label))
    nodes = node_set(rs)
    rng = random.Random(f"order-{label}")
    for _ in range(8):
        d = rng.randint(3, 6)
        coords = tuple(rng.randrange(d) for _ in range(rs.rank))
        t = ToralElement(coords, d, rng.choice(["coroot", "coweight"]))
        for sub in _centralizer_and_v_slice(rs, nodes, t):
            assert sub.positive_roots == sorted_positive_roots(sub.roots)


_MISSING = re.compile(
    r"not a closed subsystem: (\(.*?\)) ([+-]) (\(.*?\)) = (\(.*?\)) is missing$"
)


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank <= 6]
)
def test_not_closed_error_names_a_missing_sum(label):
    """Drop one decomposable root pair from each d = 2 centralizer.

    The pair named by the error must form, in tuple arithmetic, the vector
    it names; that vector is an ambient root missing from the set (one of
    the dropped pair) while both named roots are present.
    """
    from itertools import product

    rs = build_root_system(parse_type(label))
    rng = random.Random(f"not-closed-{label}")
    checked = 0
    for coords in product((0, 1), repeat=rs.rank):
        cent = centralizer(rs, ToralElement(coords, 2, "coweight"))
        decomposable = [r for r in cent.positive_roots if r not in cent.base]
        if not decomposable:
            continue
        gamma = rng.choice(decomposable)
        neg = tuple(-x for x in gamma)
        roots = cent.roots - {gamma, neg}
        with pytest.raises(NotClosedError) as info:
            Subsystem(rs, roots)
        m = _MISSING.match(str(info.value))
        assert m, str(info.value)
        a, op, b, v = (m.group(1), m.group(2), m.group(3), m.group(4))
        a, b, v = ast.literal_eval(a), ast.literal_eval(b), ast.literal_eval(v)
        sign = 1 if op == "+" else -1
        assert tuple(x + sign * y for x, y in zip(a, b)) == v
        assert a in roots and b in roots and v not in roots
        assert v in (gamma, neg) and rs.is_root(v)
        checked += 1
    assert checked


def _assert_agrees_with_pairwise_oracle(rs, roots):
    """Subsystem and both closure oracles (the pairwise pass and the
    base-first walk) accept the same sets, with the same base; a rejection
    names two members whose sum or difference is a root missing from the
    set."""
    try:
        expected = pairwise_closure_base(rs, roots)
    except NotClosedError:
        expected = None
    try:
        assert base_first_closure_base(rs, roots) == expected
    except NotClosedError:
        assert expected is None
    try:
        got = Subsystem(rs, roots).base
    except NotClosedError as exc:
        got = None
        m = _MISSING.match(str(exc))
        assert m, str(exc)
        a, b, v = (
            tuple(map(int, re.findall(r"-?\d+", m.group(k)))) for k in (1, 3, 4)
        )
        sign = 1 if m.group(2) == "+" else -1
        assert tuple(x + sign * y for x, y in zip(a, b)) == v
        assert a in roots and b in roots and v not in roots and rs.is_root(v)
        order = rs.positive_roots.index
        assert order(a) < order(b)
    assert got == expected


@pytest.mark.parametrize("label", ["G2", "B2", "A3", "B3", "C3", "A4", "D4"])
def test_closure_matches_pairwise_oracle_on_every_symmetric_subset(label):
    rs = build_root_system(parse_type(label))
    pos = rs.positive_roots
    pairs = [(r, tuple(-x for x in r)) for r in pos]
    for mask in range(1 << len(pos)):
        roots = frozenset(
            r for k, pair in enumerate(pairs) if mask >> k & 1 for r in pair
        )
        _assert_agrees_with_pairwise_oracle(rs, roots)


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_closure_matches_pairwise_oracle_on_perturbed_centralizers(label):
    """Drop one +-root pair from, or add one to, centralizers of d = 2-4,
    and toggle 2-3 pairs at once, so several roots can be missing."""
    rs = build_root_system(parse_type(label))
    rng = random.Random(f"perturb-{label}")
    for d in (2, 3, 4):
        for _ in range(4):
            coords = tuple(rng.randrange(d) for _ in range(rs.rank))
            cent = centralizer(rs, ToralElement(coords, d, "coweight"))
            inside = list(cent.positive_roots)
            outside = [r for r in rs.positive_roots if r not in cent.roots]
            drops = rng.sample(inside, min(3, len(inside)))
            adds = rng.sample(outside, min(3, len(outside)))
            for gamma in drops + adds:
                roots = cent.roots ^ {gamma, tuple(-x for x in gamma)}
                _assert_agrees_with_pairwise_oracle(rs, roots)
            for _ in range(3):
                toggled = rng.sample(rs.positive_roots, rng.randint(2, 3))
                roots = cent.roots ^ {
                    r for g in toggled for r in (g, tuple(-x for x in g))
                }
                _assert_agrees_with_pairwise_oracle(rs, roots)


@pytest.mark.parametrize("label", ["E7", "E8", "B10", "D10"])
def test_base_matches_oracle_on_higher_order_elements(label):
    rs = build_root_system(parse_type(label))
    nodes = node_set(rs)
    rng = random.Random(f"base-{label}")
    for _ in range(8):
        d = rng.randint(3, 5)
        coords = tuple(rng.randrange(d) for _ in range(rs.rank))
        t = ToralElement(coords, d, rng.choice(["coroot", "coweight"]))
        for sub in _centralizer_and_v_slice(rs, nodes, t):
            _assert_base_matches_oracle(sub)


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_carry_base_matches_the_tops_loop(label):
    """On the l and v of ``base_type_test_elements`` and on seeded sets of
    positive roots, closed or not, the carry gives the base the pass over
    the members' tops masks gives, or raises the same NotClosedError."""
    rs = build_root_system(parse_type(label))
    gd = quaternionic_decomposition(rs)
    roles, n = rs._triple_masks[0], len(rs.positive_roots)
    sets = []
    for t in base_type_test_elements(rs):
        kept = [x for x, v in enumerate(_pairing_values(rs, t)) if v % t.denom == 0]
        sets += [kept, [x for x in kept if not gd._masks[0] >> x & 1]]
    rng = random.Random(f"carry-{label}")
    sets += [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(200)]
    closed = 0
    for members in sets:
        present = sum(roles[x] for x in members)
        try:
            want = closed_base_by_tops(rs, members)
        except NotClosedError as exc:
            with pytest.raises(NotClosedError) as got:
                _closed_base(rs, present)
            assert str(got.value) == str(exc), members
        else:
            assert _bits(_base_mask(rs, _closed_base(rs, present))) == want, members
            closed += 1
    assert 0 < closed < len(sets)


def test_recognize_rejects_positive_base_pairing():
    """A base whose elements pair positively is refused by a raise, not an assert."""
    rs, sub = _full("A2")
    object.__setattr__(sub, "base", ((1, 0), (1, 1)))
    with pytest.raises(UnclassifiableSubsystemError, match="pair positively"):
        recognize(sub)


def test_recognize_rejects_base_elements_differing_by_a_root():
    """Short roots of B2 that pair to 0 but differ by a long root are no
    base of any closed subsystem, so they are refused, not typed A1 A1."""
    rs, sub = _full("B2")
    object.__setattr__(sub, "base", ((0, 1), (1, 1)))
    assert pairing_with_coroot(rs, (0, 1), (1, 1)) == 0
    with pytest.raises(UnclassifiableSubsystemError, match="pair positively"):
        recognize(sub)


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_base_type_matches_pairwise_oracle(label):
    """Counting roots types every l and v as the diagram-key oracle and the
    walk over all base pairs do: every mod-2 candidate up to rank 8, every
    orbit representative above, seeded d = 3-6 elements in both bases and
    the d = 1 and theta-in-l elements of ``base_type_test_elements``."""
    rs = build_root_system(parse_type(label))
    gd = quaternionic_decomposition(rs)
    for t in base_type_test_elements(rs):
        for base, members in l_and_v(rs, gd, t):
            got = _type_of(rs, mask_of(base), members)[0]
            assert got == diagram_base_type(rs, base) == pairwise_base_type(rs, base), t.describe()


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_table_parts_type_matches_the_normalizing_constructor(label):
    """The kernel's type is the one the public constructor builds from its
    components: same components in the same order, same hash and name."""
    rs = build_root_system(parse_type(label))
    gd = quaternionic_decomposition(rs)
    for t in base_type_test_elements(rs):
        for base, members in l_and_v(rs, gd, t):
            got = _type_of(rs, mask_of(base), members)[0]
            expected = CartanType(got.components, got.torus_rank)
            assert got == expected and got.components == expected.components, t.describe()
            assert (hash(got), str(got)) == (hash(expected), expected.render())


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_edge_pairings_from_lengths_match_string_walks(label):
    """In the diagram-key oracle, every l and v base diagram has an edge
    exactly where the pairing is nonzero, and the entries the root lengths
    give across it are the root-string pairings."""
    rs = build_root_system(parse_type(label))
    gd = quaternionic_decomposition(rs)
    pos, lengths = rs.positive_roots, root_sq_lengths(rs)
    for t in base_type_test_elements(rs):
        for base in l_and_v_bases(rs, gd, t):
            adj = base_adjacency(rs, base)
            found = {
                (x, y, *ENTRIES[lengths[x], lengths[y]]) for x in base for y in _bits(adj[x])
            }
            walked = set()
            for x in base:
                for y in base:
                    p = pairing_with_coroot(rs, pos[x], pos[y])
                    if x != y and p:
                        walked.add((x, y, p, pairing_with_coroot(rs, pos[y], pos[x])))
            assert found == walked, t.describe()


@pytest.mark.parametrize("label", ["D6", "F4", "E8"])
def test_base_type_and_analyze_walk_no_root_strings(label):
    """_type_of and analyze type l and v by root counts, and the grading
    reads theta's pairings off the Cartan matrix: after they run, no module
    of the package, nor any class in one, binds the root-string walker, the
    tuple orbit walk, the root code set, the diagram-key typing, the packed
    code tables, the list step6 count or a grade-1 flag tuple (a dataclass
    field counts as bound)."""
    import pkgutil
    from importlib import import_module

    import quatforms

    rs = build_root_system(parse_type(label))
    gd = quaternionic_decomposition(rs)
    for t in base_type_test_elements(rs):
        for base, members in l_and_v(rs, gd, t):
            _type_of(rs, mask_of(base), members)
        analyze(rs, gd, t)
    gone = {"pairing_with_coroot", "_string_pairing", "wk_orbits", "_code_set", "_component_keys"}
    gone |= {"_codes", "_position", "_pos_codes", "_m_codes", "_step6_count", "in_m"}
    mods = [quatforms] + [
        import_module(f"quatforms.{m.name}") for m in pkgutil.iter_modules(quatforms.__path__)
    ]
    for mod in mods:
        for scope in [mod, *(v for v in vars(mod).values() if isinstance(v, type))]:
            names = set(vars(scope)) | set(getattr(scope, "__dataclass_fields__", ()))
            assert not gone & names, (mod.__name__, scope)


def _assert_recognize_matches_certificate(sub):
    ambient = sub.ambient
    base = [ambient._index[r] for r in sub.base]
    assert recognize(sub) == tree_certificate_type(sub) == diagram_base_type(ambient, base)


@pytest.mark.parametrize(
    "label", [s for s in GRADED_LABELS if parse_type(s).rank <= 8]
)
def test_recognize_matches_tree_certificate_on_involutions(label):
    """recognize names every l and v of a d = 2 candidate as the tree
    certificate and the diagram-key oracle do."""
    from itertools import product

    rs = build_root_system(parse_type(label))
    nodes = node_set(rs)
    for coords in product((0, 1), repeat=rs.rank):
        t = ToralElement(coords, 2, "coweight")
        for sub in _centralizer_and_v_slice(rs, nodes, t):
            _assert_recognize_matches_certificate(sub)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_recognize_matches_tree_certificate_on_higher_order_elements(label):
    """Seeded d = 3-7 elements; A1 has no grading, so only its centralizer."""
    rs = build_root_system(parse_type(label))
    rng = random.Random(f"recognize-{label}")
    for _ in range(6):
        d = rng.randint(3, 7)
        coords = tuple(rng.randrange(d) for _ in range(rs.rank))
        t = ToralElement(coords, d, rng.choice(["coroot", "coweight"]))
        if rs.rank == 1:
            subs = [centralizer(rs, t)]
        else:
            subs = _centralizer_and_v_slice(rs, node_set(rs), t)
        for sub in subs:
            _assert_recognize_matches_certificate(sub)


def _diagram(lengths, edges):
    """Adjacency masks and squared lengths of a diagram with edges (i, j)."""
    adj = {i: 0 for i in range(len(lengths))}
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj, lengths


def _cartan_diagram(t):
    """The Dynkin diagram of t, its squared lengths from the Fraction oracle."""
    a, n = _cartan_matrix(t), t.rank
    frac = squared_lengths(a)
    lengths = [int(x / min(frac)) for x in frac]
    return _diagram(lengths, [(i, j) for i in range(n) for j in range(i + 1, n) if a[i][j]])


@pytest.mark.parametrize("rank", range(1, CLASSICAL_RANK_CAP + 1))
def test_diagram_table_holds_every_type_of_its_rank(rank):
    """In the diagram-key oracle, every buildable type is found under its
    own diagram, and only the low-rank aliases A3/D3 and B2/C2 share a key."""
    types = []
    for family in _RANKS:
        try:
            types.append(SimpleType(family, rank))
        except InvalidTypeError:
            pass
    table = diagram_types(rank)
    by_key = {}
    for t in types:
        adj, lengths = _cartan_diagram(t)
        (found,) = diagram_components(adj, lengths)
        assert CartanType((found,)) == CartanType((t,))
        (key,) = component_keys(adj, lengths)
        by_key.setdefault(key, []).append(t.label)
    shared = sorted(labels for labels in by_key.values() if len(labels) > 1)
    assert shared == {2: [["B2", "C2"]], 3: [["A3", "D3"]]}.get(rank, [])
    assert set(table) == set(by_key)


@pytest.mark.parametrize("rank", range(1, CLASSICAL_RANK_CAP + 1))
def test_diagram_key_ints_count_each_neighbour_class(rank):
    """The 2-bit digits of a node's int in the key count its neighbours of
    each class (a_ij, a_ji, degree of j), so no count spills into the next."""
    from collections import Counter

    classes = {v: (*ENTRIES[li, lj], d) for (li, lj, d), v in EDGE_CLASSES.items()}
    for family in _RANKS:
        try:
            adj, lengths = _cartan_diagram(SimpleType(family, rank))
        except InvalidTypeError:
            continue
        expected = sorted(
            sorted(
                Counter(
                    (*ENTRIES[lengths[i], lengths[j]], adj[j].bit_count()) for j in _bits(adj[i])
                ).items()
            )
            for i in adj
        )
        ((n, ints),) = component_keys(adj, lengths)
        decoded = sorted(
            sorted((c, x // v & 3) for v, c in classes.items() if x // v & 3) for x in ints
        )
        assert (n, decoded) == (rank, expected), family


# Lengths and edges; a diagram read off root lengths has no edge with
# entries -2, -2, which no length ratio gives.
_NOT_DYNKIN = {
    "3-cycle": ([1, 1, 1], [(0, 1), (1, 2), (0, 2)]),
    "tree with arms 1, 3, 3": (
        [1] * 8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]
    ),
    "4-chain with two double edges": ([2, 1, 1, 2], [(0, 1), (1, 2), (2, 3)]),
    "interior double edge at rank 5": ([2, 2, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "triple edge at rank 3": ([1, 1, 3], [(0, 1), (1, 2)]),
    "edge with entries -1, -4": ([1, 4], [(0, 1)]),
    "5-node star": ([1] * 5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "branch node with a double edge": ([2, 2, 2, 1], [(0, 1), (0, 2), (0, 3)]),
}


@pytest.mark.parametrize("name", sorted(_NOT_DYNKIN))
def test_component_type_rejects_non_dynkin_diagrams(name):
    with pytest.raises(
        UnclassifiableSubsystemError, match="base diagram matches no simple type"
    ):
        diagram_components(*_diagram(*_NOT_DYNKIN[name]))


@pytest.mark.parametrize("rank", range(1, CLASSICAL_RANK_CAP + 1))
def test_count_table_holds_every_type_of_its_rank(rank):
    """Every buildable type is found under (N, s) read off its generated
    root system: N its positive roots and s its short simple roots, from
    the Fraction length oracle, mod the rank.  Only the low-rank aliases
    A3/D3 and B2/C2 share a key, and the table holds no other key."""
    table = _count_types(rank)
    by_key = {}
    for family in _RANKS:
        try:
            t = SimpleType(family, rank)
        except InvalidTypeError:
            continue
        lengths = squared_lengths(_cartan_matrix(t))
        key = (len(build_root_system(t).positive_roots), lengths.count(min(lengths)) % rank)
        assert CartanType((table[key],)) == CartanType((t,)), t.label
        by_key.setdefault(key, []).append(t.label)
    shared = sorted(labels for labels in by_key.values() if len(labels) > 1)
    assert shared == {2: [["B2", "C2"]], 3: [["A3", "D3"]]}.get(rank, [])
    assert set(table) == set(by_key)


def _named_without(cartan, lengths, cut):
    """The simple types of the diagram of cartan with the nodes in cut deleted,
    named by diagram keys (``oracles.diagram_components``)."""
    keep = [i for i in range(len(cartan)) if i not in cut]
    adj = {i: sum([1 << j for j in keep if j != i and cartan[i][j]]) for i in keep}
    return diagram_components(adj, lengths)


def test_v_tables_match_diagrams_with_nodes_deleted():
    """Each row of the two tables that type v, against Cartan matrices, not
    the family rules: for every buildable type and each node of mark 1 (its
    coefficient in the highest root), the diagram without that node, keyed
    by its positive roots (those with coefficient 0 there); and the diagram
    without the attach nodes (<theta, alpha_i-check> > 0, the node set at
    rank >= 2) plus the A1 of theta, keyed by the positive roots of grade 0
    plus theta.  The tables hold no other row."""
    minus, isotropy = _v_tables()
    seen_minus, seen_isotropy = set(), set()
    for label in SUPPORTED_LABELS:
        t = parse_type(label)
        rs = build_root_system(t)
        cartan, theta, pos = rs.cartan, rs.highest_root, rs.positive_roots
        sq = squared_lengths(cartan)
        lengths = [int(x / min(sq)) for x in sq]
        (normal,) = CartanType((t,)).components
        for j in (j for j, mark in enumerate(theta) if mark == 1):
            key = (normal, sum(1 for r in pos if not r[j]))
            names = _named_without(cartan, lengths, {j})
            assert CartanType(minus[key]) is CartanType(names), (label, j + 1)
            seen_minus.add(key)
        attach = {i for i in range(t.rank) if sum(c * row[i] for c, row in zip(theta, cartan)) > 0}
        if t.rank >= 2:
            assert attach == {i - 1 for i in node_set(rs)}, label
        key = (normal, 1 + sum(1 for r in pos if not any(r[i] for i in attach)))
        names = [parse_type("A1"), *_named_without(cartan, lengths, attach)]
        assert CartanType(isotropy[key]) is CartanType(names), label
        seen_isotropy.add(key)
    assert (set(minus), set(isotropy)) == (seen_minus, seen_isotropy)


# Each constructor builds rank 1, then rank True, or the reverse, in a fresh
# process, so no earlier test has filled the caches.
_BOOL_RANK = """
import sys
from quatforms.rootsys import SimpleType
from quatforms.subsys import CartanType
build = {"CartanType": lambda r: CartanType([("A", r)]), "SimpleType": lambda r: SimpleType("A", r)}
for rank in (1, True) if sys.argv[2] == "int-first" else (True, 1):
    try:
        print(build[sys.argv[1]](rank))
    except TypeError as exc:
        print(exc)
"""


@pytest.mark.parametrize("order", ["int-first", "bool-first"])
@pytest.mark.parametrize("constructor", ["CartanType", "SimpleType"])
def test_a_bool_rank_is_refused_whatever_was_built_before(constructor, order):
    """A rank True is refused even after rank 1 was built: the caches key
    (family, rank) pairs and ranks by type, not by ==."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import quatforms

    src = str(Path(quatforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BOOL_RANK, constructor, order],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = ["A1", "rank True is not an integer"]
    assert proc.stdout.splitlines() == (lines if order == "int-first" else lines[::-1])


# Closed subsystems with a tampered base: (ambient, positive roots, base,
# the error _type_of raises).  Every check is a raise, so it holds under -O.
_TAMPERED = {
    "node-missing": ("B2", [(1, 0), (1, 2)], [(1, 0)], "do not cover the subsystem"),
    "decomposable-added": (
        "A2", [(1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1), (1, 1)], "differ by a root"
    ),
    "pair-differs-by-a-root": (
        "B2", [(1, 0), (0, 1), (1, 1), (1, 2)], [(0, 1), (1, 1)], "differ by a root"
    ),
    "components-overlap": (
        "B2", [(1, 0), (0, 1), (1, 1), (1, 2)], [(1, 0), (1, 2)], "share a root"
    ),
    "no-type": ("A2", [(1, 0), (0, 1), (1, 1)], [(1, 0)], "matches no simple type"),
}


def _tampered(name):
    label, positive, base, _ = _TAMPERED[name]
    rs = build_root_system(parse_type(label))
    sub = Subsystem(rs, frozenset(positive) | {tuple(-c for c in r) for r in positive})
    object.__setattr__(sub, "base", tuple(base))
    return sub


@pytest.mark.parametrize("name", sorted(_TAMPERED))
def test_recognize_refuses_tampered_bases(name):
    with pytest.raises(UnclassifiableSubsystemError, match=_TAMPERED[name][3]):
        recognize(_tampered(name))


def test_recognize_refuses_e8_with_a_simple_root_missing():
    rs, sub = _full("E8")
    for r in rs.simple_roots:
        object.__setattr__(sub, "base", tuple(b for b in rs.simple_roots if b != r))
        with pytest.raises(UnclassifiableSubsystemError):
            recognize(sub)


_RECOGNIZE_TAMPERED = """
import ast, sys
from quatforms import Subsystem, UnclassifiableSubsystemError, build_root_system, parse_type
from quatforms import recognize
for name, (label, positive, base, _) in sorted(ast.literal_eval(sys.argv[1]).items()):
    rs = build_root_system(parse_type(label))
    sub = Subsystem(rs, frozenset(positive) | {tuple(-c for c in r) for r in positive})
    object.__setattr__(sub, "base", tuple(base))
    try:
        recognize(sub)
    except UnclassifiableSubsystemError as exc:
        print(name, exc)
"""


def test_recognize_refuses_tampered_bases_under_optimization():
    """The same refusals with asserts stripped (python -O)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import quatforms

    src = str(Path(quatforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _RECOGNIZE_TAMPERED, repr(_TAMPERED)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == sorted(_TAMPERED)
    for line in lines:
        assert line.endswith(_TAMPERED[line.split()[0]][3]), line


def test_base_pairings_nonpositive():
    rs = build_root_system(parse_type("E7"))
    cent = centralizer(rs, ToralElement((1,) + (0,) * 6, 2, "coweight"))
    base = base_of(cent)
    for i, a in enumerate(base):
        for b in base[i + 1 :]:
            assert pairing_with_coroot(rs, a, b) <= 0


def test_normalize_components():
    assert [t.label for t in normalize_components([("C", 2)])] == ["B2"]
    assert [t.label for t in normalize_components([("B", 1)])] == ["A1"]
    assert [t.label for t in normalize_components([("C", 1)])] == ["A1"]
    assert [t.label for t in normalize_components([("D", 2)])] == ["A1", "A1"]
    assert [t.label for t in normalize_components([("D", 3)])] == ["A3"]


def test_cartan_type_rendering():
    ct = CartanType.of("A1", "E6", torus_rank=2)
    assert ct.render() == "E6 A1 T1 T1"
    assert str(ct) == "E6 A1 T1 T1"
    assert ct.render({"A1": "C1"}) == "E6 C1 T1 T1"
    assert CartanType((), 0).render() == "0"
    assert CartanType((), 2).render() == "T1 T1"


def test_cartan_type_component_order_is_canonical():
    a = CartanType.of("A1", "B5", "A1")
    b = CartanType.of("B5", "A1", "A1")
    assert a == b
    assert a.render() == "B5 A1 A1"


def test_cartan_type_has_one_instance_per_type():
    """Every way to build a type returns its one instance: aliases, any
    component order, of, from_json, replace, copies and a pickle round trip."""
    import copy
    import dataclasses
    import pickle

    b2, a3, a1 = SimpleType("B", 2), SimpleType("A", 3), SimpleType("A", 1)
    ct = CartanType([a1, b2, a3, a1], 1)
    for alias in ([("D", 2), SimpleType("C", 2), SimpleType("D", 3)], [("D", 3), a1, a1, ("C", 2)]):
        assert CartanType(alias, 1) is ct
    assert CartanType.of("A3", "A1", "C2", "A1", torus_rank=1) is ct
    assert CartanType.from_json(ct.to_json()) is ct
    assert dataclasses.replace(ct) is ct
    assert dataclasses.replace(ct, torus_rank=0) is CartanType([a3, b2, ("D", 2)])
    for twin in (copy.copy(ct), copy.deepcopy(ct), pickle.loads(pickle.dumps(ct))):
        assert twin is ct
    assert ct.render() == "A3 B2 A1 A1 T1"
    assert CartanType(()).render() == "0"


@pytest.mark.parametrize("torus_rank", [True, 1.0], ids=["bool", "float"])
def test_cartan_type_refuses_a_torus_rank_that_is_no_int(torus_rank):
    """A torus rank equal to 1 but of another type is refused, not stored
    (to_json would write it) nor matched to the instance for 1."""
    assert CartanType((), 1).render() == "T1"
    with pytest.raises(TypeError, match="^torus rank .* is not an integer$"):
        CartanType((), torus_rank)


def test_normalize_components_refuses_a_rank_that_is_no_int():
    """A pair's rank is checked before its alias lookup, as a SimpleType's."""
    for pair in (("D", True), ("B", 1.0), ("A", True)):
        with pytest.raises(TypeError, match="is not an integer$"):
            normalize_components([pair])


def test_cartan_type_json_round_trip():
    ct = CartanType.of("D6", "A1", torus_rank=1)
    assert CartanType.from_json(ct.to_json()) == ct
