from __future__ import annotations

import dataclasses
import re

import pytest

from quatforms import (
    GradedDecomposition,
    GradingError,
    InvalidTypeError,
    SimpleType,
    build_root_system,
    grade,
    node_set,
    parse_type,
    quaternionic_decomposition,
)
from quatforms.rootsys import (
    _COEFF_BOUND,
    _check_coefficient_bound,
    _encode,
)

from conftest import GRADED_LABELS, SUPPORTED_LABELS
from oracles import (
    coroot_pairing,
    length_pairing,
    pairing_with_coroot,
    positive_part,
    reflection_closure,
    root_code_table,
    root_sq_lengths,
    squared_lengths,
)


def test_parse_type_examples():
    assert parse_type("E8").family == "E" and parse_type("E8").rank == 8
    assert parse_type("G2").family == "G" and parse_type("G2").rank == 2
    assert parse_type("b3").label == "B3"


def test_parse_type_rejects_unknown_family():
    with pytest.raises(InvalidTypeError, match="unknown family"):
        parse_type("H3")
    with pytest.raises(InvalidTypeError, match="unknown family"):
        parse_type("Z9")


@pytest.mark.parametrize("family", ["AB", ""])
def test_simple_type_rejects_unknown_family(family):
    """Only a single known letter names a family, not a substring of them."""
    message = f"unknown family {family!r}; valid families are A-G"
    with pytest.raises(InvalidTypeError, match=f"^{re.escape(message)}$"):
        SimpleType(family, 3)


@pytest.mark.parametrize("rank", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_simple_type_rejects_a_rank_that_is_no_int(rank):
    """A rank equal to a valid int, but of another type, is refused rather
    than labelled, e.g. ATrue or A1.0."""
    with pytest.raises(TypeError, match=f"^rank {re.escape(repr(rank))} is not an integer$"):
        SimpleType("A", rank)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_simple_type_has_one_instance_per_type(label):
    """The constructor, parse_type, replace, copies and a pickle round trip
    all return the one instance, which hashes by identity."""
    import copy
    import pickle

    t = parse_type(label)
    assert SimpleType(t.family, t.rank) is t
    assert dataclasses.replace(t) is t
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin is t
    assert hash(t) == object.__hash__(t)
    assert (t.label, repr(t)) == (label, f"SimpleType(family={t.family!r}, rank={t.rank})")


# The tail of each rejection message: the family's valid ranks.
_VALID_RANKS = {
    "A": "valid ranks are 1..10",
    "B": "valid ranks are 2..10",
    "C": "valid ranks are 2..10",
    "D": "valid ranks are 3..10",
    "E": "valid ranks are 6, 7, 8",
    "F": "the only valid rank is 4",
    "G": "the only valid rank is 2",
}


@pytest.mark.parametrize(
    "label",
    ["A0", "B1", "C1", "D2", "E5", "E9", "F5", "G3", "A11", "B11", "D11", "C11", "F3"],
)
def test_parse_type_rejects_out_of_range(label):
    family, rank = label[0], label[1:]
    message = f"rank {rank} out of range for family {family}; {_VALID_RANKS[family]}"
    with pytest.raises(InvalidTypeError, match=f"^{re.escape(message)}$"):
        parse_type(label)


def test_b2_and_c2_both_accepted():
    assert parse_type("B2").label == "B2"
    assert parse_type("C2").label == "C2"


# Closed-form positive-root counts per family.
def _expected_count(family: str, n: int) -> int:
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "G": 6,
        "F": 24,
    }[family]


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_positive_root_counts(label):
    rs = build_root_system(parse_type(label))
    assert len(rs.positive_roots) == _expected_count(rs.type.family, rs.rank)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_dual_oracle_agreement(label):
    """Root-string generation must agree with reflection-orbit closure."""
    rs = build_root_system(parse_type(label))
    oracle = reflection_closure(rs.cartan)
    assert rs.root_set == oracle
    assert set(rs.positive_roots) == positive_part(oracle)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_reflection_and_negation_invariants(label):
    rs = build_root_system(parse_type(label))
    n = rs.rank
    for alpha in rs.root_set:
        assert tuple(-x for x in alpha) in rs.root_set
        for i in range(n):
            p = sum(alpha[j] * rs.cartan[j][i] for j in range(n))
            refl = tuple(a - p if j == i else a for j, a in enumerate(alpha))
            assert refl in rs.root_set


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_highest_root_unique_and_maximal(label):
    rs = build_root_system(parse_type(label))
    maximal = [
        beta
        for beta in rs.positive_roots
        if all(
            not rs.is_root(tuple(b + s for b, s in zip(beta, simple)))
            for simple in rs.simple_roots
        )
    ]
    assert maximal == [rs.highest_root]
    assert rs.positive_roots[-1] == rs.highest_root


def test_deterministic_order_g2():
    rs = build_root_system(parse_type("G2"))
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))


def test_a1_single_root():
    rs = build_root_system(parse_type("A1"))
    assert rs.positive_roots == ((1,),)


def test_cartan_matrix_tables():
    assert build_root_system(parse_type("G2")).cartan == ((2, -1), (-3, 2))
    assert build_root_system(parse_type("B3")).cartan == (
        (2, -1, 0),
        (-1, 2, -2),
        (0, -1, 2),
    )
    assert build_root_system(parse_type("C3")).cartan == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -2, 2),
    )
    f4 = build_root_system(parse_type("F4")).cartan
    assert f4 == ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    # D4 branches at node 2: nodes 1, 3 and 4 all attach to it.
    d4 = build_root_system(parse_type("D4")).cartan
    assert d4 == ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def test_coroot_pairing_examples():
    g2 = build_root_system(parse_type("G2"))
    alpha1, alpha2 = (1, 0), (0, 1)
    assert coroot_pairing(g2, alpha2, 2) == 2
    assert coroot_pairing(g2, alpha1, 2) == -1
    assert coroot_pairing(g2, alpha1, 1) == 2
    e8 = build_root_system(parse_type("E8"))
    assert coroot_pairing(e8, e8.highest_root, 8) == 1


def test_coroot_pairing_rejects_non_roots():
    g2 = build_root_system(parse_type("G2"))
    with pytest.raises(ValueError, match="not a root"):
        coroot_pairing(g2, (2, 0), 1)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_pairing_with_coroot_matches_length_oracle(label):
    """Root-string pairings equal 2(a,b)/(b,b) from squared lengths.

    Every pair of roots up to rank 4; above that every root against each
    simple root and the highest root.
    """
    rs = build_root_system(parse_type(label))
    oracle = length_pairing(rs.cartan)
    roots = sorted(rs.root_set)
    targets = roots if rs.rank <= 4 else rs.simple_roots + (rs.highest_root,)
    for b in targets:
        for a in roots:
            assert pairing_with_coroot(rs, a, b) == oracle(a, b), (a, b)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_root_codes_are_linear_and_injective(label):
    """Packed codes add and subtract like the tuples they stand for.

    Every code in the table is the encoder's value and no two roots share
    one; negation, sums and differences (computed here on tuples) map to
    the negated, added and subtracted codes, and no two distinct vectors
    among the roots and those formed share a code.  Same pairs as the
    pairing oracle test.
    """
    rs = build_root_system(parse_type(label))
    codes = root_code_table(rs)
    roots = sorted(rs.root_set)
    assert set(codes) == rs.root_set
    assert all(codes[a] == _encode(a) for a in roots)
    assert len(set(codes.values())) == len(roots)
    seen = {c: r for r, c in codes.items()}
    targets = roots if rs.rank <= 4 else rs.simple_roots + (rs.highest_root,)
    for a in roots:
        assert _encode(tuple(-x for x in a)) == -codes[a], a
        for b in targets:
            plus = tuple(x + y for x, y in zip(a, b))
            minus = tuple(x - y for x, y in zip(a, b))
            assert _encode(plus) == codes[a] + codes[b], (a, b)
            assert _encode(minus) == codes[a] - codes[b], (a, b)
            for v in (plus, minus):
                assert seen.setdefault(_encode(v), v) == v, (a, b, v)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_parent_table_builds_each_positive_root_once(label):
    """positive_roots opens with alpha_n, ..., alpha_1; every later root is
    its table parent plus alpha_i (tuple sums here), the parent comes
    earlier, and each positive root is listed once.  The negatives table
    is aligned with the positive roots."""
    rs = build_root_system(parse_type(label))
    n = rs.rank
    pos = rs.positive_roots
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    assert list(pos[:n]) == simples[::-1]
    assert len(rs._parents) == len(pos) - n
    for k, (p, i) in enumerate(rs._parents, start=n):
        assert 0 <= p < k and 0 <= i < n, (k, p, i)
        assert tuple(x + y for x, y in zip(pos[p], simples[i])) == pos[k], (k, p, i)
    assert len(set(pos)) == len(pos)
    assert set(pos) | set(rs._negatives) == rs.root_set
    assert rs._negatives == tuple(tuple(-x for x in r) for r in pos)


_T_COUNTS = {
    "G2": 5, "F4": 68, "E6": 120, "E7": 336, "E8": 1120,
    "A8": 84, "C7": 182, "D9": 336, "B9": 408, "B10": 570, "C10": 570,
}


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_sum_triple_table_lists_each_positive_sum_once(label):
    """The triples are exactly the pairs u < v of positive roots whose tuple
    sum is a positive root, in (u, v) order; each role mask has exactly the
    bits of the triples it names, in the layout grouped by w with a spare
    bit after each root's group, and its own spare bit; _index inverts
    positive_roots, with ~k for the negative of root k."""
    rs = build_root_system(parse_type(label))
    pos = rs.positive_roots
    index = {r: k for k, r in enumerate(pos)}
    negatives = {tuple(-x for x in r): ~k for r, k in index.items()}
    assert rs._index == index | negatives
    expected = []
    for u, a in enumerate(pos):
        for v in range(u + 1, len(pos)):
            w = index.get(tuple(x + y for x, y in zip(a, pos[v])))
            if w is not None:
                expected.append((u, v, w))
    triples = rs._sum_triples
    assert list(triples) == expected
    if label in _T_COUNTS:
        assert len(triples) == _T_COUNTS[label]
    # The layout: each root's triples as w, in triple order, then its spare bit.
    slots, spares, width = {}, {}, 0
    for x in range(len(pos)):
        for t in (t for t, triple in enumerate(triples) if triple[2] == x):
            slots[t], width = width, width + 1
        spares[x], width = width, width + 1
    role_bits = [{2 * width + spares[x]} for x in range(len(pos))]
    for t, triple in enumerate(triples):
        for k, x in enumerate(triple):
            role_bits[x].add(k * width + slots[t])
    roles, _sums, _diffs, got_width, fill, got_slots, spare_roots, _near = rs._triple_masks
    assert (got_width, list(got_slots)) == (width, [slots[t] for t in range(len(triples))])
    assert [_bits(m) for m in roles] == role_bits
    assert _bits(fill) == set(slots.values())
    assert spare_roots == {p: x for x, p in spares.items()}


def _bits(mask):
    return {b for b, ch in enumerate(reversed(bin(mask)[2:])) if ch == "1"}


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_sum_and_diff_masks_match_a_pass_over_all_pairs(label):
    """sums[x] and diffs[x] hold exactly the positive y with x + y, resp.
    x - y, in the root set, by tuple arithmetic over all ordered pairs, and
    near[x] holds both and x."""
    rs = build_root_system(parse_type(label))
    pos, roots = rs.positive_roots, rs.root_set
    _roles, sums, diffs, *_, near = rs._triple_masks
    for x, a in enumerate(pos):
        assert near[x] == sums[x] | diffs[x] | 1 << x
        assert _bits(sums[x]) == {
            y for y, b in enumerate(pos) if tuple(p + q for p, q in zip(a, b)) in roots
        }
        assert _bits(diffs[x]) == {
            y for y, b in enumerate(pos) if tuple(p - q for p, q in zip(a, b)) in roots
        }


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_squared_length_table_matches_length_oracle(label):
    """Each positive root's entry is (r, r) over the short roots' squared
    length, from the oracle's simple-root lengths, and its ratio to the
    highest root's entry is the ratio of the oracle's pairings."""
    rs = build_root_system(parse_type(label))
    a, n = rs.cartan, rs.rank
    s = [int(3 * x) for x in squared_lengths(a)]  # long roots 6, G2's short 2
    pairing = length_pairing(a)
    table, theta = root_sq_lengths(rs), rs.highest_root
    assert min(table) == 1
    for r, length in zip(rs.positive_roots, table):
        # (r, r) = sum of r_i r_j (alpha_i, alpha_j), and (alpha_i, alpha_j) = a_ij s_j / 6
        assert 2 * min(s) * length == sum(
            r[i] * r[j] * a[i][j] * s[j] for i in range(n) for j in range(n)
        ), r
        # <r, theta-check> |theta|^2 = 2 (r, theta) = <theta, r-check> |r|^2
        assert pairing(r, theta) * table[-1] == pairing(theta, r) * length, r


def test_root_system_hashes_by_type_and_compares_by_field():
    """A root system rebuilt field by field is equal, hashes equal and finds
    the cached grading of the one build_root_system returned."""
    from dataclasses import fields

    from quatforms.rootsys import RootSystem

    rs = build_root_system(parse_type("E7"))
    copy = RootSystem(**{f.name: getattr(rs, f.name) for f in fields(rs)})
    assert copy is not rs and copy == rs and hash(copy) == hash(rs)
    assert quaternionic_decomposition(copy) is quaternionic_decomposition(rs)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_root_system_derives_everything_from_its_type(label):
    """A root system's one field is its type: one built directly equals the
    one build_root_system returns, with the same Cartan matrix, roots and
    highest root, the last positive root."""
    from quatforms.rootsys import RootSystem

    t = parse_type(label)
    assert [f.name for f in dataclasses.fields(RootSystem)] == ["type"]
    rs, built = RootSystem(t), build_root_system(t)
    assert rs == built and rs is not built
    assert (rs.cartan, rs.positive_roots, rs.highest_root) == (
        built.cartan, built.positive_roots, built.highest_root
    )
    assert rs.highest_root == max(rs.positive_roots, key=sum)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_short_mask_matches_the_length_walk(label):
    """The short roots read off the sum and difference masks are the length
    walk's roots of squared length 1 in a doubly laced type; a simply laced
    one, where every root has length 1, has none."""
    rs = build_root_system(parse_type(label))
    lengths = root_sq_lengths(rs)
    if label[0] in "ADE":
        assert set(lengths) == {1} and rs._short_mask == 0
    else:
        assert set(lengths) == {1, 3 if label == "G2" else 2}
        assert rs._short_mask == sum([1 << x for x, d in enumerate(lengths) if d == 1])


def test_codes_distinct_on_sums_of_bounded_vectors():
    """Any two vectors within the coefficient bound add or subtract to a
    vector whose code no other such vector shares (checked on rank 3)."""
    from itertools import product

    reach = range(-2 * _COEFF_BOUND, 2 * _COEFF_BOUND + 1)
    box = list(product(reach, repeat=3))
    assert len({_encode(v) for v in box}) == len(box)


def test_coefficient_bound_raises():
    """The packed-code bound is a raise (kept under python -O), not an assert."""
    _check_coefficient_bound("X3", [(6, 4, 2), (-7, 7, 0)])
    for bad in ((8, 0), (0, -8)):
        with pytest.raises(RuntimeError, match="beyond"):
            _check_coefficient_bound("X2", [(1, 0), bad])


def test_pairing_with_coroot_rejects_non_roots():
    g2 = build_root_system(parse_type("G2"))
    for a, b in (((2, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (0, 1))):
        with pytest.raises(ValueError, match="not a root of G2"):
            pairing_with_coroot(g2, a, b)


@pytest.mark.parametrize(
    "label,nodes",
    [
        ("F4", {1}),
        ("G2", {2}),
        ("A3", {1, 3}),
        ("E6", {2}),
        ("E7", {1}),
        ("E8", {8}),
        ("B7", {2}),
        ("C5", {1}),
        ("D7", {2}),
        ("D3", {2, 3}),
    ],
)
def test_node_sets(label, nodes):
    rs = build_root_system(parse_type(label))
    assert set(node_set(rs)) == nodes


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_theta_pairings_from_cartan_columns_match_string_walks(label):
    """<theta, alpha_i-check> read off column i of the Cartan matrix is the
    root-string pairing.  On graded types <alpha_j, theta-check> is 0 or
    +-1 and nonzero exactly on the node set (the lemma behind classify's
    s_theta column), and node_set is the walk-based set."""
    rs = build_root_system(parse_type(label))
    theta = rs.highest_root
    walked = [pairing_with_coroot(rs, theta, a) for a in rs.simple_roots]
    columns = [sum(c * row[i] for c, row in zip(theta, rs.cartan)) for i in range(rs.rank)]
    assert columns == walked
    if label not in GRADED_LABELS:
        return
    nodes = node_set(rs)
    assert nodes == {i + 1 for i, p in enumerate(walked) if p > 0}
    back = [pairing_with_coroot(rs, a, theta) for a in rs.simple_roots]
    assert set(back) <= {-1, 0, 1}
    assert {j + 1 for j, p in enumerate(back) if p} == nodes


def test_node_set_rejects_rank_one():
    rs = build_root_system(parse_type("A1"))
    with pytest.raises(GradingError, match="no quaternionic node grading"):
        node_set(rs)


def test_grade_examples():
    e8 = build_root_system(parse_type("E8"))
    assert grade(e8, {8}, e8.highest_root) == 2
    g2 = build_root_system(parse_type("G2"))
    assert grade(g2, {2}, (0, 1)) == 1
    assert grade(g2, {2}, (1, 0)) == 0


# One row per quaternionic family: dim/H as a function of the ambient rank.
@pytest.mark.parametrize(
    "label,dim",
    [("A2", 1), ("A4", 3), ("A9", 8)]
    + [("B2", 1), ("B7", 11), ("B9", 15)]
    + [("C2", 1), ("C5", 4), ("C7", 6)]
    + [("D3", 2), ("D7", 10), ("D9", 14)]
    + [("G2", 2), ("F4", 7), ("E6", 10), ("E7", 16), ("E8", 28)],
)
def test_quaternionic_dimensions(label, dim):
    rs = build_root_system(parse_type(label))
    assert quaternionic_decomposition(rs).quaternionic_dim == dim


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_grade2_singleton_and_partition(label):
    rs = build_root_system(parse_type(label))
    gd = quaternionic_decomposition(rs)
    assert set(gd.k_pos) | set(gd.m_pos) == set(rs.positive_roots)
    assert not set(gd.k_pos) & set(gd.m_pos)
    grade2 = [a for a in rs.positive_roots if grade(rs, gd.node_set, a) == 2]
    assert grade2 == [rs.highest_root]
    assert len(gd.m_pos) % 2 == 0
    assert gd.k_pos == tuple(a for a in rs.positive_roots if grade(rs, gd.node_set, a) != 1)
    assert gd.k_pos[-1] == rs.highest_root


def test_grading_derives_k_and_dim_from_m_pos():
    """m_pos is the one record of m: a grading holds no k_pos, dim_H or node
    set field that could contradict it or its root system, and a replaced
    m_pos moves k_pos and dim_H."""
    assert [f.name for f in dataclasses.fields(GradedDecomposition)] == ["m_pos", "_rs"]
    rs = build_root_system(parse_type("G2"))
    gd = dataclasses.replace(quaternionic_decomposition(rs), m_pos=rs.positive_roots[:2])
    assert gd.quaternionic_dim == 1
    assert gd.k_pos == rs.positive_roots[2:]
    assert gd.node_set == node_set(rs)


@pytest.mark.parametrize("case", ["non-root", "negative root", "highest root", "repeated root"])
def test_grading_refuses_a_bad_m_pos(case):
    """m_pos must hold distinct positive roots other than the highest root;
    a grading made with dataclasses.replace is checked like a built one."""
    rs = build_root_system(parse_type("G2"))
    gd = quaternionic_decomposition(rs)
    m_pos = {
        "non-root": ((9, 9),),
        "negative root": ((-1, -1),),
        "highest root": gd.m_pos + (rs.highest_root,),
        "repeated root": gd.m_pos + gd.m_pos[:1],
    }[case]
    message = "repeats a root of G2" if case == "repeated root" else "no positive root of G2"
    with pytest.raises(GradingError, match=message):
        dataclasses.replace(gd, m_pos=m_pos)


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_grading_agrees_with_highest_coroot(label):
    """grade(a) equals <a, theta-check> for grades 1 and 2, and 0 otherwise."""
    rs = build_root_system(parse_type(label))
    gd = quaternionic_decomposition(rs)
    theta = rs.highest_root
    for alpha in rs.positive_roots:
        g = grade(rs, gd.node_set, alpha)
        p = pairing_with_coroot(rs, alpha, theta)
        assert p == g
