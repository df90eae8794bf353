from __future__ import annotations

import random
from itertools import product

import pytest

from quatforms import (
    ToralElement,
    build_root_system,
    centralizer,
    convert_to_coweight,
    pairing,
    parse_type,
    recognize,
)
from quatforms.involution import _coweight_coords, centralizer_roots

from conftest import GRADED_LABELS, SUPPORTED_LABELS
from oracles import centralizer_roots_by_dot, coroot_pairing


def test_coords_reduced_on_construction():
    t = ToralElement((3, -1, 4), 2, "coweight")
    assert t.coords == (1, 1, 0)
    u = ToralElement((5,), 1)
    assert u.denom == 1 or not any(u.coords)


def test_rejects_bad_denominator_and_basis():
    with pytest.raises(ValueError, match="denominator"):
        ToralElement((1, 0), 0)
    with pytest.raises(ValueError, match="basis"):
        ToralElement((1, 0), 2, "weight")


def test_pairing_examples():
    g2 = build_root_system(parse_type("G2"))
    t = ToralElement((0, 1), 2, "coroot")
    assert pairing(g2, t, (1, 0)) == 1  # <alpha_1, alpha_2-check> = -1, odd
    zero = ToralElement((0, 0), 2, "coroot")
    for alpha in g2.root_set:
        assert pairing(g2, zero, alpha) == 0
    e8 = build_root_system(parse_type("E8"))
    t8 = ToralElement((0,) * 7 + (1,), 2, "coroot")
    assert pairing(e8, t8, e8.highest_root) == 1


def test_pairing_validates_inputs():
    g2 = build_root_system(parse_type("G2"))
    with pytest.raises(ValueError, match="coordinates"):
        pairing(g2, ToralElement((1,), 2), (1, 0))
    with pytest.raises(ValueError, match="not a root"):
        pairing(g2, ToralElement((1, 0), 2), (1, 1, 1))


def test_convert_to_coweight_examples():
    g2 = build_root_system(parse_type("G2"))
    t = convert_to_coweight(g2, ToralElement((0, 1), 2, "coroot"))
    assert t.coords == (1, 0) and t.basis == "coweight"
    a2 = build_root_system(parse_type("A2"))
    assert convert_to_coweight(a2, ToralElement((1, 0), 2, "coroot")).coords == (0, 1)
    assert convert_to_coweight(a2, ToralElement((0, 0), 2, "coroot")).coords == (0, 0)


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_coweight_coords_match_the_nested_sum(label):
    """The row-by-row conversion equals c'_j = sum_i A[j][i] c_i mod d,
    the nested sum it replaced, for d = 1-8 and seeded coroot coordinates."""
    rs = build_root_system(parse_type(label))
    n = rs.rank
    rng = random.Random(f"coweight-coords-{label}")
    for d in range(1, 9):
        for _ in range(3):
            t = ToralElement(tuple(rng.randrange(d) for _ in range(n)), d, "coroot")
            nested = tuple(
                sum(rs.cartan[j][i] * t.coords[i] for i in range(n)) % t.denom for j in range(n)
            )
            assert _coweight_coords(rs, t) == nested, t.describe()


def test_convert_rejects_coweight_input():
    a2 = build_root_system(parse_type("A2"))
    with pytest.raises(ValueError, match="coroot-basis"):
        convert_to_coweight(a2, ToralElement((1, 0), 2, "coweight"))


def test_centralizer_g2_example():
    g2 = build_root_system(parse_type("G2"))
    sub = centralizer(g2, ToralElement((0, 1), 2, "coroot"))
    assert sub.positive_roots == ((0, 1), (2, 1))
    assert recognize(sub).render() == "A1 A1"


def test_centralizer_e8_example():
    e8 = build_root_system(parse_type("E8"))
    sub = centralizer(e8, ToralElement((0,) * 7 + (1,), 2, "coroot"))
    assert recognize(sub).render() == "E7 A1"


def test_identity_centralizes_everything():
    for label in ("A3", "C4", "G2"):
        rs = build_root_system(parse_type(label))
        sub = centralizer(rs, ToralElement((0,) * rs.rank, 2, "coroot"))
        assert sub.roots == rs.root_set
        sub = centralizer(rs, ToralElement((1,) * rs.rank, 1, "coweight"))
        assert sub.roots == rs.root_set


@pytest.mark.parametrize("label", ["G2", "A3", "B3", "C3"])
def test_pairing_additive_on_root_sums(label):
    rs = build_root_system(parse_type(label))
    elements = [
        ToralElement(tuple(coords), 2, basis)
        for basis in ("coroot", "coweight")
        for coords in product((0, 1), repeat=rs.rank)
    ] + [ToralElement((1,) * rs.rank, 3, "coroot")]
    roots = sorted(rs.root_set)
    for t in elements:
        vals = {a: pairing(rs, t, a) for a in roots}
        for a in roots:
            for b in roots:
                c = tuple(x + y for x, y in zip(a, b))
                if c in rs.root_set:
                    assert (vals[a] + vals[b]) % t.denom == vals[c]


def _coherence_elements(rank: int) -> list[ToralElement]:
    if rank <= 5:
        return [
            ToralElement(coords, 2, "coroot")
            for coords in product((0, 1), repeat=rank)
        ]
    rng = random.Random(rank)
    picked = [
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
    ]
    picked += [tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(32)]
    return [ToralElement(c, 2, "coroot") for c in picked] + [
        ToralElement(tuple(rng.randint(0, 2) for _ in range(rank)), 3, "coroot")
        for _ in range(4)
    ]


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_basis_change_preserves_centralizers(label):
    """Coroot-basis elements and their coweight images centralize alike.

    Exhaustive over all mod-2 coroot vectors up to rank 5; indicator plus
    seeded random vectors (including denominator 3) above that.
    """
    rs = build_root_system(parse_type(label))
    for t in _coherence_elements(rs.rank):
        assert centralizer_roots(rs, t) == centralizer_roots(
            rs, convert_to_coweight(rs, t)
        )


@pytest.mark.parametrize("label", ["G2", "F4", "B4", "C4"])
def test_coroot_basis_pairs_through_coroots(label):
    """A coroot-basis element pairs as sum c_i <alpha, alpha_i-check> mod d.

    Cross-checks the Cartan-matrix basis change against the root-string
    pairings on the non-simply-laced types, where a transposed matrix
    would differ; denominators 3 and 5 keep the -2 and -3 entries visible.
    """
    rs = build_root_system(parse_type(label))
    rng = random.Random(label)
    for d in (3, 5):
        for _ in range(4):
            c = tuple(rng.randrange(d) for _ in range(rs.rank))
            t = ToralElement(c, d, "coroot")
            for alpha in rs.root_set:
                expected = sum(
                    c[i] * coroot_pairing(rs, alpha, i + 1) for i in range(rs.rank)
                )
                assert pairing(rs, t, alpha) == expected % d


# d = 1 centralizes every root; 2**70 + 1 leaves the range of a 64-bit int.
_CENTRALIZER_DENOMS = (1, 2, 3, 4, 5, 6, 7, 2**70 + 1)


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_centralizer_roots_match_dot_product_oracle(label):
    """The parent-table centralizer equals one dot product per root.

    Per denominator and basis: the all-zero and all-one elements, the
    alternating +-1 element (whose pairings reach d exactly) and two
    seeded ones.
    """
    rs = build_root_system(parse_type(label))
    n = rs.rank
    rng = random.Random(f"centralizer-{label}")
    for d in _CENTRALIZER_DENOMS:
        elements = [(0,) * n, (1,) * n, tuple((-1) ** j for j in range(n))]
        elements += [tuple(rng.randrange(-3 * d, 3 * d) for _ in range(n)) for _ in range(2)]
        for basis in ("coroot", "coweight"):
            for coords in elements:
                t = ToralElement(coords, d, basis)
                assert centralizer_roots(rs, t) == centralizer_roots_by_dot(rs, t), (
                    t.describe()
                )
