from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import pytest

from quatforms import ToralElement, build_root_system, parse_type, quaternionic_decomposition
from quatforms.involution import _pairing_values
from quatforms.rootsys import _RANKS
from quatforms.subsys import _base_mask, _bits, _closed_base

from oracles import wk_orbits

EXCEPTIONAL_LABELS = ["G2", "F4", "E6", "E7", "E8"]

# Every buildable type, in family then rank order.
SUPPORTED_LABELS = [f"{family}{n}" for family, ranks in _RANKS.items() for n in ranks]

# Types with a quaternionic node grading (everything of rank >= 2), each
# with a bundled golden baseline.
GRADED_LABELS = [s for s in SUPPORTED_LABELS if s != "A1"]


@lru_cache(maxsize=None)
def orbit_representatives(rs):
    """The lex-smallest member of every W_K-orbit on the mod-2 coweight
    candidates, the orbits that fail the circle test included."""
    return tuple(orbit[0] for orbit in wk_orbits(rs, quaternionic_decomposition(rs)))


def base_type_test_elements(rs):
    """Every mod-2 candidate up to rank 8, every orbit representative
    above, seeded d = 3-6 elements in both bases, and elements whose
    centralizer holds the highest root: d = 1, and seeded d = 7 in both
    bases."""
    if rs.rank <= 8:
        reps = product((0, 1), repeat=rs.rank)
    else:
        reps = orbit_representatives(rs)
    elements = [ToralElement(c, 2, "coweight") for c in reps]
    rng = random.Random(f"base-type-{rs.type.label}")
    for d in range(3, 7):
        for basis in ("coroot", "coweight"):
            coords = tuple(rng.randrange(d) for _ in range(rs.rank))
            elements.append(ToralElement(coords, d, basis))
    elements.append(ToralElement((0,) * rs.rank, 1, "coweight"))
    for basis in ("coroot", "coweight"):
        found = 0
        while found < 2:
            t = ToralElement(tuple(rng.randrange(7) for _ in range(rs.rank)), 7, basis)
            if _pairing_values(rs, t)[-1] % 7 == 0:  # the highest root is last
                elements.append(t)
                found += 1
    return elements


def l_and_v(rs, gd, t):
    """(base, members) of l and of v, the sets analyze types: the base as a
    list of positive-root indices, the positive members as a mask of them."""
    roles = rs._triple_masks[0]
    kept = [x for x, v in enumerate(_pairing_values(rs, t)) if v % t.denom == 0]
    v = [x for x in kept if not gd._masks[0] >> x & 1]
    return tuple(
        (_bits(_base_mask(rs, _closed_base(rs, sum(roles[x] for x in xs)))), mask_of(xs))
        for xs in (kept, v)
    )


def mask_of(xs):
    """The mask with bit x for each x in xs."""
    return sum(1 << x for x in xs)


def l_and_v_bases(rs, gd, t):
    """The bases of l and v that analyze types, as positive-root indices."""
    return tuple(base for base, _members in l_and_v(rs, gd, t))


@pytest.fixture(scope="session")
def rs_of():
    def _get(label: str):
        return build_root_system(parse_type(label))

    return _get
