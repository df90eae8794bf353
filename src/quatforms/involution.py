"""Toral elements and their root centralizers.

A toral element is a torus point written as integer coordinates over a
denominator d; a root pairs with it to a residue mod d and the centralizer
is the set of roots pairing to zero.  Two coordinate bases are supported:

* ``coroot``: the element is exp(2*pi*i/d * sum c_i alpha_i-check), so a
  root alpha pairs as sum c_i * <alpha, alpha_i-check> mod d;
* ``coweight``: the element is exp(2*pi*i/d * sum c_i w_i-check) with w_i
  the fundamental coweights, so alpha pairs as sum c_i * n_i(alpha) mod d
  (the plain coefficient sum).

The bases are interchangeable through the Cartan matrix; with denominator 2
the coweight vectors in {0,1}^rank exhaust the inner involutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul

from .rootsys import COROOT, COWEIGHT, Root, RootSystem
from .subsys import Subsystem


@dataclass(frozen=True)
class ToralElement:
    """Integer coordinates over a denominator, in a named basis."""

    coords: tuple[int, ...]
    denom: int = 2
    basis: str = COROOT

    def __post_init__(self) -> None:
        if self.denom < 1:
            raise ValueError("denominator must be a positive integer")
        if self.basis not in (COROOT, COWEIGHT):
            raise ValueError(f"unknown basis {self.basis!r}; use coroot or coweight")
        object.__setattr__(
            self, "coords", tuple(c % self.denom for c in self.coords)
        )

    def describe(self) -> str:
        return (
            ",".join(str(c) for c in self.coords)
            + f" (denom {self.denom}, {self.basis} basis)"
        )

    def to_json(self) -> dict:
        return {"coords": list(self.coords), "denom": self.denom, "basis": self.basis}


def _coweight_coords(rs: RootSystem, t: ToralElement) -> tuple[int, ...]:
    """Coordinates of t in the coweight basis.

    A coroot-basis element maps to c' = A c (Cartan matrix times the old
    coordinates), which leaves the pairing of every root unchanged; in the
    coweight basis a root pairs as the dot product with its coefficients.
    """
    if len(t.coords) != rs.rank:
        raise ValueError(
            f"toral element has {len(t.coords)} coordinates, expected {rs.rank}"
        )
    if t.basis == COWEIGHT:
        return t.coords
    coords, d = t.coords, t.denom
    return tuple(sum(map(mul, row, coords)) % d for row in rs.cartan)


def pairing(rs: RootSystem, t: ToralElement, alpha: Root) -> int:
    """Residue mod denom of the root alpha against the toral element."""
    c = _coweight_coords(rs, t)
    if not rs.is_root(alpha):
        raise ValueError(f"{alpha} is not a root of {rs.type.label}")
    return sum(x * n for x, n in zip(c, alpha)) % t.denom


def convert_to_coweight(rs: RootSystem, t: ToralElement) -> ToralElement:
    """Re-express a coroot-basis element in the coweight basis."""
    if t.basis != COROOT:
        raise ValueError("convert_to_coweight expects a coroot-basis element")
    return ToralElement(_coweight_coords(rs, t), t.denom, COWEIGHT)


def _pairing_values(rs: RootSystem, t: ToralElement) -> list[int]:
    """c . r, not reduced mod denom, for each r in ``positive_roots``.

    c . r is linear in r, so it is built along the parent table
    (``RootSystem._parents``): c_i for each simple root alpha_i, then the
    parent's value plus one coordinate for every other positive root.
    """
    c = _coweight_coords(rs, t)
    vals = list(reversed(c))  # positive_roots opens with alpha_n, ..., alpha_1
    for p, i in rs._parents:
        vals.append(vals[p] + c[i])
    return vals


def centralizer_roots(rs: RootSystem, t: ToralElement) -> frozenset[Root]:
    """Roots pairing to zero mod denom, as a plain set.

    A negative root pairs to minus its positive, so the positive roots
    whose ``_pairing_values`` entry is 0 mod denom bring their negatives.
    """
    d = t.denom
    keep = [v % d == 0 for v in _pairing_values(rs, t)]
    return frozenset(compress(rs.positive_roots, keep)) | frozenset(
        compress(rs._negatives, keep)
    )


def centralizer(rs: RootSystem, t: ToralElement) -> Subsystem:
    """Centralizer subsystem of a toral element.

    Pairing is additive on roots, so the result is closed and symmetric;
    Subsystem construction checks both.
    """
    return Subsystem(rs, centralizer_roots(rs, t))
