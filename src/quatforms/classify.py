"""Exhaustive search for complex forms and diff against the golden registry.

Every inner involution of a simply connected compact simple group is
conjugate to exp(pi*i*h) with h a coweight, and only h mod 2 matters to
root pairings, so the coweight-basis vectors in {0,1}^rank with
denominator 2 exhaust the candidates.  The Weyl group W_K of the isotropy
group K (generated by the simple reflections off the node set and by the
highest-root reflection) preserves k and m and sends the highest root to
its negative or itself, so the (L, V) types and the verdict are constant
on each W_K-orbit of candidates (Helgason, Differential Geometry, Lie
Groups, and Symmetric Spaces, ch. X).  Only the orbits passing the circle
test, half the candidates, are walked; each one's lex-smallest member is
analyzed and stands for the whole orbit.  The complex forms are
deduplicated by their (L, V) Cartan-type pair (isometric forms are
equivalent under the isotropy group, and no two registry entries of one
ambient type share a key), and ``ClassificationReport`` diffs the
surviving set against the registry when it is built.

Registry entries for the exceptional types are shipped as data; entries
for the classical families are produced at load time by the parametric
rules documented on the generator functions.  An entry's ``equal_rank``
follows from its L type's rank; entries whose fixed-group rank is below the
ambient rank cannot arise from toral centralizers and are reported as
skipped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable

from .complexform import _mod2_analysis, _verdict
from .involution import ToralElement
from .rootsys import (
    COWEIGHT,
    GradingError,
    InvalidTypeError,
    RootSystem,
    SimpleType,
    _bundled_text,
    parse_type,
    quaternionic_decomposition,
)
from .subsys import CartanType

CLASSICAL_FAMILIES = "ABCD"


class GoldenDataError(ValueError):
    """Raised for malformed, colliding, or unavailable golden data."""


@dataclass(frozen=True)
class GoldenEntry:
    """One reference form: the registry row the search is diffed against.

    ``equal_rank`` is derived: L's total rank equals the ambient rank.
    """

    ambient: SimpleType
    label: str
    l_type: CartanType
    v_type: CartanType
    s_description: str
    noncompact_dual: str
    equal_rank: bool = field(init=False)
    table_rank: int
    table_dim_h: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "equal_rank", self.l_type.total_rank == self.ambient.rank)

    @property
    def key(self) -> tuple[CartanType, CartanType]:
        return (self.l_type, self.v_type)

    def to_json(self) -> dict:
        obj = {
            "ambient": self.ambient.label,
            "label": self.label,
            "l_type": self.l_type.to_json(),
            "v_type": self.v_type.to_json(),
            "s_description": self.s_description,
            "noncompact_dual": self.noncompact_dual,
            "equal_rank": self.equal_rank,
            "table_rank": self.table_rank,
            "table_dim_h": self.table_dim_h,
        }
        if self.degenerate:
            obj["degenerate"] = True
        return obj


# The fields of schemas/golden_entry.schema.json and their types; all but
# "degenerate" are required, and the int fields are at least 1.
_FIELDS = {
    "ambient": str,
    "label": str,
    "l_type": dict,
    "v_type": dict,
    "s_description": str,
    "noncompact_dual": str,
    "equal_rank": bool,
    "table_rank": int,
    "table_dim_h": int,
    "degenerate": bool,
}


def _entry_from_json(obj: dict, where: str) -> GoldenEntry:
    if not isinstance(obj, dict):
        raise GoldenDataError(f"{where}: entry must be an object, got {type(obj).__name__}")
    for name, typ in _FIELDS.items():
        if name not in obj and name != "degenerate":
            raise GoldenDataError(f"{where}: missing field {name!r}")
        value = obj.get(name, False)
        if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
            raise GoldenDataError(f"{where}: field {name!r} must be {typ.__name__}")
        if typ is int and value < 1:
            raise GoldenDataError(f"{where}: field {name!r} must be at least 1")
    for name in obj:
        if name not in _FIELDS:
            raise GoldenDataError(f"{where}: unknown field {name!r}")
    if not re.fullmatch("[A-G][0-9]+", obj["ambient"]):
        raise GoldenDataError(f"{where}: bad ambient type {obj['ambient']!r}")
    try:
        ambient = parse_type(obj["ambient"])
    except InvalidTypeError as exc:
        raise GoldenDataError(f"{where}: bad ambient type: {exc}") from exc
    try:
        l_type = CartanType.from_json(obj["l_type"])
        v_type = CartanType.from_json(obj["v_type"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GoldenDataError(f"{where}: bad Cartan type: {exc}") from exc
    return GoldenEntry(
        ambient=ambient,
        label=obj["label"],
        l_type=l_type,
        v_type=v_type,
        s_description=obj["s_description"],
        noncompact_dual=obj["noncompact_dual"],
        table_rank=obj["table_rank"],
        table_dim_h=obj["table_dim_h"],
        degenerate=obj.get("degenerate", False),
    )


def _validate_entries(data: list, source: str) -> list[GoldenEntry]:
    """Parse a file's entries, then check each one's ``equal_rank`` flag
    against the entry's derived one and the per-ambient key uniqueness."""
    entries = [_entry_from_json(obj, f"{source}, entry {i}") for i, obj in enumerate(data)]
    seen: dict[tuple[str, CartanType, CartanType], GoldenEntry] = {}
    for obj, e in zip(data, entries):
        if obj["equal_rank"] != e.equal_rank:
            raise GoldenDataError(
                f"{source}: entry {e.label} of {e.ambient.label}: equal_rank flag "
                f"contradicts rank accounting ({e.l_type.total_rank} vs {e.ambient.rank})"
            )
        k = (e.ambient.label, *e.key)
        if k in seen:
            raise GoldenDataError(
                f"{source}: entries {seen[k].label} and {e.label} of {e.ambient.label} "
                f"share the dedup key ({e.l_type.render()}, {e.v_type.render()})"
            )
        seen[k] = e
    return entries


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a key it repeats (json keeps the last)."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise GoldenDataError(f"repeats the key {key!r} in one object")
        obj[key] = value
    return obj


def load_golden(path: str) -> list[GoldenEntry]:
    """Load and validate a golden file (a JSON array of entries)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except GoldenDataError as exc:
        raise GoldenDataError(f"golden file {path} {exc}") from None
    except OSError as exc:
        raise GoldenDataError(f"cannot read golden file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GoldenDataError(f"golden file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GoldenDataError(f"golden file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GoldenDataError(f"golden file {path} is nested too deeply") from exc
    except ValueError:  # an int past the interpreter's limit on digits in an int string
        raise GoldenDataError(f"golden file {path} holds an integer with too many digits") from None
    if not isinstance(data, list):
        raise GoldenDataError(f"golden file {path} must hold a JSON array")
    return _validate_entries(data, path)


@lru_cache(maxsize=None)
def _bundled_exceptional() -> tuple[GoldenEntry, ...]:
    text = _bundled_text("data/registry_exceptional.json")
    data = json.loads(text, object_pairs_hook=_unique_keys)
    return tuple(_validate_entries(data, "bundled exceptional registry"))


# ---------------------------------------------------------------------------
# Classical generators
# ---------------------------------------------------------------------------


def _orthogonal_type(m: int) -> tuple[list[tuple[str, int]], int]:
    """Cartan type of so(m) as (components, torus rank); ``_ct`` aliases B1, D2, D3."""
    if m <= 1:
        return [], 0
    if m == 2:
        return [], 1
    return [("B" if m % 2 else "D", m // 2)], 0


def _unitary_type(m: int) -> tuple[list[tuple[str, int]], int]:
    """Cartan type of u(m) as (components, torus rank)."""
    if m == 0:
        return [], 0
    if m == 1:
        return [], 1
    return [("A", m - 1)], 1


def _ct(parts: Iterable[tuple[list[tuple[str, int]], int]], extra_torus: int = 0) -> CartanType:
    comps: list[tuple[str, int]] = []
    torus = extra_torus
    for c, t in parts:
        comps.extend(c)
        torus += t
    return CartanType(comps, torus)


def generate_classical(t: SimpleType) -> list[GoldenEntry]:
    """Registry entries for a classical ambient type, by the parametric rules.

    Family A at rank n hosts the Grassmannian of 2-planes in C^{n+1}
    (tangent parameter r = n-1): one lower-rank form SO(r+2)/[SO(r)xSO(2)]
    and the products P^u(C) x P^{r-u}(C) for 0 <= u <= r up to swapping
    the factors.  Families B/D at SO(r+4) carry the products of two real
    quadrics SO(u+2)/[SO(u)xSO(2)] x SO(v+2)/[SO(v)xSO(2)] with u+v = r
    (equal rank exactly when u*v is even), plus SU(r'+2)/S(U(r')xU(2))
    for r = 2r' even.  Family C at rank n carries only P^{n-1}(C).
    Entries that turn out isometric (one coincidence, at D4, where the
    2-plane Grassmannian is the 4-quadric) are merged under both labels.
    The rules are parametric in the rank, so they serve every buildable
    classical type but A1, which has no quaternionic grading.
    """
    family, n = t.family, t.rank
    if n < 2:
        raise GradingError(f"no quaternionic node grading for {t.label} (rank 1)")
    entries: list[GoldenEntry] = []

    if family == "A":
        r = n - 1
        table_rank, dim_h = min(r, 2), r
        lt = _ct([_orthogonal_type(r + 2)])
        vt = _ct([_orthogonal_type(r)], extra_torus=1)
        entries.append(
            GoldenEntry(
                ambient=t,
                label="1a",
                l_type=lt,
                v_type=vt,
                s_description=f"SO({r + 2})/[SO({r}) x SO(2)]",
                noncompact_dual=f"SO({r},2)/[SO({r}) x SO(2)]",
                table_rank=table_rank,
                table_dim_h=dim_h,
            )
        )
        for u in range(0, r // 2 + 1):
            v = r - u
            lt = _ct([_unitary_type(u + 1), _unitary_type(v + 1)], extra_torus=-1)
            vt = _ct(
                [_unitary_type(u), _unitary_type(1), _unitary_type(v), _unitary_type(1)],
                extra_torus=-1,
            )
            entries.append(
                GoldenEntry(
                    ambient=t,
                    label=f"1b(u={u})",
                    l_type=lt,
                    v_type=vt,
                    s_description=f"P^{u}(C) x P^{v}(C)",
                    noncompact_dual=f"H^{u}(C) x H^{v}(C)",
                    table_rank=table_rank,
                    table_dim_h=dim_h,
                    degenerate=u == 0,
                )
            )
    elif family == "C":
        m = n - 1
        entries.append(
            GoldenEntry(
                ambient=t,
                label="3",
                l_type=_ct([_unitary_type(n)]),
                v_type=_ct([_unitary_type(m), _unitary_type(1)]),
                s_description=f"U({n})/[U({m}) x U(1)] = P^{m}(C)",
                noncompact_dual=f"U({m},1)/[U({m}) x U(1)] = H^{m}(C)",
                table_rank=1,
                table_dim_h=m,
            )
        )
    else:  # B or D
        r = 2 * n - 3 if family == "B" else 2 * n - 4
        table_rank, dim_h = min(r, 4), r
        if family == "D":
            rp = r // 2
            entries.append(
                GoldenEntry(
                    ambient=t,
                    label="2a",
                    l_type=_ct([_unitary_type(rp + 2)]),
                    v_type=_ct([_unitary_type(rp), _unitary_type(2)]),
                    s_description=f"SU({rp + 2})/S(U({rp}) x U(2))",
                    noncompact_dual=f"SU({rp},2)/S(U({rp}) x U(2))",
                    table_rank=table_rank,
                    table_dim_h=dim_h,
                )
            )
        for u in range(0, r // 2 + 1):
            v = r - u
            lt = _ct([_orthogonal_type(u + 2), _orthogonal_type(v + 2)])
            vt = _ct([_orthogonal_type(u), _orthogonal_type(v)], extra_torus=2)
            entries.append(
                GoldenEntry(
                    ambient=t,
                    label=f"2b(u={u})",
                    l_type=lt,
                    v_type=vt,
                    s_description=(
                        f"{{SO({u + 2})/[SO({u}) x SO(2)]}} x "
                        f"{{SO({v + 2})/[SO({v}) x SO(2)]}}"
                    ),
                    noncompact_dual=(
                        f"{{SO({u},2)/[SO({u}) x SO(2)]}} x "
                        f"{{SO({v},2)/[SO({v}) x SO(2)]}}"
                    ),
                    table_rank=table_rank,
                    table_dim_h=dim_h,
                    degenerate=u == 0,
                )
            )

    return _merge_coincident(entries)


def _merge_coincident(entries: list[GoldenEntry]) -> list[GoldenEntry]:
    """Merge generated entries that name the same (L, V) pair.

    Distinct parametric items can land on one isometric space (at D4 the
    2a Grassmannian equals the 2b(u=0) quadric); those are one form and
    keep both labels.  Keyed by ``key``, the merged list holds each (L, V)
    pair once, so the generator's output needs no key check.
    """
    merged: dict[tuple[CartanType, CartanType], GoldenEntry] = {}
    for e in entries:
        prev = merged.get(e.key)
        merged[e.key] = e if prev is None else replace(
            prev,
            label=f"{prev.label} = {e.label}",
            s_description=f"{prev.s_description} = {e.s_description}",
            degenerate=prev.degenerate or e.degenerate,
        )
    return list(merged.values())


@lru_cache(maxsize=None)
def _bundled_for_type(t: SimpleType) -> tuple[GoldenEntry, ...]:
    """The bundled registry's entries for one ambient type."""
    if t.family in CLASSICAL_FAMILIES:
        return tuple(generate_classical(t))
    return tuple(e for e in _bundled_exceptional() if e.ambient == t)


def golden_for_type(t: SimpleType, path: str | None = None) -> list[GoldenEntry]:
    """Golden entries for one ambient type.

    An explicit path wins and is read on every call; otherwise the bundled
    registry is used (data file for exceptional types, generator for
    classical families), sliced per ambient type once per process; it
    holds entries for every graded type, so the list is empty only for a
    file that lacks the type, which leaves the type without a baseline.
    Every call returns a fresh list of the (frozen) entries.
    """
    if path is not None:
        return [e for e in load_golden(path) if e.ambient == t]
    return list(_bundled_for_type(t))


# ---------------------------------------------------------------------------
# Enumeration and classification
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _orbit_table(rs: RootSystem) -> tuple[tuple[ToralElement, int], ...]:
    """(witness, size) of each W_K-orbit of mod-2 coweight candidates that
    passes the circle test, in lex order; the witness is the orbit's
    lex-smallest member, a coweight-basis element of denominator 2.

    The test, theta . c odd, holds for whole orbits, as W_K sends theta to
    +-theta, and theta mod 2 is never 0 (every type has an odd mark), so
    exactly half the 2^rank candidates pass.  They are walked as ints,
    coordinate 0 the most significant bit, so int order is lex order and
    each unseen int of the odd coset opens the next orbit.  A reflection
    s_beta moves the coweight coordinates c to c - (c . beta) (<alpha_j,
    beta-check>)_j, so mod 2 it adds that column exactly when c . beta is
    odd.  The generators are s_i for the simple roots off the node set
    (column i of the Cartan matrix) and s_theta for the highest root.
    Lemma: s_theta's column mod 2 is the node-set indicator.  theta is long
    and, at rank >= 2, no simple root, so <alpha_j, theta-check> is 0 or
    +-1 and is nonzero exactly when <theta, alpha_j-check> is (Humphreys,
    9.4); theta is dominant, so that is when j is in the node set.  Built
    once per root system.
    """
    n = rs.rank
    nodes = quaternionic_decomposition(rs).node_set

    def mask(bits) -> int:
        return sum(1 << (n - 1 - j) for j, b in enumerate(bits) if b % 2)

    gens = [
        (1 << (n - 1 - i), mask(row[i] for row in rs.cartan))
        for i in range(n)
        if i + 1 not in nodes
    ]
    theta = mask(rs.highest_root)
    gens.append((theta, mask(j + 1 in nodes for j in range(n))))
    seen = bytearray(1 << n)
    rows = []
    for start in range(1 << n):
        if seen[start] or not (start & theta).bit_count() % 2:
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
        rep = tuple(start >> (n - 1 - j) & 1 for j in range(n))
        rows.append((ToralElement(rep, 2, COWEIGHT), len(members)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _name(ct: CartanType) -> str:  # every call finds the same forms: render each once
    return ct.render()


@dataclass(frozen=True)
class FoundForm:
    """One deduplicated complex form, with a reproducing witness element."""

    l_type: CartanType
    v_type: CartanType
    witness: ToralElement
    multiplicity: int

    @property
    def key(self) -> tuple[CartanType, CartanType]:
        return (self.l_type, self.v_type)

    def to_json(self) -> dict:
        return {
            "l_type": self.l_type.to_json(),
            "v_type": self.v_type.to_json(),
            "witness": self.witness.to_json(),
            "multiplicity": self.multiplicity,
        }


@dataclass
class ClassificationReport:
    """Search outcome diffed against the golden baseline.

    Built from the ambient type, the found forms and the type's golden
    entries; the diff is derived when the report is built, and again by
    ``dataclasses.replace``.  The equal-rank entries are expected, the
    others skipped.  An expected entry whose key no found form has is
    missing, and a found form whose key no expected entry has is
    unexpected, unless the golden list is empty: then the type has no
    baseline and nothing is diffed.
    """

    ambient: SimpleType
    found: list[FoundForm]
    golden: list[GoldenEntry]
    expected_equal_rank: list[GoldenEntry] = field(init=False)
    missing: list[GoldenEntry] = field(init=False)
    unexpected: list[FoundForm] = field(init=False)
    skipped_unequal_rank: list[GoldenEntry] = field(init=False)

    def __post_init__(self) -> None:
        self.expected_equal_rank = [e for e in self.golden if e.equal_rank]
        self.skipped_unequal_rank = [e for e in self.golden if not e.equal_rank]
        found_keys = {f.key for f in self.found}
        expected_keys = {e.key for e in self.expected_equal_rank}
        self.missing = [e for e in self.expected_equal_rank if e.key not in found_keys]
        self.unexpected = [f for f in self.found if self.golden and f.key not in expected_keys]

    @property
    def no_golden_baseline(self) -> bool:
        return not self.golden

    @property
    def candidates(self) -> int:
        """The mod-2 coweight candidates: all 2^rank."""
        return 1 << self.ambient.rank

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unexpected

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient.label,
            "candidates": self.candidates,
            "found": [f.to_json() for f in self.found],
            "expected_equal_rank": [e.to_json() for e in self.expected_equal_rank],
            "missing": [e.to_json() for e in self.missing],
            "unexpected": [f.to_json() for f in self.unexpected],
            "skipped_unequal_rank": [e.to_json() for e in self.skipped_unequal_rank],
            "no_golden_baseline": self.no_golden_baseline,
            "ok": self.ok,
        }


def classify_equal_rank(
    rs: RootSystem, golden_path: str | None = None
) -> ClassificationReport:
    """Scan one candidate per passing W_K-orbit, dedupe the forms, report them.

    Each witness of ``_orbit_table`` is analyzed; its verdict and (L, V)
    pair hold for its whole orbit, whose size is added to the form's
    multiplicity.  Witnesses come in lex order, so a form's witness is its
    lex-smallest candidate.  At d = 2 the circle test implies the dimension
    test: each grade-1 positive root beta pairs with theta - beta, also a
    grade-1 positive root, and c(beta) + c(theta - beta) = c(theta) = 1
    mod 2, so exactly one root of each pair lies in the centralizer and
    dim_C S = dim_H M.  A witness whose
    analysis says otherwise, or a nonzero step6 count, raises RuntimeError.
    The analysis is ``analyze``'s kernel, without the report.  The orbit
    table, the grading and each type's bundled registry slice are built
    once per process, so a repeated call pays only for analyzing the
    witnesses, and builds no toral element.  The report, built here, diffs
    the found forms against the registry.
    """
    gd = quaternionic_decomposition(rs)
    dim_h = gd.quaternionic_dim

    forms: dict[tuple[CartanType, CartanType], list] = {}  # key -> [witness, count]
    for t, size in _orbit_table(rs):
        l_type, v_type, circle_ok, s, step6 = _mod2_analysis(rs, gd, t.coords)
        dim_s = s.bit_count()
        if not (circle_ok and dim_s == dim_h and step6 == 0):
            raise RuntimeError(
                f"fast screen disagrees with full analysis at {t.describe()}: "
                f"verdict {_verdict(circle_ok, dim_s, dim_h)}, step6 count {step6}"
            )
        forms.setdefault((l_type, v_type), [t, 0])[1] += size

    order = sorted(forms, key=lambda k: (_name(k[0]), _name(k[1])))
    found = [FoundForm(*k, *forms[k]) for k in order]
    return ClassificationReport(rs.type, found, golden_for_type(rs.type, golden_path))
