"""Exhaustive search for complex forms and diff against the golden registry.

Every inner involution of a simply connected compact simple group is
conjugate to exp(pi*i*h) with h a coweight, and only h mod 2 matters to
root pairings, so the coweight-basis vectors in {0,1}^rank with
denominator 2 exhaust the candidates.  Each candidate is analyzed, the
complex forms are deduplicated by their (L, V) Cartan-type pair (isometric
forms are equivalent under the isotropy group, and no two registry entries
of one ambient type share a key), and the surviving set is compared to the
bundled registry.

Registry entries for the exceptional types are shipped as data; entries
for the classical families are produced at load time by the parametric
rules documented on the generator functions.  Entries whose fixed-group
rank is below the ambient rank cannot arise from toral centralizers and
are reported as skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import Iterable

from .complexform import analyze
from .involution import COWEIGHT, ToralElement, centralizer_roots, pairing
from .rootsys import (
    GradingError,
    InvalidTypeError,
    RootSystem,
    SimpleType,
    parse_type,
    quaternionic_decomposition,
)
from .subsys import CartanType

CLASSICAL_FAMILIES = "ABCD"


class GoldenDataError(ValueError):
    """Raised for malformed, colliding, or unavailable golden data."""


@dataclass(frozen=True)
class GoldenEntry:
    """One reference form: the registry row the search is diffed against."""

    ambient: SimpleType
    label: str
    l_type: CartanType
    v_type: CartanType
    s_description: str
    noncompact_dual: str
    equal_rank: bool
    table_rank: int
    table_dim_h: int
    degenerate: bool = False

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


_REQUIRED_FIELDS = {
    "ambient": str,
    "label": str,
    "l_type": dict,
    "v_type": dict,
    "s_description": str,
    "noncompact_dual": str,
    "equal_rank": bool,
    "table_rank": int,
    "table_dim_h": int,
}


def _entry_from_json(obj: dict, where: str) -> GoldenEntry:
    if not isinstance(obj, dict):
        raise GoldenDataError(f"{where}: entry must be an object, got {type(obj).__name__}")
    for name, typ in _REQUIRED_FIELDS.items():
        if name not in obj:
            raise GoldenDataError(f"{where}: missing field {name!r}")
        if not isinstance(obj[name], typ) or (typ is int and isinstance(obj[name], bool)):
            raise GoldenDataError(
                f"{where}: field {name!r} must be {typ.__name__}"
            )
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
        equal_rank=obj["equal_rank"],
        table_rank=obj["table_rank"],
        table_dim_h=obj["table_dim_h"],
        degenerate=bool(obj.get("degenerate", False)),
    )


def _validate_entries(entries: list[GoldenEntry], source: str) -> list[GoldenEntry]:
    """Check the per-entry rank identity and per-ambient key uniqueness."""
    seen: dict[tuple[str, CartanType, CartanType], GoldenEntry] = {}
    for e in entries:
        if e.equal_rank != (e.l_type.total_rank == e.ambient.rank):
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


def load_golden(path: str) -> list[GoldenEntry]:
    """Load and validate a golden file (a JSON array of entries)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GoldenDataError(f"cannot read golden file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GoldenDataError(f"golden file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GoldenDataError(f"golden file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GoldenDataError(f"golden file {path} is nested too deeply") from exc
    if not isinstance(data, list):
        raise GoldenDataError(f"golden file {path} must hold a JSON array")
    entries = [
        _entry_from_json(obj, f"{path}, entry {i}") for i, obj in enumerate(data)
    ]
    return _validate_entries(entries, path)


def _bundled_text(name: str) -> str:
    return resources.files("quatforms").joinpath(name).read_text(encoding="utf-8")


def load_bundled_exceptional() -> list[GoldenEntry]:
    data = json.loads(_bundled_text("data/registry_exceptional.json"))
    entries = [
        _entry_from_json(obj, f"bundled exceptional registry, entry {i}")
        for i, obj in enumerate(data)
    ]
    return _validate_entries(entries, "bundled exceptional registry")


def generator_config() -> dict:
    """Per-family tested rank span of the classical generators."""
    return json.loads(_bundled_text("data/classical_generators.json"))


def load_table() -> list[dict]:
    """Rows of the bundled quaternionic dimension table."""
    return json.loads(_bundled_text("data/quaternionic_table.json"))


# ---------------------------------------------------------------------------
# Classical generators
# ---------------------------------------------------------------------------


def _orthogonal_type(m: int) -> tuple[list[tuple[str, int]], int]:
    """Cartan type of so(m) as (components, torus rank)."""
    if m <= 1:
        return [], 0
    if m == 2:
        return [], 1
    if m % 2:
        k = m // 2
        return [("A", 1)] if k == 1 else [("B", k)], 0
    k = m // 2
    if k == 2:
        return [("A", 1), ("A", 1)], 0
    if k == 3:
        return [("A", 3)], 0
    return [("D", k)], 0


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
    from .subsys import normalize_components

    return CartanType(normalize_components(comps), torus)


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
    """
    family, n = t.family, t.rank
    config = generator_config()[family]
    lo, hi = config["tested_ranks"]
    if not lo <= n <= hi:
        raise GoldenDataError(
            f"no bundled golden baseline for {t.label}: the family-{family} "
            f"generator is tested for ranks {lo}..{hi}; pass an explicit golden file"
        )
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
                equal_rank=lt.total_rank == n,
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
                    equal_rank=True,
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
                equal_rank=True,
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
                    equal_rank=True,
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
                    equal_rank=lt.total_rank == n,
                    table_rank=table_rank,
                    table_dim_h=dim_h,
                    degenerate=u == 0,
                )
            )

    return _validate_entries(_merge_coincident(entries), f"{t.label} generator")


def _merge_coincident(entries: list[GoldenEntry]) -> list[GoldenEntry]:
    """Merge generated entries that name the same (L, V) pair.

    Distinct parametric items can land on one isometric space (at D4 the
    2a Grassmannian equals the 2b(u=0) quadric); those are one form and
    keep both labels.  Entries differing in equal_rank never merge.
    """
    merged: dict[tuple[bool, CartanType, CartanType], GoldenEntry] = {}
    order: list[tuple[bool, CartanType, CartanType]] = []
    for e in entries:
        k = (e.equal_rank, *e.key)
        if k not in merged:
            merged[k] = e
            order.append(k)
            continue
        prev = merged[k]
        merged[k] = GoldenEntry(
            ambient=prev.ambient,
            label=f"{prev.label} = {e.label}",
            l_type=prev.l_type,
            v_type=prev.v_type,
            s_description=f"{prev.s_description} = {e.s_description}",
            noncompact_dual=prev.noncompact_dual,
            equal_rank=prev.equal_rank,
            table_rank=prev.table_rank,
            table_dim_h=prev.table_dim_h,
            degenerate=prev.degenerate or e.degenerate,
        )
    return [merged[k] for k in order]


def golden_for_type(
    t: SimpleType, path: str | None = None
) -> tuple[list[GoldenEntry], bool]:
    """Golden entries for one ambient type plus a baseline-found flag.

    An explicit path wins; otherwise the bundled registry is used (data
    file for exceptional types, generator for classical families).
    """
    if path:
        entries = [e for e in load_golden(path) if e.ambient == t]
        return entries, bool(entries)
    if t.family in CLASSICAL_FAMILIES:
        return generate_classical(t), True
    entries = [e for e in load_bundled_exceptional() if e.ambient == t]
    return entries, bool(entries)


# ---------------------------------------------------------------------------
# Enumeration and classification
# ---------------------------------------------------------------------------


def enumerate_involutions(rs: RootSystem) -> list[ToralElement]:
    """All 2^rank coweight-basis candidates with denominator 2, in lex order.

    Includes the zero element; downstream analysis rejects it (the highest
    root pairs to zero with it).
    """
    if rs.rank < 2:
        raise GradingError(
            f"no quaternionic node grading for {rs.type.label} (rank 1)"
        )
    return [
        ToralElement(coords, 2, COWEIGHT)
        for coords in product((0, 1), repeat=rs.rank)
    ]


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
    """Search outcome diffed against the golden baseline."""

    ambient: SimpleType
    found: list[FoundForm]
    expected_equal_rank: list[GoldenEntry]
    missing: list[GoldenEntry]
    unexpected: list[FoundForm]
    skipped_unequal_rank: list[GoldenEntry]
    no_golden_baseline: bool = False
    candidates: int = 0

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
    """Scan all involution candidates, dedupe the forms, diff the registry.

    Candidates failing the circle or dimension criterion are rejected on
    those raw counts without building their full analysis; the analysis
    criteria are exactly the same two tests, so the survivors coincide.
    """
    gd = quaternionic_decomposition(rs)
    theta = rs.highest_root
    m_set = set(gd.m_pos)

    found_order: list[tuple[CartanType, CartanType]] = []
    witnesses: dict[tuple[CartanType, CartanType], ToralElement] = {}
    counts: dict[tuple[CartanType, CartanType], int] = {}
    n_candidates = 0
    for t in enumerate_involutions(rs):
        n_candidates += 1
        if pairing(rs, t, theta) == 0:
            continue
        cent = centralizer_roots(rs, t)
        if sum(1 for a in m_set if a in cent) != gd.quaternionic_dim:
            continue
        a = analyze(rs, gd, t)
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
