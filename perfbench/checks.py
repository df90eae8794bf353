"""Output checks of the benchmark, run outside the timed spans.

Each check returns ``None`` when the output is right and a one-line
description of the first problem otherwise.  The ``analyze``/``recognize``
checks use identities that do not go through the recognizer: the harness
computes centralizers, grades and the circle test with its own integer
arithmetic (``Arith``) from the Cartan matrix, and compares counts.
"""

from __future__ import annotations

import hashlib

COMPLEX_FORM = "complex-form"
NOT_COMPLEX_FORM = "not-complex-form"

_EXCEPTIONAL_ROOTS = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}


def root_count(cartan_type) -> int:
    """Number of roots (both signs) of a Cartan type, from its components."""
    total = 0
    for c in cartan_type.components:
        n = c.rank
        if c.family == "A":
            total += n * (n + 1)
        elif c.family in "BC":
            total += 2 * n * n
        elif c.family == "D":
            total += 2 * n * (n - 1)
        else:
            total += _EXCEPTIONAL_ROOTS[(c.family, n)]
    return total


class Arith:
    """Independent integer arithmetic on the roots of one ambient system."""

    def __init__(self, rs) -> None:
        n = rs.rank
        cartan = rs.cartan
        self.rank = n
        self.roots = sorted(rs.root_set)
        # <r, alpha_i-check> = sum_j r_j * A[j][i]
        self.rows = {
            r: tuple(sum(r[j] * cartan[j][i] for j in range(n)) for i in range(n))
            for r in self.roots
        }
        positive = [r for r in self.roots if sum(r) > 0]
        self.theta = max(positive, key=lambda r: (sum(r), r))
        self.nodes = [i for i in range(n) if self.rows[self.theta][i] > 0]
        self.m_count = sum(1 for r in positive if self.grade(r) == 1)

    def grade(self, r) -> int:
        return sum(r[i] for i in self.nodes)

    def pair(self, coords, denom: int, basis: str, r) -> int:
        vec = self.rows[r] if basis == "coroot" else r
        return sum(c * x for c, x in zip(coords, vec)) % denom

    def expect(self, coords, denom: int, basis: str) -> dict:
        """Counts an analysis of this element must reproduce."""
        cent = [r for r in self.roots if self.pair(coords, denom, basis, r) == 0]
        circle = self.pair(coords, denom, basis, self.theta) != 0
        s_count = sum(1 for r in cent if sum(r) > 0 and self.grade(r) == 1)
        dim_h = self.m_count // 2
        return {
            "cent": cent,
            "l_roots": len(cent),
            "v_roots": sum(1 for r in cent if self.grade(r) % 2 == 0),
            "s_count": s_count,
            "circle": circle,
            "dim_h": dim_h,
            "verdict": COMPLEX_FORM if circle and s_count == dim_h else NOT_COMPLEX_FORM,
        }


def check_type(cartan_type, n_roots: int, rank: int, what: str) -> str | None:
    got = root_count(cartan_type)
    if got != n_roots:
        return f"{what} = {cartan_type.render()} has {got} roots, the set has {n_roots}"
    if cartan_type.total_rank != rank:
        return f"{what} = {cartan_type.render()} has total rank {cartan_type.total_rank}, ambient {rank}"
    return None


def check_analysis(a, exp: dict, rank: int) -> str | None:
    """An analyze() result against the harness's own counts."""
    problem = check_type(a.l_type, exp["l_roots"], rank, "L") or check_type(
        a.v_type, exp["v_roots"], rank, "V"
    )
    if problem:
        return problem
    if a.circle_ok != exp["circle"]:
        return f"circle_ok {a.circle_ok}, expected {exp['circle']}"
    if (a.dim_s, a.dim_h) != (exp["s_count"], exp["dim_h"]):
        return f"dim_s/dim_h {a.dim_s}/{a.dim_h}, expected {exp['s_count']}/{exp['dim_h']}"
    if a.verdict != exp["verdict"]:
        return f"verdict {a.verdict}, expected {exp['verdict']}"
    if a.verdict == COMPLEX_FORM and a.step6_count != 0:
        return f"step6_count {a.step6_count} on a complex form"
    return None


def check_same_form(a, b) -> str | None:
    """A coroot element and its coweight image must give one (L, V, verdict)."""
    if (a.l_type, a.v_type, a.verdict) != (b.l_type, b.v_type, b.verdict):
        return (
            f"coroot gives ({a.l_type}, {a.v_type}, {a.verdict}), coweight image "
            f"gives ({b.l_type}, {b.v_type}, {b.verdict})"
        )
    return None


def check_classify(report, reference: dict) -> str | None:
    """A classification report must be ok, baselined and equal the reference."""
    if not report.ok:
        return f"{report.ambient.label}: report not ok"
    if report.no_golden_baseline:
        return f"{report.ambient.label}: no golden baseline"
    if report.to_json() != reference:
        return f"{report.ambient.label}: report differs from the recorded reference"
    return None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli(result: tuple[int, bytes], expected_digest: str) -> str | None:
    """A CLI run must exit 0 and print exactly the recorded bytes."""
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    if digest(out) != expected_digest:
        return "stdout digest differs from the recorded one"
    return None
