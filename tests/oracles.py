"""Independent oracles used to cross-check the package.

The root and pairing oracles work from the Cartan matrix alone and share no
code with the root-string generator and root-string pairing in
quatforms.rootsys; the base and cover oracles work from plain root sets.
"""

from __future__ import annotations

from fractions import Fraction


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


def regenerate_from_base(rs, base) -> frozenset[tuple[int, ...]]:
    """Orbit of a base under its own reflections, inside the ambient system.

    Uses the package's pairing_with_coroot for the reflection pairings
    (pinned against length_pairing below); the result must be exactly the
    subsystem the base came from.
    """
    from quatforms.rootsys import pairing_with_coroot

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


def indecomposable_base(roots) -> list[tuple[int, ...]]:
    """Positive roots that are not the sum of two positive roots.

    A separate scan over all pairs of positive members of a closed root set,
    ordered by height and then lexicographically; for a closed subsystem the
    result is its base (Humphreys, Introduction to Lie Algebras, 10.1).
    """
    pos = sorted((r for r in roots if sum(r) > 0), key=lambda r: (sum(r), r))
    pos_set = set(pos)
    sums = set()
    for i, a in enumerate(pos):
        for b in pos[i:]:
            s = tuple(x + y for x, y in zip(a, b))
            if s in pos_set:
                sums.add(s)
    return [r for r in pos if r not in sums]


def disjoint_cover_ok(rs, gd, s_pos) -> bool:
    """Strict cross-check: s and (highest - s) partition the grade-1 positives."""
    theta = rs.highest_root
    s_set = set(s_pos)
    mirror = {tuple(t - b for t, b in zip(theta, beta)) for beta in s_pos}
    return not (s_set & mirror) and (s_set | mirror) == set(gd.m_pos)


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
