"""The Dyck-path polytope P(lambda), its lattice points, and dimension oracles.

Each symplectic Dyck path contributes one inequality: the coordinates of a
multi-exponent summed along the path are bounded by a partial sum of the
weight coefficients.  The integral points S(lambda) of the polytope index the
monomial basis of the degenerate module; their weights and degrees give the
character and the graded character.

Two classical oracles are included for independent verification: the Weyl
dimension formula and Freudenthal's recursion for weight multiplicities, both
in exact arithmetic.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import dyck
from .rootsys import (
    epsilon_coords,
    epsilon_weight,
    path_bound,
    positive_roots,
    root_index_map,
    simple_coefficients,
    validate_weight,
)

MultiExponent = tuple  # length n^2, one slot per positive root in reading order
GradedDimensionTable = dict  # (weight offset over simple roots, degree) -> dim


class PathInequality(NamedTuple):
    path: tuple
    bound: int


def inequalities(lam) -> list:
    """One inequality per Dyck path, in path enumeration order."""
    lam = validate_weight(lam)
    n = len(lam)
    return [
        PathInequality(p, path_bound(lam, p[0], p[-1]))
        for p in dyck.enumerate_paths(n)
    ]


def _support_bounds(lam):
    """Deduplicated (coordinate index tuple, bound) pairs for fast membership."""
    n = len(lam)
    idx = root_index_map(n)
    seen = {}
    for ineq in inequalities(lam):
        support = tuple(sorted(idx[alpha] for alpha in ineq.path))
        prev = seen.get(support)
        if prev is None or ineq.bound < prev:
            seen[support] = ineq.bound
    return sorted(seen.items())


def contains(lam, s) -> bool:
    """Whether the multi-exponent s lies in P(lambda)."""
    lam = validate_weight(lam)
    n = len(lam)
    if len(s) != n * n:
        raise ValueError(f"multi-exponent needs {n * n} coordinates, got {len(s)}")
    if any(x < 0 for x in s):
        return False
    return all(
        sum(s[i] for i in support) <= bound for support, bound in _support_bounds(lam)
    )


def enumerate_points(lam) -> list:
    """All integral points of P(lambda), lexicographic in reading-order coordinates.

    Depth-first assignment with running partial sums per inequality; a branch
    dies as soon as any path sum exceeds its bound.  Every coordinate lies on
    at least one path, so all coordinates are a priori bounded.
    """
    lam = validate_weight(lam)
    n = len(lam)
    dim = n * n
    bounds = _support_bounds(lam)
    on_coord = [[] for _ in range(dim)]  # coordinate -> inequality slots
    for slot, (support, _) in enumerate(bounds):
        for i in support:
            on_coord[i].append(slot)
    slack = [bound for _, bound in bounds]
    point = [0] * dim
    out = []

    def assign(i):
        if i == dim:
            out.append(tuple(point))
            return
        headroom = min((slack[slot] for slot in on_coord[i]), default=0)
        for value in range(headroom + 1):
            point[i] = value
            for slot in on_coord[i]:
                slack[slot] -= value
            assign(i + 1)
            for slot in on_coord[i]:
                slack[slot] += value
        point[i] = 0

    assign(0)
    return out


def weight_of(s, n: int) -> tuple:
    """wt(s) = sum of s_alpha * alpha, expanded over the simple roots."""
    coeffs = [0] * n
    for alpha, x in zip(positive_roots(n), s):
        if x:
            for t, c in enumerate(simple_coefficients(alpha, n)):
                coeffs[t] += x * c
    return tuple(coeffs)


def degree_of(s) -> int:
    return sum(s)


def character(lam) -> dict:
    """Weight multiplicities of S(lambda), keyed by lambda - mu over simple roots."""
    lam = validate_weight(lam)
    n = len(lam)
    return dict(Counter(weight_of(s, n) for s in enumerate_points(lam)))


def graded_character(lam) -> GradedDimensionTable:
    """Counts of S(lambda) points per (weight offset, degree)."""
    lam = validate_weight(lam)
    n = len(lam)
    table = Counter()
    for s in enumerate_points(lam):
        table[(weight_of(s, n), degree_of(s))] += 1
    return dict(table)


def max_point_degree(lam) -> int:
    """Largest total degree over S(lambda)."""
    return max(degree_of(s) for s in enumerate_points(lam))


# ---------------------------------------------------------------------------
# classical oracles
# ---------------------------------------------------------------------------

def weyl_dim(lam) -> int:
    """Weyl dimension formula for C_n, evaluated exactly."""
    lam = validate_weight(lam)
    n = len(lam)
    l = [x + (n - k) for k, x in enumerate(epsilon_weight(lam))]  # lambda + rho
    r = [n - k for k in range(n)]  # rho
    dim = Fraction(1)
    for i in range(n):
        dim *= Fraction(l[i], r[i])
        for j in range(i + 1, n):
            dim *= Fraction(l[i] - l[j], r[i] - r[j])
            dim *= Fraction(l[i] + l[j], r[i] + r[j])
    if dim.denominator != 1:
        raise RuntimeError(f"Weyl dimension for {lam} is not an integer: {dim}")
    return int(dim)


def freudenthal_multiplicities(lam) -> dict:
    """Exact weight multiplicities of V(lambda) via Freudenthal's recursion.

    Keys are offsets in the root lattice: the weight lambda - sum(c_k alpha_k)
    is keyed by (c_1, ..., c_n), matching the keys of character().
    """
    lam = validate_weight(lam)
    n = len(lam)
    lam_eps = epsilon_weight(lam)
    rho = tuple(n - k for k in range(n))
    pos = [
        (simple_coefficients(alpha, n), epsilon_coords(alpha, n))
        for alpha in positive_roots(n)
    ]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    top = tuple(a + b for a, b in zip(lam_eps, rho))
    top_sq = dot(top, top)
    mult = {(0,) * n: 1}
    frontier = [(0,) * n]
    while frontier:
        candidates = set()
        for offset in frontier:
            for k in range(n):
                cand = tuple(c + (1 if t == k else 0) for t, c in enumerate(offset))
                candidates.add(cand)
        frontier = []
        for offset in sorted(candidates):
            mu = epsilon_weight(lam, offset)
            rhs = 0
            for root_offset, root_eps in pos:
                k = 1
                while True:
                    higher = tuple(c - k * d for c, d in zip(offset, root_offset))
                    if any(c < 0 for c in higher):
                        break
                    m = mult.get(higher, 0)
                    if m:
                        rhs += 2 * m * dot(
                            tuple(a + k * b for a, b in zip(mu, root_eps)),
                            root_eps,
                        )
                    k += 1
            if rhs == 0:
                continue
            shifted = tuple(a + b for a, b in zip(mu, rho))
            denom = top_sq - dot(shifted, shifted)
            if denom <= 0:
                raise RuntimeError(f"non-positive Freudenthal denominator at {offset}")
            value = Fraction(rhs, denom)
            if value.denominator != 1:
                raise RuntimeError(f"non-integer multiplicity at {offset}: {value}")
            mult[offset] = int(value)
            frontier.append(offset)
    return mult
