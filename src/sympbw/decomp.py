"""Fundamental lattice points, minimal markers, and the peeling step.

The points of S(omega_i) are exactly the 0/1 multi-exponents supported on two
index chains.  The head is a barred chain: roots a[j_1, k_1~], ...,
a[j_p, k_p~] with j_1 < ... < j_p <= i, k_1 < ... < k_p <= n-1 and j_l <= k_l.
The tail is an unbarred chain a[t_1, r_q], ..., a[t_q, r_1] with
t_low <= t_1 < ... < t_q <= i <= r_1 < ... < r_q <= n, where t_low is j_p + 1
(1 for an empty head); rows go up as columns go down, so the support is an
antichain of the path order.  The tail depends on the head only through
t_low, so ``fundamental_count`` counts tails by Vandermonde instead of listing
them, and ``fundamental_points`` lists the tails for each t_low once and
writes each exponent from a slot table built once per rank.  Both read one
enumeration of the heads, and the listing doubles as an independent check on
the polytope walk.

Peeling splits a point of S(lambda) into a fundamental point for the smallest
contributing fundamental weight and a point of the reduced polytope.  The
marker consists of the minimal support roots through alpha_i, minimality taken
in the partial order generated by the path successor steps (two roots are
comparable exactly when some Dyck path passes through both); a path therefore
meets a marker at most once.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import polytope
from .rootsys import (
    make_root,
    positive_roots,
    root_index_map,
    simple_coefficients,
    validate_rank,
    validate_weight,
    variable_key,
)


class MinimalMarker(NamedTuple):
    roots: tuple  # the minimal support roots through alpha_i, reading order
    exponent: tuple  # same set as an indicator multi-exponent


def _validate_index(n: int, i: int) -> None:
    """Refuse a rank below 1 or a fundamental index that is not an int in 1..n."""
    validate_rank(n)
    if type(i) is not int:
        raise ValueError(f"fundamental index must be an int, got {i!r}")
    if not 1 <= i <= n:
        raise ValueError(f"fundamental index must satisfy 1 <= i <= {n}, got {i}")


def _chain_heads(n: int, i: int):
    """Every barred head of S(omega_i) as (pairs (j_l, k_l), t_low)."""
    for p in range(i + 1):
        for js in combinations(range(1, i + 1), p):
            for ks in combinations(range(1, n), p):
                if all(j <= k for j, k in zip(js, ks)):
                    yield tuple(zip(js, ks)), (js[-1] + 1 if js else 1)


def _tail_count(n: int, i: int, heads) -> int:
    """The number of (head, tail) supports over the given heads.

    A head with lowest tail row t_low has sum_q C(a, q) C(b, q) tails, with
    a = i - t_low + 1 rows and b = n - i + 1 columns to choose q of each from.
    As C(b, q) = C(b, b - q), Vandermonde's identity sums this to
    C(a + b, a) = C(n - t_low + 2, i - t_low + 1).
    """
    return sum(math.comb(n - t_low + 2, i - t_low + 1) for _, t_low in heads)


@lru_cache(maxsize=None)
def _slots(n: int) -> tuple:
    """Slot tables (barred, plain) of rank n: {(row, column): reading-order
    index} over the roots a[j, k~] with j <= k <= n-1 and a[t, r] with
    t <= r <= n, each checked once by make_root."""
    idx = root_index_map(n)
    barred = {(j, k): idx[make_root(j, k, True, n)]
              for k in range(1, n) for j in range(1, k + 1)}
    plain = {(t, r): idx[make_root(t, r, False, n)]
             for r in range(1, n + 1) for t in range(1, r + 1)}
    return barred, plain


def fundamental_points(n: int, i: int) -> list:
    """All points of S(omega_i) by chain enumeration, sorted as tuples.

    Raises ValueError before listing when there are more than
    polytope.POINT_LIMIT of them.
    """
    _validate_index(n, i)
    heads = list(_chain_heads(n, i))
    count = _tail_count(n, i, heads)
    if count > polytope.POINT_LIMIT:
        raise ValueError(
            f"S(omega_{i}) at rank {n} has {count} points, above the limit "
            f"{polytope.POINT_LIMIT} for listing them"
        )
    barred, plain = _slots(n)
    tails = {}
    points = []
    for pairs, t_low in heads:
        tail = tails.get(t_low)
        if tail is None:
            tail = tails[t_low] = [
                [plain[pair] for pair in zip(ts, reversed(rs))]
                for q in range(min(i - t_low + 1, n - i + 1) + 1)
                for ts in combinations(range(t_low, i + 1), q)
                for rs in combinations(range(i, n + 1), q)
            ]
        head = [0] * (n * n)
        for pair in pairs:
            head[barred[pair]] = 1
        for slots in tail:
            s = head.copy()
            for k in slots:
                s[k] = 1
            points.append(tuple(s))
    return sorted(set(points))


def fundamental_count(n: int, i: int) -> int:
    """|S(omega_i)|: the tails of each chain head, counted by Vandermonde."""
    _validate_index(n, i)
    return _tail_count(n, i, _chain_heads(n, i))


def support_R_i(s, i: int) -> set:
    """R_i^s: support roots of s whose expansion uses alpha_i."""
    n = math.isqrt(len(s))
    if n * n != len(s):
        raise ValueError(f"multi-exponent length {len(s)} is not a square")
    _validate_index(n, i)
    return {
        alpha
        for alpha, x in zip(positive_roots(n), s)
        if x != 0 and simple_coefficients(alpha, n)[i - 1] != 0
    }


def minimal_marker(s, i: int) -> MinimalMarker:
    """The minimal elements of R_i^s in the path order, as roots + indicator.

    Minimality is with respect to the partial order whose chains are the Dyck
    paths, so the marker is an antichain and no path inequality can pick up
    more than one of its entries.
    """
    n = math.isqrt(len(s))
    sup = support_R_i(s, i)
    idx = root_index_map(n)
    minimal = []
    for beta in sup:
        pb = variable_key(beta, n)
        dominated = False
        for gamma in sup:
            if gamma == beta:
                continue
            pg = variable_key(gamma, n)
            if pg[0] <= pb[0] and pg[1] <= pb[1]:
                dominated = True
                break
        if not dominated:
            minimal.append(beta)
    minimal.sort(key=lambda a: idx[a])
    exp = [0] * (n * n)
    for alpha in minimal:
        exp[idx[alpha]] = 1
    return MinimalMarker(tuple(minimal), tuple(exp))


def peel(lam, s) -> tuple:
    """Split s in S(lambda) as (marker, remainder) with the memberships of the
    peeling step checked outright: marker in S(omega_i), remainder in
    S(lambda - omega_i), where i is minimal with m_i > 0."""
    lam = validate_weight(lam)
    n = len(lam)
    if all(m == 0 for m in lam):
        raise ValueError("cannot peel the zero weight")
    if not polytope.contains(lam, s):
        raise ValueError(f"{s} is not a point of the polytope of {lam}")
    i = next(k for k, m in enumerate(lam, start=1) if m != 0)
    marker = minimal_marker(s, i)
    remainder = tuple(a - b for a, b in zip(s, marker.exponent))
    omega = tuple(1 if k == i else 0 for k in range(1, n + 1))
    if not polytope.contains(omega, marker.exponent):
        raise RuntimeError(
            f"marker {marker.exponent} escaped the fundamental polytope {omega}"
        )
    reduced = tuple(a - b for a, b in zip(lam, omega))
    if not polytope.contains(reduced, remainder):
        raise RuntimeError(
            f"remainder {remainder} escaped the reduced polytope {reduced}"
        )
    return marker, remainder


def peel_completely(lam, s) -> list:
    """Iterate peel until the weight is exhausted; returns the marker list."""
    lam = validate_weight(lam)
    markers = []
    while any(m != 0 for m in lam):
        marker, s = peel(lam, s)
        markers.append(marker)
        i = next(k for k, m in enumerate(lam, start=1) if m != 0)
        lam = tuple(m - 1 if k == i else m for k, m in enumerate(lam, start=1))
    if any(x != 0 for x in s):
        raise RuntimeError(f"peeling left a nonzero remainder {s}")
    return markers


def binomial_identity_check(n: int, i: int) -> bool:
    """Whether |S(omega_i)| + |S(omega_{i-2})| + ... equals C(2n, i)."""
    _validate_index(n, i)
    total = 0
    k = i
    while k >= 1:
        total += fundamental_count(n, k)
        k -= 2
    if k == 0:
        total += 1  # S(omega_0) is the single zero point
    return total == math.comb(2 * n, i)
