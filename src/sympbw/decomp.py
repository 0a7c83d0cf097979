"""Fundamental lattice points, minimal markers, and the peeling step.

The points of S(omega_i) are exactly the 0/1 multi-exponents whose support is
a pair of index chains (a barred part and an unbarred part); enumerating the
chains directly is far cheaper than walking the polytope and doubles as an
independent check on it.

Peeling splits a point of S(lambda) into a fundamental point for the smallest
contributing fundamental weight and a point of the reduced polytope.  The
marker consists of the minimal support roots through alpha_i, minimality taken
in the partial order generated by the path successor steps (two roots are
comparable exactly when some Dyck path passes through both); a path therefore
meets a marker at most once.
"""
from __future__ import annotations

import math
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


class FundamentalSupport(NamedTuple):
    barred_part: tuple  # pairs (j_l, k_l): roots a[j_l, k_l~], both ascending
    plain_part: tuple  # pairs (t, r): roots a[t, r], rows up, columns down


class MinimalMarker(NamedTuple):
    roots: tuple  # the minimal support roots through alpha_i, reading order
    exponent: tuple  # same set as an indicator multi-exponent


def _fundamental_supports(n: int, i: int):
    """All index-chain supports for omega_i: j_1<...<j_p <= i with barred
    columns k_1<...<k_p (j_l <= k_l <= n-1), then j_p < t_1<...<t_q <= i and
    unbarred columns i <= r_1<...<r_q <= n.  The support must be an antichain
    of the path order, so ascending rows t_l pair with descending columns."""
    for p in range(0, i + 1):
        for js in combinations(range(1, i + 1), p):
            for ks in combinations(range(1, n), p):
                if any(j > k for j, k in zip(js, ks)):
                    continue
                barred = tuple(zip(js, ks))
                t_low = js[-1] + 1 if js else 1
                q_max = min(i - t_low + 1, n - i + 1)
                for q in range(0, max(q_max, 0) + 1):
                    for ts in combinations(range(t_low, i + 1), q):
                        for rs in combinations(range(i, n + 1), q):
                            yield FundamentalSupport(
                                barred, tuple(zip(ts, reversed(rs)))
                            )


def support_to_exponent(sup: FundamentalSupport, n: int) -> tuple:
    """Indicator multi-exponent of a fundamental support."""
    idx = root_index_map(n)
    s = [0] * (n * n)
    for j, k in sup.barred_part:
        s[idx[make_root(j, k, True, n)]] = 1
    for t, r in sup.plain_part:
        s[idx[make_root(t, r, False, n)]] = 1
    return tuple(s)


def _validate_index(n: int, i: int) -> None:
    """Refuse a rank below 1 or a fundamental index outside 1..n."""
    validate_rank(n)
    if not 1 <= i <= n:
        raise ValueError(f"fundamental index must satisfy 1 <= i <= {n}, got {i}")


def fundamental_points(n: int, i: int) -> list:
    """All points of S(omega_i) by chain enumeration, sorted as tuples."""
    _validate_index(n, i)
    points = {support_to_exponent(sup, n) for sup in _fundamental_supports(n, i)}
    return sorted(points)


def fundamental_count(n: int, i: int) -> int:
    """|S(omega_i)| without materializing exponent vectors."""
    _validate_index(n, i)
    return sum(1 for _ in _fundamental_supports(n, i))


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
