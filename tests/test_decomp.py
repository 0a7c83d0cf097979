"""Tests for fundamental point sets and the peeling decomposition."""

from __future__ import annotations

import itertools

import pytest

from sympbw import polytope
from sympbw.decomp import (
    binomial_identity_check,
    fundamental_count,
    fundamental_points,
    minimal_marker,
    peel,
    peel_completely,
    support_R_i,
)
from sympbw.polytope import contains, enumerate_points, weyl_dim
from sympbw.rootsys import index_position, make_root, positive_roots, root_index_map


def omega(n, i):
    return tuple(1 if k == i else 0 for k in range(1, n + 1))


def test_fundamental_points_match_enumeration():
    for n in range(1, 7):
        for i in range(1, n + 1):
            assert fundamental_points(n, i) == enumerate_points(omega(n, i)), (n, i)


def test_fundamental_counts_frozen():
    assert [fundamental_count(3, i) for i in (1, 2, 3)] == [6, 14, 14]
    assert [fundamental_count(4, i) for i in (1, 2, 3, 4)] == [8, 27, 48, 42]
    assert [fundamental_count(5, i) for i in (1, 2, 3, 4, 5)] == [10, 44, 110, 165, 132]


def test_fundamental_counts_equal_weyl():
    for n in range(1, 6):
        for i in range(1, n + 1):
            assert fundamental_count(n, i) == weyl_dim(omega(n, i))


def test_fundamental_count_matches_the_listing():
    # the Vandermonde count of the chain tails against the listed points
    for n in range(1, 8):
        for i in range(1, n + 1):
            assert fundamental_count(n, i) == len(fundamental_points(n, i)), (n, i)


def test_binomial_identity():
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert binomial_identity_check(n, i), (n, i)


def test_fundamental_index_must_be_an_int():
    s = (1, 0, 1, 1, 0, 0, 0, 0, 0)
    for i in (True, 1.0, "1", None):
        for entry in (fundamental_points, fundamental_count,
                      binomial_identity_check):
            with pytest.raises(ValueError, match="fundamental index must be an int"):
                entry(3, i)
        for entry in (support_R_i, minimal_marker):
            with pytest.raises(ValueError, match="fundamental index must be an int"):
                entry(s, i)


def test_fundamental_points_refuse_a_long_list(monkeypatch):
    monkeypatch.setattr(polytope, "POINT_LIMIT", 13)
    with pytest.raises(ValueError, match="has 14 points, above the limit 13"):
        fundamental_points(3, 2)
    assert len(fundamental_points(3, 1)) == 6


def test_support_R_i():
    n = 2
    s = (1, 0, 1, 1)  # f_{1,1}, f_{1,1~}, f_{2,2}
    assert support_R_i(s, 1) == {make_root(1, 1, False, n), make_root(1, 1, True, n)}
    assert support_R_i(s, 2) == {make_root(1, 1, True, n), make_root(2, 2, False, n)}
    for i in (0, -1, 3):  # an index outside 1..n, for the marker too
        with pytest.raises(ValueError, match="fundamental index"):
            support_R_i(s, i)
        with pytest.raises(ValueError, match="fundamental index"):
            minimal_marker(s, i)


def test_minimal_marker_is_an_antichain():
    n = 3
    for lam in itertools.product(range(2), repeat=n):
        if sum(lam) == 0:
            continue
        i = next(k for k, m in enumerate(lam, start=1) if m)
        for s in enumerate_points(lam):
            marker = minimal_marker(s, i)
            pos = [(a.row, index_position(a.col, n)) for a in marker.roots]
            for (r1, p1), (r2, p2) in itertools.combinations(pos, 2):
                assert not (r1 <= r2 and p1 <= p2)
                assert not (r2 <= r1 and p2 <= p1)


def test_marker_needs_two_roots():
    # the s below touches alpha_2 through two incomparable roots, so the
    # marker keeps both; dropping either one strands the remainder
    lam = (0, 1)
    s = (0, 0, 1, 1)  # f_{1,1~} * f_{2,2}
    marker, remainder = peel(lam, s)
    assert [str(a) for a in marker.roots] == ["a[1,1~]", "a[2,2]"]
    assert remainder == (0, 0, 0, 0)


def test_peel_hand_example():
    lam = (1, 0)
    s = (0, 1, 0, 0)  # f_{1,2}
    marker, remainder = peel(lam, s)
    assert marker.exponent == s
    assert remainder == (0, 0, 0, 0)


def test_peel_rejects_outsiders():
    with pytest.raises(ValueError):
        peel((1, 0), (2, 0, 0, 0))
    with pytest.raises(ValueError):
        peel((0, 0), (0, 0, 0, 0))
    # refused at the boundary, not caught later as an escaped remainder
    with pytest.raises(ValueError, match="must be ints"):
        peel((1, 0), (0.5, 0, 0, 0))


def test_peel_steps_stay_in_polytopes():
    lam = (1, 2)
    n = len(lam)
    for s in enumerate_points(lam):
        marker, remainder = peel(lam, s)
        assert contains(omega(n, 1), marker.exponent)
        assert contains((0, 2), remainder)


def test_peel_completely_terminates():
    for lam in ((2, 1), (1, 1, 1)):
        for s in enumerate_points(lam):
            markers = peel_completely(lam, s)
            assert len(markers) == sum(lam)
            total = [0] * len(s)
            for marker in markers:
                total = [a + b for a, b in zip(total, marker.exponent)]
            assert tuple(total) == s


def test_marker_exponent_matches_roots():
    n = 3
    idx = root_index_map(n)
    for s in enumerate_points((0, 1, 1)):
        marker = minimal_marker(s, 2)
        per_root = {alpha: marker.exponent[idx[alpha]] for alpha in positive_roots(n)}
        assert all(per_root[alpha] == 1 for alpha in marker.roots)
        assert sum(per_root.values()) == len(marker.roots)
