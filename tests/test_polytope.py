"""Tests for the path polytope, its points, characters, and classical formulas."""

from __future__ import annotations

import itertools
import random

import pytest

from sympbw import polytope
from sympbw.dyck import enumerate_paths
from sympbw.polytope import (
    character,
    contains,
    degree_of,
    enumerate_points,
    freudenthal_multiplicities,
    graded_character,
    inequalities,
    max_point_degree,
    weight_of,
    weyl_dim,
)
from sympbw.rootsys import positive_roots, root_index_map


def test_one_inequality_per_path():
    for n in (1, 2, 3):
        ineqs = inequalities((1,) * n)
        assert len(ineqs) == len(enumerate_paths(n))
        for ineq, path in zip(ineqs, enumerate_paths(n)):
            assert ineq.path == path


def test_every_path_has_its_own_support():
    # the path table keeps one row per path; no two rows bound the same sum
    counts = []
    for n in range(1, 7):
        paths = enumerate_paths(n)
        assert len({frozenset(p) for p in paths}) == len(paths)
        counts.append(len(paths))
    assert counts == [1, 4, 12, 36, 115, 390]


def test_contains_reads_the_table_not_the_inequalities(monkeypatch):
    calls = []
    original = polytope.inequalities
    monkeypatch.setattr(
        polytope, "inequalities", lambda lam: calls.append(lam) or original(lam)
    )
    rng = random.Random(3)
    for _ in range(1000):
        contains((1, 1, 1), tuple(rng.randint(0, 2) for _ in range(9)))
    assert calls == []


def test_points_n2_omega1_hand_listed():
    assert enumerate_points((1, 0)) == [
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    ]


def test_points_zero_weight():
    assert enumerate_points((0, 0)) == [(0, 0, 0, 0)]
    assert weyl_dim((0, 0, 0)) == 1


def test_points_are_sorted_and_distinct():
    for lam in ((2, 1), (1, 1, 0)):
        pts = enumerate_points(lam)
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)


def test_contains_agrees_with_enumeration():
    lam = (1, 1)
    pts = set(enumerate_points(lam))
    n = len(lam)
    rng = random.Random(5)
    for _ in range(300):
        s = tuple(rng.randint(0, 2) for _ in range(n * n))
        assert contains(lam, s) == (s in pts)


def test_weyl_dim_known_values():
    assert weyl_dim((1, 0)) == 4
    assert weyl_dim((0, 1)) == 5
    assert weyl_dim((1, 1)) == 16
    assert weyl_dim((2, 0)) == 10
    assert weyl_dim((1, 0, 0)) == 6
    assert weyl_dim((0, 1, 0)) == 14
    assert weyl_dim((0, 0, 1)) == 14
    assert weyl_dim((1, 1, 0)) == 64


def test_point_count_equals_weyl_dim_small():
    for n in (1, 2, 3):
        for lam in itertools.product(range(3), repeat=n):
            if sum(lam) > 2:
                continue
            assert len(enumerate_points(lam)) == weyl_dim(lam), lam


def test_weight_and_degree():
    n = 2
    s = (0, 1, 1, 0)  # f_{1,2} * f_{1,1~}
    assert degree_of(s) == 2
    assert weight_of(s, n) == (3, 2)
    assert weight_of((0, 0, 0, 0), n) == (0, 0)


def test_degree_profile_omega2():
    table = graded_character((0, 1))
    by_degree = {}
    for (_, deg), count in table.items():
        by_degree[deg] = by_degree.get(deg, 0) + count
    assert by_degree == {0: 1, 1: 3, 2: 1}
    assert max_point_degree((0, 1)) == 2


def test_character_sums_to_dimension():
    for lam in ((1, 0), (0, 1), (1, 1), (1, 0, 0)):
        assert sum(character(lam).values()) == weyl_dim(lam)


def test_character_matches_freudenthal():
    for n in (1, 2, 3):
        for lam in itertools.product(range(3), repeat=n):
            if not 1 <= sum(lam) <= 2:
                continue
            assert character(lam) == freudenthal_multiplicities(lam), lam


def test_freudenthal_top_weight():
    mults = freudenthal_multiplicities((1, 1))
    n = 2
    assert mults[(0,) * n] == 1  # the highest weight itself


def test_points_satisfy_every_inequality():
    lam = (2, 1)
    n = len(lam)
    idx = root_index_map(n)
    ineqs = inequalities(lam)
    for s in enumerate_points(lam):
        for ineq in ineqs:
            assert sum(s[idx[alpha]] for alpha in ineq.path) <= ineq.bound


def test_rejects_bad_weights():
    with pytest.raises(ValueError):
        enumerate_points((-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(())
