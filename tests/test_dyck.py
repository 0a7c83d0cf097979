"""Tests for symplectic Dyck-path enumeration and validation."""

from __future__ import annotations

import gc

from sympbw.dyck import count_paths, enumerate_paths, is_dyck_path
from sympbw.rootsys import (
    index_position,
    make_root,
    positive_roots,
    simple_root,
    variable_key,
)


def test_paths_n1():
    assert enumerate_paths(1) == ((make_root(1, 1, False, 1),),)


def test_paths_n2_hand_listed():
    n = 2
    a11 = make_root(1, 1, False, n)
    a12 = make_root(1, 2, False, n)
    a1b1 = make_root(1, 1, True, n)
    a22 = make_root(2, 2, False, n)
    assert enumerate_paths(n) == (
        (a11,),
        (a11, a12, a1b1),
        (a11, a12, a22),
        (a22,),
    )


def test_path_counts():
    assert len(enumerate_paths(2)) == 4
    assert len(enumerate_paths(3)) == 12
    assert len(enumerate_paths(4)) == 36


def test_count_paths_matches_the_listing():
    for n in range(1, 9):
        assert count_paths(n) == len(enumerate_paths(n)), n
    # beyond the listing, the counts go on growing about fourfold per rank
    assert [count_paths(n) for n in (10, 12, 16)] == [69180, 990000, 214443152]


def test_enumeration_is_deterministic():
    assert enumerate_paths(3) == enumerate_paths(3)
    # the search emits the paths sorted by their variable keys, the order
    # that first_broken and the paths output report in
    for n in range(1, 7):
        keys = [tuple(variable_key(alpha, n) for alpha in path)
                for path in enumerate_paths(n)]
        assert keys == sorted(keys), n


def test_every_path_validates():
    for n in (1, 2, 3, 4):
        for path in enumerate_paths(n):
            ok, reason = is_dyck_path(path, n)
            assert ok, reason


def test_paths_strictly_increase_in_the_variable_order():
    # along a path, each variable is strictly larger than the one before it
    for n in (2, 3, 4):
        for path in enumerate_paths(n):
            keys = [variable_key(alpha, n) for alpha in path]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_single_steps_move_right_or_down():
    for n in (2, 3):
        for path in enumerate_paths(n):
            for a, b in zip(path, path[1:]):
                step = (b.row - a.row,
                        index_position(b.col, n) - index_position(a.col, n))
                assert step in ((0, 1), (1, 0))


def test_every_root_lies_on_some_path():
    for n in (1, 2, 3, 4, 5):
        covered = set()
        for path in enumerate_paths(n):
            covered.update(path)
        assert covered == set(positive_roots(n))


def test_rejections_carry_reasons():
    n = 2
    a12 = make_root(1, 2, False, n)
    a22 = make_root(2, 2, False, n)
    bad = [
        (),  # empty
        (a12,),  # does not start at a simple root
        (simple_root(1), a22),  # skips a column
        (simple_root(1), a12),  # ends at a non-terminal root
        (a22, simple_root(1)),  # walks backwards
    ]
    for seq in bad:
        ok, reason = is_dyck_path(seq, n)
        assert not ok
        assert reason


def test_path_count_grows_with_rank():
    counts = [len(enumerate_paths(n)) for n in (1, 2, 3, 4, 5)]
    assert counts == sorted(counts)
    assert counts[0] == 1


def test_enumerate_paths_leaves_no_reference_cycles():
    # the recursive closure would hand itself and the found paths to the
    # cyclic collector; the unwrapped walk, since the cache keeps one result
    walk = enumerate_paths.__wrapped__
    walk(8)  # warm the per-rank caches of rootsys
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        walk(8)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
