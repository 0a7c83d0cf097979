"""Tests for exact sparse row reduction and combinations of tagged inputs."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sympbw.linalg import (
    IncrementalBasis,
    add_into,
    combine,
    exact_quotient,
    vec_add,
    vec_scale,
)


def test_vec_helpers_drop_zeros():
    u = {"a": Fraction(1), "b": Fraction(2)}
    v = {"b": Fraction(-2), "c": Fraction(3)}
    assert vec_add(u, v) == {"a": Fraction(1), "c": Fraction(3)}
    assert vec_scale(u, 0) == {}
    assert vec_scale(u, Fraction(1, 2))["b"] == Fraction(1)
    # repeated keys are summed, and a key is dropped once its sum is zero
    terms = [("a", 1), ("b", 2), ("a", Fraction(1, 2)), ("b", -2), ("c", 0)]
    assert combine(terms) == {"a": Fraction(3, 2)}
    assert combine([("b", 2), ("b", -2), ("b", 5)]) == {"b": 5}
    assert combine([]) == {}
    # start is copied, never mutated
    start = {"a": Fraction(1), "b": Fraction(2)}
    out = combine([("a", -1), ("d", 4)], start)
    assert out == {"b": Fraction(2), "d": 4}
    assert start == {"a": Fraction(1), "b": Fraction(2)}
    # add_into sums into its argument, returns it, drops a key whose sum
    # is zero and keeps the other keys in insertion order
    out = {"a": 1, "b": Fraction(2), "c": 3}
    assert add_into(out, [("b", -2), ("d", 4), ("a", Fraction(1, 2)), ("e", 0)]) is out
    assert out == {"a": Fraction(3, 2), "c": 3, "d": 4}
    assert list(out) == ["a", "c", "d"]
    assert add_into(out, []) is out and list(out) == ["a", "c", "d"]


def test_exact_quotient_keeps_ints_and_never_floats():
    assert exact_quotient(12, -4) == -3 and type(exact_quotient(12, -4)) is int
    assert exact_quotient(0, 7) == 0 and type(exact_quotient(0, 7)) is int
    assert exact_quotient(3, 6) == Fraction(1, 2)
    assert exact_quotient(-3, 9) == Fraction(-1, 3)
    assert exact_quotient(Fraction(3, 2), 3) == Fraction(1, 2)
    assert exact_quotient(2, Fraction(2, 3)) == 3
    for x, p in ((3, 6), (Fraction(3, 2), 3), (2, Fraction(2, 3))):
        assert type(exact_quotient(x, p)) is Fraction


def test_rank_and_membership():
    basis = IncrementalBasis()
    assert basis.add({1: 1, 2: 1})
    assert basis.add({2: 1, 3: 1})
    assert not basis.add({1: 1, 3: 1, 2: 2})  # sum of the first two
    assert basis.rank == 2
    assert basis.contains({1: 2, 2: 4, 3: 2})
    assert not basis.contains({3: 1})


def test_residual_is_zero_exactly_on_the_span():
    basis = IncrementalBasis()
    basis.add({"x": 2, "y": 4})
    res = basis.residual({"x": 1, "y": 1})
    assert res  # independent direction survives
    assert basis.residual({"x": 3, "y": 6}) == {}


# the tag keys of combination's inputs: every test vector's keys lie below
TAG = 100


def test_coordinates_reproduce_vectors():
    # independent inputs have unique coordinates: combination returns the
    # very weights that built the target, and they rebuild it
    rng = random.Random(7)
    keys = list(range(8))
    plain = IncrementalBasis()
    basis = IncrementalBasis()
    stored = []
    while plain.rank < 5:
        vec = {k: Fraction(rng.randint(-3, 3)) for k in rng.sample(keys, 4)}
        vec = {k: x for k, x in vec.items() if x}
        if vec and plain.add(vec):
            assert basis.add({**vec, TAG + len(stored): 1})
            stored.append(vec)
    for _ in range(20):
        weights = [Fraction(rng.randint(-2, 2)) for _ in stored]
        target = {}
        for w, vec in zip(weights, stored):
            target = vec_add(target, vec, w)
        coords = basis.combination(target, TAG)
        assert coords == {TAG + i: w for i, w in enumerate(weights) if w}
        rebuilt = {}
        for tag, c in coords.items():
            rebuilt = vec_add(rebuilt, stored[tag - TAG], c)
        assert rebuilt == {k: Fraction(x) for k, x in target.items() if x}
    assert basis.combination({99: 1}, TAG) is None


def test_combination_expresses_inputs():
    rng = random.Random(13)
    basis = IncrementalBasis()
    added = []
    for _ in range(12):
        vec = {k: Fraction(rng.randint(-2, 2)) for k in rng.sample(range(6), 3)}
        vec = {k: x for k, x in vec.items() if x}
        if vec:
            basis.add({**vec, TAG + len(added): 1})
            added.append(vec)
    for _ in range(20):
        weights = [Fraction(rng.randint(-2, 2)) for _ in added]
        target = {}
        for w, vec in zip(weights, added):
            target = vec_add(target, vec, w)
        combo = basis.combination(target, TAG)
        assert combo is not None
        rebuilt = {}
        for tag, c in combo.items():
            rebuilt = vec_add(rebuilt, added[tag - TAG], c)
        assert rebuilt == {k: Fraction(x) for k, x in target.items() if x}


def test_rows_stay_reduced():
    # pivot columns hold exactly one nonzero entry across the stored rows
    rng = random.Random(99)
    basis = IncrementalBasis()
    for _ in range(30):
        vec = {k: Fraction(rng.randint(-4, 4)) for k in rng.sample(range(10), 5)}
        vec = {k: x for k, x in vec.items() if x}
        if vec:
            basis.add(vec)
    for pivot, row in basis.rows:
        assert row[pivot] == 1
        for other_pivot, other in basis.rows:
            if other_pivot != pivot:
                assert pivot not in other


def _dense_rank(rows: list) -> int:
    """Rank of dense Fraction rows by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_reduction_matches_dense_elimination():
    # pins the one-pass reduction against a plain dense elimination; every
    # other trial feeds plain ints, the rest Fractions, and every row stays
    # an int vector that is primitive and fully reduced, with no float made
    rng = random.Random(2024)
    unit = wide = 0
    for trial in range(40):
        dim = rng.randint(1, 7)
        integral = trial % 2 == 1

        def dense(vec):
            return [Fraction(vec.get(k, 0)) for k in range(dim)]

        def number(low, high, den):
            x = rng.randint(low, high)
            return x if integral else Fraction(x, rng.randint(1, den))

        def sample(low, high, den):
            return {k: number(low, high, den)
                    for k in rng.sample(range(dim), rng.randint(1, dim))}

        def no_float(vec):
            return not any(isinstance(x, float) for x in vec.values())

        inputs = []
        basis = IncrementalBasis()
        tagged = IncrementalBasis()  # input i with the tag key TAG + i
        for _ in range(rng.randint(1, 9)):
            if inputs and rng.random() < 0.3:  # a combination of earlier inputs
                vec = {}
                for prev in rng.sample(inputs, min(2, len(inputs))):
                    vec = vec_add(vec, prev, number(-3, 3, 3))
            else:
                vec = sample(-4, 4, 2) if integral else sample(-3, 3, 2)
            before = _dense_rank([dense(v) for v in inputs])
            grew = basis.add(vec)
            assert tagged.add({**vec, TAG + len(inputs): 1}), trial
            inputs.append(vec)
            after = _dense_rank([dense(v) for v in inputs])
            assert grew == (after > before), trial
            assert basis.rank == after, trial
            # as many tagged rows pivot below TAG as the inputs have rank
            assert sum(p < TAG for p, _ in tagged.rows) == after, trial
            for b in (basis, tagged):
                for pivot, row in b.rows:
                    assert all(type(x) is int for x in row.values()), trial
                    assert math.gcd(*row.values()) == 1, trial
                    assert row[pivot] > 0 and pivot == min(row), trial
                    assert not any(pivot in other for p, other in b.rows
                                   if p != pivot), trial
                assert b.wide == {r: row[p] for r, (p, row) in enumerate(b.rows)
                                  if row[p] != 1}, trial
            if grew and integral:
                pivot, row = basis.rows[-1]
                if row[pivot] == 1:
                    unit += 1
                else:
                    wide += 1
        for _ in range(10):
            probe = sample(-2, 2, 1)
            inside = _dense_rank([dense(v) for v in inputs + [probe]]) == basis.rank
            assert basis.contains(probe) == inside, trial
            assert (not basis.residual(probe)) == inside, trial
            combo = tagged.combination(probe, TAG)
            if not inside:
                assert combo is None, trial
                continue
            assert no_float(combo), trial
            rebuilt = [Fraction(0)] * dim
            for tag, c in combo.items():
                for k, x in inputs[tag - TAG].items():
                    rebuilt[k] += c * x
            assert rebuilt == dense(probe), trial
    # int trials reach both pivot entry 1 and pivot entries above 1
    assert unit and wide, (unit, wide)
