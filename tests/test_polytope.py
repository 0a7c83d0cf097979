"""Tests for the path polytope, its points, characters, and classical formulas."""

from __future__ import annotations

import gc
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from sympbw import cli, polytope
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
    point_count,
    weight_of,
    weyl_dim,
)
from sympbw.rootsys import (
    epsilon_coords,
    epsilon_weight,
    positive_roots,
    root_index_map,
    simple_coefficients,
    validate_exponent,
    validate_weight,
)


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


def _points_by_brute_force(dim, rows):
    """Every point of the box whose coordinate i runs up to the smallest bound
    of a row on i (0 on no row), kept when no row's sum exceeds its bound."""
    tops = [min((b for coords, b in rows if i in coords), default=0) for i in range(dim)]
    if min(tops, default=0) < 0:
        return []
    return [
        p for p in itertools.product(*(range(top + 1) for top in tops))
        if all(sum(p[i] for i in coords) <= b for coords, b in rows)
    ]


def _random_rows(rng, dim):
    """Rows whose supports often repeat or nest an earlier row's, with bounds
    that are often 0 and now and then negative."""
    rows = []
    for _ in range(rng.randint(1, 6)):
        if rows and rng.random() < 0.4:
            base = set(rng.choice(rows)[0])
            if rng.random() < 0.5:  # a subset, the same support or a superset
                base = {i for i in base if rng.random() < 0.7}
            else:
                base |= set(rng.sample(range(dim), rng.randint(0, dim)))
            coords = sorted(base)
        else:
            coords = rng.sample(range(dim), rng.randint(0, dim))
        bound = rng.choice((-1, 0, 0, 1, 1, 2, 3, 3)) if coords else rng.randint(0, 3)
        rows.append((coords, bound))
    return rows


def test_lattice_points_match_brute_force():
    # the indices within a row are distinct, as at every caller of lattice_points
    rng = random.Random(11)
    cases = [
        (4, [([0, 1], 0), ([1, 2, 3], 2)]),  # bound-0 row
        (3, [([0, 2], 2), ([2, 0], 1), ([0, 2], 3)]),  # repeated support
        (4, [([0, 1], 1), ([0, 1, 2], 2)]),  # nested, inner row tighter
        (4, [([0, 1], 2), ([0, 1, 2], 1)]),  # nested, outer row tighter
        (3, [([0, 1], 2), ([2], -1)]),  # negative bound
        (3, [([], 0), ([0, 2], 2)]),  # row with no coordinates
        (5, [([0, 3], 2), ([3, 4], 1)]),  # coordinates 1 and 2 on no row
        (6, [(range(6), 3)]),  # one row over every coordinate
        (0, []),
        (2, []),
        # the walk lists a repeated key's subtree by copying an earlier span of
        # its output under a new prefix; in each case below a key recurs
        (5, [([0], 1), ([2], 1), ([3, 4], 1)]),  # free coordinate 1 between walked 0 and 2
        (5, [([0], 2), ([1, 3], 2)]),  # repeat just above the last walked coordinate
        (5, [([0, 2, 3], 2), ([1, 2, 3], 1), ([4], 1)]),  # one remaining set, two slacks
        (3, [([0, 2], 1), ([1], 1)]),  # an open row that misses the next coordinate
    ]
    cases += [(dim, _random_rows(rng, dim)) for dim in (rng.randint(1, 6) for _ in range(300))]
    seen = Counter()
    for dim, rows in cases:
        supports = [frozenset(coords) for coords, _ in rows]
        seen["bound 0"] += any(b == 0 and coords for coords, b in rows)
        seen["negative"] += any(b < 0 for _, b in rows)
        seen["empty row"] += frozenset() in supports
        seen["repeated"] += len(set(supports)) < len(supports)
        seen["nested"] += any(s < t for s in supports for t in supports)
        seen["free coordinate"] += len(frozenset().union(*supports)) < dim
        expected = _points_by_brute_force(dim, rows)
        assert polytope.lattice_points(dim, rows) == expected, (dim, rows)
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


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


def test_contains_refuses_entries_that_are_not_ints():
    # a float or a bool once passed every inequality and read as a point
    for bad in (0.5, True, Fraction(1)):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r} in")):
            contains((1, 0), (bad, 0, 0, 0))


def _first_broken_by_scan(lam, s):
    """The row scan that first_broken replaced, kept as the exact reference:
    one bound and one path sum per row, stopping at the first broken row."""
    lam = validate_weight(lam)
    n = len(lam)
    s = validate_exponent(s, n)
    for path, coords, a, b in polytope._path_table(n):
        bound = sum(lam[a:b])
        if sum(map(s.__getitem__, coords)) > bound:
            return polytope.PathInequality(path, bound)
    return None


def _broken_rows(lam, s):
    """Indices of every row that s breaks, by the scan."""
    return [
        p for p, (_, coords, a, b) in enumerate(polytope._path_table(len(lam)))
        if sum(s[i] for i in coords) > sum(lam[a:b])
    ]


def _random_case(rng, n):
    """A weight and an exponent whose entries are drawn from a random subset
    of the kinds 0, small and about 10^20 (weight) and 0, small, negative and
    about +-10^30 (exponent); half the time one row is then moved to its
    bound, or one off it.  The large entries span several bit lengths, so
    the field width lands on each side of a byte boundary."""
    def entries(kinds, count):
        kinds = rng.sample(kinds, rng.randint(1, len(kinds)))
        return [rng.choice(kinds)() for _ in range(count)]

    lam = tuple(entries([lambda: 0, lambda: rng.randint(1, 3),
                         lambda: rng.randint(10**19, 10**21)], n))
    s = entries([lambda: 0, lambda: rng.randint(1, 3), lambda: rng.randint(-3, -1),
                 lambda: rng.randint(10**29, 10**32),
                 lambda: -rng.randint(10**29, 10**32)], n * n)
    if rng.random() < 0.5:
        _, coords, a, b = rng.choice(polytope._path_table(n))
        i = rng.choice(coords)
        s[i] += sum(lam[a:b]) + rng.randint(-1, 1) - sum(s[j] for j in coords)
    return lam, tuple(s)


def test_first_broken_matches_the_row_scan():
    rng = random.Random(17)
    seen = Counter()
    for n in range(1, 7):
        for _ in range(400):
            lam, s = _random_case(rng, n)
            expected = _first_broken_by_scan(lam, s)
            assert polytope.first_broken(lam, s) == expected, (lam, s)
            assert contains(lam, s) == (expected is None and min(s) >= 0)
            seen[n, expected is None] += 1
    assert len(seen) == 12 and min(seen.values()) >= 10, seen


def test_first_broken_hand_cases():
    table = polytope._path_table(3)
    # rank 1, the one row broken: its field is the lowest one
    assert polytope.first_broken((0,), (1,)) == (table[0][0], 0)
    # a negative coordinate alone breaks no row
    assert polytope.first_broken((0,), (-1,)) is None
    assert not contains((0,), (-1,))
    # n^2 * max|s_i| + sum(lambda) = 255 needs a field of 16 bits, not 8
    assert polytope.first_broken((127,), (-128,)) is None
    assert polytope.first_broken((0,), (255,)) == (table[0][0], 0)
    # exactly on a bound, then one past it
    on_bound = (0, 1, 0, 0, 0, 1, 0, 0, 0)  # row (0, 1, 5) at m_1 + m_2 = 2
    assert polytope.first_broken((1, 1, 0), on_bound) is None
    past = (0, 1, 0, 0, 0, 2, 0, 0, 0)
    assert polytope.first_broken((1, 1, 0), past) == _first_broken_by_scan((1, 1, 0), past)
    assert polytope.first_broken((1, 1, 0), past) is not None
    # the all-zero weight: only the zero exponent is inside
    assert polytope.first_broken((0, 0, 0), (0,) * 9) is None
    for i in range(9):
        e = tuple(int(j == i) for j in range(9))
        assert polytope.first_broken((0, 0, 0), e) == _first_broken_by_scan((0, 0, 0), e)
    # only the last row, (alpha_{3,3},) bounded by m_3 = 0, is broken
    last = (0,) * 8 + (1,)
    assert _broken_rows((1, 1, 0), last) == [len(table) - 1]
    assert polytope.first_broken((1, 1, 0), last) == (table[-1][0], 0)
    # rows 8, 9 and 10 are broken and the first of them is reported
    several = (0,) * 5 + (1,) + (0,) * 3
    assert _broken_rows((1, 0, 0), several) == [8, 9, 10]
    assert polytope.first_broken((1, 0, 0), several) == (table[8][0], 0)


def test_contains_reads_a_one_shot_iterable(monkeypatch):
    calls = []
    original = polytope.validate_exponent
    monkeypatch.setattr(
        polytope, "validate_exponent", lambda s, n: calls.append(n) or original(s, n)
    )
    for point, inside in (((0, 0, 2, 0), True), ((0, 0, 0, 2), False)):
        for make in (list, tuple, iter):
            assert contains((1, 1), make(point)) is inside
            assert (polytope.first_broken((1, 1), make(point)) is None) is inside
    assert calls == [2] * 12  # one validation per call


class _RowsByIndexOnly(tuple):
    """A path table that refuses iteration and counts reads by index."""
    reads = 0

    def __iter__(self):
        raise AssertionError("first_broken iterated the path table")

    def __getitem__(self, p):
        type(self).reads += 1
        return tuple.__getitem__(self, p)


def test_first_broken_reads_at_most_one_row(monkeypatch):
    lam = (1, 0, 0, 0, 0, 1)
    rng = random.Random(23)
    points = [tuple(rng.randint(0, 2) for _ in range(36)) for _ in range(50)]
    points += [(0,) * 36, (0,) * 35 + (1,)]
    expected = [_first_broken_by_scan(lam, s) for s in points]
    assert any(e is None for e in expected) and any(e is not None for e in expected)
    for s in points:
        polytope.first_broken(lam, s)  # builds the masks of every width used
    guarded = _RowsByIndexOnly(polytope._path_table(6))
    monkeypatch.setattr(polytope, "_path_table", lambda n: guarded)
    for s, e in zip(points, expected):
        before = _RowsByIndexOnly.reads
        assert polytope.first_broken(lam, s) == e
        assert _RowsByIndexOnly.reads - before == (e is not None)


def test_path_masks_stay_within_their_cache():
    maxsize = polytope._path_masks.cache_info().maxsize
    assert maxsize is not None
    for k in range(4 * maxsize):
        polytope.first_broken((1, 1), (2**k, 0, 0, 0))
        polytope.first_broken((1, 1), (-(3**k), 0, 0, 0))
    assert polytope._path_masks.cache_info().currsize <= maxsize


def test_huge_entries_build_narrow_masks(monkeypatch):
    # an entry above sum(lambda) breaks every row holding it, so it is
    # lowered before the field width is chosen; a negative one is refused
    lam = (1,) * 6
    widths = []
    original = polytope._path_masks
    monkeypatch.setattr(
        polytope, "_path_masks", lambda n, w: widths.append(w) or original(n, w)
    )
    for k in (0, 7, 35):
        s = [0] * 36
        s[k] = 10 ** 4000
        assert polytope.first_broken(lam, s) == _first_broken_by_scan(lam, s)
        assert not contains(lam, s)
    assert widths and max(widths) <= 16
    widths.clear()
    s = [0] * 36
    s[3] = -10 ** 4000
    assert not contains(lam, s)
    assert widths == []


def test_huge_negative_entries_build_narrow_masks(monkeypatch):
    # an entry far below zero satisfies every row holding it, so it is raised
    # before the field width is chosen, and the answer stays the scan's
    lam = (1, 0, 2, 0, 0, 1, 1)
    rng = random.Random(31)
    widths = []
    original = polytope._path_masks
    monkeypatch.setattr(
        polytope, "_path_masks", lambda n, w: widths.append(w) or original(n, w)
    )
    cases = []
    for k in (0, 13, 48):
        for hi in (0, 1, 3, 9):
            s = [rng.randint(0, hi) for _ in range(49)]
            s[k] = -10 ** 4000
            cases.append(s)
    cases.append([-(10 ** 4000)] * 49)
    cases.append([-(10 ** 4000), 5] + [0] * 47)
    for s in cases:
        assert polytope.first_broken(lam, s) == _first_broken_by_scan(lam, s)
    assert any(polytope.first_broken(lam, s) for s in cases)
    assert widths and max(widths) <= 64


def test_out_of_range_entries_build_no_mask(monkeypatch):
    # contains answers a negative entry, or one above sum(lambda), before it
    # reads the weight's record, so on cold caches no mask is built
    polytope._membership.cache_clear()
    polytope._path_masks.cache_clear()
    widths = []
    original = polytope._path_masks
    monkeypatch.setattr(
        polytope, "_path_masks", lambda n, w: widths.append(w) or original(n, w)
    )
    for lam in ((0,), (1, 1), (1, 0, 2)):
        n2, total = len(lam) ** 2, sum(lam)
        for k in (0, n2 - 1):
            for x in (-1, -10 ** 4000, total + 1, 10 ** 4000):
                s = [0] * n2
                s[k] = x
                assert not contains(lam, s)
    assert widths == []
    assert polytope._membership.cache_info().currsize == 0


def _weights_up_to(max_n, max_total):
    return [lam for n in range(1, max_n + 1)
            for lam in itertools.product(range(max_total + 1), repeat=n)
            if sum(lam) <= max_total]


def test_membership_record_at_the_bounds():
    # sum(lambda) * e_i lies on the record's range and (sum(lambda) + 1) * e_i
    # at its top; seeded points fill -1 .. sum(lambda) + 1
    rng = random.Random(41)
    for lam in _weights_up_to(4, 2):
        n2, total = len(lam) ** 2, sum(lam)
        cases = [tuple(x * (j == i) for j in range(n2))
                 for i in range(n2) for x in (total, total + 1)]
        cases += [tuple(rng.randint(-1, total + 1) for _ in range(n2))
                  for _ in range(20)]
        for s in cases:
            expected = _first_broken_by_scan(lam, s)
            assert polytope.first_broken(lam, s) == expected, (lam, s)
            assert contains(lam, s) == (expected is None and min(s) >= 0), (lam, s)


def test_membership_fields_are_sized_by_the_longest_path():
    # the longest row of the path table has 2n - 1 coordinates, not n^2
    assert [polytope._longest_row(n) for n in range(1, 9)] == [2 * n - 1 for n in range(1, 9)]
    # rank 6, sum(lambda) = 3: 11 * 4 + 3 = 47 fits 8-bit fields, where
    # 36 * 4 + 3 = 147 would need 16
    lam = (1, 0, 0, 0, 1, 1)
    total, n2 = sum(lam), len(lam) ** 2
    assert polytope._membership(lam)[3] == 8
    rng = random.Random(43)
    # dense points break some row almost always, sparse ones often do not
    cases = [tuple(rng.randint(-1, total + 1) if rng.random() < density else 0
                   for _ in range(n2))
             for density in (1, 0.05) for _ in range(100)]
    cases += [tuple(x * (j == i) for j in range(n2))
              for i in range(n2) for x in (-1, total, total + 1)]
    inside = 0
    for s in cases:
        expected = _first_broken_by_scan(lam, s)
        assert polytope.first_broken(lam, s) == expected, s
        assert contains(lam, s) == (expected is None and min(s) >= 0), s
        inside += contains(lam, s)
    assert 20 <= inside <= len(cases) - 100, inside


def test_membership_record_stays_within_its_cache():
    maxsize = polytope._membership.cache_info().maxsize
    assert maxsize is not None
    for k in range(2 * maxsize):
        assert contains((k, 1), (0, 0, 0, 1))
    assert polytope._membership.cache_info().currsize <= maxsize


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


def _reference_freudenthal(lam) -> dict:
    """Freudenthal's recursion over every weight, breadth first from lambda.

    The package's recursion before it ran over dominant weights only: each
    level adds one simple root to the offsets of the last, and every string
    of every positive root is summed out to the offsets that stay >= 0.
    """
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
            assert denom > 0, offset
            value = Fraction(rhs, denom)
            assert value.denominator == 1, (offset, value)
            mult[offset] = int(value)
            frontier.append(offset)
    return mult


def _reference_grid():
    for n in (1, 2, 3):
        for lam in itertools.product(range(4), repeat=n):
            if sum(lam) <= 3:
                yield lam
    for k in range(4):
        yield tuple(int(i == k) for i in range(4))
    for k in range(5):
        yield tuple(int(i == k) for i in range(5))
    yield (1, 1, 0, 1)


@pytest.mark.parametrize("lam", list(_reference_grid()), ids=str)
def test_freudenthal_matches_the_all_weights_reference(lam):
    # same table and the same order: increasing height, then offset
    got = freudenthal_multiplicities(lam)
    want = _reference_freudenthal(lam)
    assert got == want
    assert list(got.items()) == list(want.items())


def test_freudenthal_top_weight():
    mults = freudenthal_multiplicities((1, 1))
    n = 2
    assert mults[(0,) * n] == 1  # the highest weight itself


def test_cached_oracles_still_validate_every_weight():
    # (True, True) == (1, 1) with equal hashes, so the check must come first
    assert weyl_dim((1, 1)) == 16
    assert freudenthal_multiplicities((1, 1))[(0, 0)] == 1
    for lam in ((True, 1), (True, True), (1, 0.5), (1, -1)):
        for oracle in (weyl_dim, freudenthal_multiplicities):
            with pytest.raises(ValueError):
                oracle(lam)


def test_freudenthal_is_fresh_on_every_call():
    lam = (1, 0, 1)
    first = freudenthal_multiplicities(lam)
    expected = list(first.items())
    first[(0, 0, 0)] += 1
    for key in list(first)[1::2]:
        del first[key]
    first[(99, 99, 99)] = 1
    assert list(freudenthal_multiplicities(lam).items()) == expected


def test_freudenthal_is_computed_once_per_weight():
    polytope._freudenthal.cache_clear()
    lam = (2, 0, 1)
    first = freudenthal_multiplicities(lam)
    for again in (lam, lam, [2, 0, 1]):
        assert freudenthal_multiplicities(again) == first
    info = polytope._freudenthal.cache_info()
    assert (info.misses, info.hits) == (1, 3)


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


# the counting walk against the listed points, on every weight with n <= 3 and
# total <= 3, the weights of the benchmark's enumerate workload, (2,1,1,0), two
# zero-heavy weights whose walks share many tables unshifted, and weights where
# the row reduction fixes most coordinates, with the empty walk at rank 5
WALK_WEIGHTS = [
    lam
    for n in (1, 2, 3)
    for lam in itertools.product(range(4), repeat=n)
    if sum(lam) <= 3
] + [(2, 2, 2), (1, 1, 1, 1), (0, 2, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 1),
     (1, 0, 0, 0, 0, 1), (2, 1, 1, 0), (1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 2),
     (0, 1, 0, 0, 1)]


@pytest.mark.parametrize("lam", WALK_WEIGHTS, ids=str)
def test_walk_matches_listed_points(lam):
    points = enumerate_points(lam)
    table = Counter((weight_of(s, len(lam)), sum(s)) for s in points)
    assert graded_character(lam) == table
    assert max_point_degree(lam) == max(map(sum, points))
    assert point_count(lam) == len(points) == weyl_dim(lam)


def _pairwise_reduction(rows):
    """The row reduction as first written, each live set tested against every
    other: the reference for polytope._reduce."""
    if any(bound < 0 and coords for coords, bound in rows):
        return None
    zero = {i for coords, bound in rows if bound == 0 for i in coords}
    tightest = {}
    for coords, bound in rows:
        live = frozenset(coords).difference(zero)
        if live and tightest.get(live, bound) >= bound:
            tightest[live] = bound
    return [
        (live, bound) for live, bound in tightest.items()
        if not any(b <= bound and other > live for other, b in tightest.items())
    ]


REDUCE_WEIGHTS = [
    lam
    for n in range(1, 7)
    for lam in itertools.product(range(2), repeat=n)
    if sum(lam) <= 1
] + [(1, 1, 1, 1, 1), (0, 0, 0, 0, 2)]


@pytest.mark.parametrize("lam", REDUCE_WEIGHTS, ids=str)
def test_reduce_keeps_the_pairwise_rows_in_order(lam):
    rows = [(coords, sum(lam[a:b])) for _, coords, a, b in polytope._path_table(len(lam))]
    assert polytope._reduce(rows) == _pairwise_reduction(rows)


def test_reduce_refuses_a_negative_bound():
    rows = [((0, 1), 2), ((1,), -1)]
    assert polytope._reduce(rows) is None is _pairwise_reduction(rows)
    assert polytope._reduce([((), -1), ((0,), 1)]) == [(frozenset({0}), 1)]


def test_graded_character_is_fresh_on_every_call():
    # the counting walk shares its stored tables, so each result is a new dict
    for lam in ((1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0), (1, 1)):
        first = graded_character(lam)
        expected = dict(first)
        for cell in list(first):
            first[cell] += 1
        first[((99,) * len(lam), 99)] = 1
        assert graded_character(lam) == expected
        assert point_count(lam) == sum(expected.values())


def test_counts_never_list_points(monkeypatch, capsys):
    def refuse(*args):
        raise RuntimeError("listed the points")

    monkeypatch.setattr(polytope, "enumerate_points", refuse)
    monkeypatch.setattr(polytope, "lattice_points", refuse)
    lam = (1, 1, 1, 1)
    assert sum(character(lam).values()) == 65536
    assert sum(graded_character(lam).values()) == 65536
    assert max_point_degree(lam) == 10
    assert cli.main(["dim", "--n", "4", "--lambda", "1,1,1,1"]) == 0
    assert '"count": 65536' in capsys.readouterr().out


@pytest.mark.parametrize("walker", [enumerate_points, point_count, graded_character],
                         ids=lambda f: f.__name__)
def test_walkers_leave_no_reference_cycles(walker):
    # a recursive closure that keeps itself alive would hand its points or
    # its memo to the cyclic collector instead of freeing them with the call
    lam = (1, 1, 1)
    walker(lam)  # warm the per-rank caches
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        walker(lam)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
