"""Tests for the tensor-space realization and its filtration tables."""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from sympbw import oracle, polytope
from sympbw.grmod import base_relations
from sympbw.linalg import IncrementalBasis, combine
from sympbw.oracle import (
    build_module,
    graded_action,
    monomial_rank,
    monomial_vector,
    pbw_filtration_dims,
    tensor_cartan_dims,
)
from sympbw.polytope import graded_character, weyl_dim
from sympbw.rootsys import (
    chevalley_realization,
    epsilon_weight,
    positive_roots,
    simple_coefficients,
)


def apply_action(mat: dict, vec: dict) -> dict:
    """A sparse action matrix applied to a coordinate vector {index: c}."""
    return combine(
        (dst, c * x) for src, c in vec.items() for dst, x in mat.get(src, {}).items()
    )


def compose_action(outer: dict, inner: dict) -> dict:
    """Composite of two sparse action matrices (inner applied first)."""
    out = {}
    for src, mid_col in inner.items():
        column = apply_action(outer, mid_col)
        if column:
            out[src] = column
    return out


def _decode(layout, key: int) -> tuple:
    """The tuple of subsets, one per tensor factor, that a packed key names."""
    slots = []
    for subsets, place in zip(layout.subsets, layout.places):
        digit, key = divmod(key, place)
        slots.append(subsets[digit])
    return tuple(slots)


def _decoded(layout, vec: dict) -> dict:
    return {_decode(layout, key): c for key, c in vec.items()}


def _encode(layout, slots: tuple) -> int:
    return sum(subsets.index(slot) * place
               for subsets, slot, place in zip(layout.subsets, slots, layout.places))


def _derivation(matrix: dict, slot: tuple) -> dict:
    """f(e_a1 ^ ... ^ e_ak) = sum_p e_a1 ^ ... ^ f(e_ap) ^ ... ^ e_ak, read off
    the matrix entries {(row, col): c} with f(e_a) = sum_b matrix[b, a] e_b,
    each wedge sorted with the sign of its inversions."""
    out = {}
    for p, a in enumerate(slot):
        for (b, col), c in matrix.items():
            if col != a or b in slot[:p] + slot[p + 1:]:
                continue
            letters = slot[:p] + (b,) + slot[p + 1:]
            inversions = sum(x > y for x, y in itertools.combinations(letters, 2))
            key = (tuple(sorted(letters)),)
            out[key] = out.get(key, 0) + (-c if inversions % 2 else c)
    return {key: c for key, c in out.items() if c}


def test_root_vectors_act_by_their_matrix_columns():
    # every single-slot wedge of the letters 1..2n, under every f_alpha
    for n in (2, 3):
        real = chevalley_realization(n)
        for alpha in positive_roots(n):
            for k in range(1, 2 * n + 1):
                layout = oracle._layout(n, (k,))
                for slot in itertools.combinations(range(1, 2 * n + 1), k):
                    key = _encode(layout, (slot,))
                    image = oracle.apply_root_vector(layout, alpha, {key: 1})
                    assert _decoded(layout, image) == _derivation(
                        real.f_root(alpha), slot), (alpha, slot)


def _small_factor_sizes() -> set:
    """(n, factor sizes) of every weight with n <= 3 and sum <= 2, and of (1,1,1)."""
    out = {(3, (1, 2, 3))}
    for n in (1, 2, 3):
        for lam in itertools.product(range(3), repeat=n):
            if sum(lam) <= 2:
                out.add((n, tuple(i for i, m in enumerate(lam, 1) for _ in range(m))))
    return out


def test_packed_keys_order_as_their_subset_tuples():
    for n, sizes in sorted(_small_factor_sizes()):
        layout = oracle._layout(n, sizes)
        ambient = math.prod(layout.radices)
        decoded = [_decode(layout, key) for key in range(ambient)]
        assert decoded == sorted(decoded), sizes
        assert decoded == list(itertools.product(
            *(itertools.combinations(range(1, 2 * n + 1), i) for i in sizes))), sizes
        assert [_encode(layout, slots) for slots in decoded] == list(range(ambient))


def test_root_vectors_act_as_derivations_on_packed_keys():
    # f_alpha on a key is the sum over factors of the one-slot derivation
    for n, sizes in sorted(_small_factor_sizes()):
        layout = oracle._layout(n, sizes)
        real = chevalley_realization(n)
        for alpha in positive_roots(n):
            matrix = real.f_root(alpha)
            for key in range(math.prod(layout.radices)):
                slots = _decode(layout, key)
                expected = combine(
                    (slots[:t] + new + slots[t + 1:], c)
                    for t, slot in enumerate(slots)
                    for new, c in _derivation(matrix, slot).items())
                image = oracle.apply_root_vector(layout, alpha, {key: 1})
                assert _decoded(layout, image) == expected, (sizes, alpha, slots)


def test_module_dimensions_frozen():
    assert build_module((1, 0)).dimension == 4
    assert build_module((0, 1)).dimension == 5
    assert build_module((1, 1)).dimension == 16
    assert build_module((0, 0)).dimension == 1
    assert build_module((0, 1, 0)).dimension == 14


def test_dimensions_match_weyl():
    for lam in ((2, 0), (0, 2), (2, 1), (1, 0, 0), (0, 0, 1)):
        assert build_module(lam).dimension == weyl_dim(lam), lam


def test_trivial_weight_table():
    assert dict(pbw_filtration_dims((0, 0))) == {((0, 0), 0): 1}


def test_filtration_profile_second_fundamental():
    table = pbw_filtration_dims((0, 1))
    by_degree = {}
    for (_, deg), count in table.items():
        by_degree[deg] = by_degree.get(deg, 0) + count
    assert by_degree == {0: 1, 1: 3, 2: 1}
    # cumulative dimensions of the filtration steps
    running = list(itertools.accumulate(by_degree[d] for d in sorted(by_degree)))
    assert running == [1, 4, 5]


def test_filtration_matches_point_count():
    for lam in ((1, 0), (0, 1), (1, 1), (2, 0), (1, 0, 0), (0, 1, 0)):
        assert pbw_filtration_dims(lam) == graded_character(lam), lam


def test_graded_action_commutes():
    lam = (1, 1)
    space = build_module(lam)
    mats = graded_action(space)
    roots = positive_roots(2)
    for a in roots:
        for b in roots:
            assert compose_action(mats[a], mats[b]) == compose_action(
                mats[b], mats[a]), (a, b)


def test_graded_action_takes_the_module_alone():
    space = build_module((0, 1))
    mats = graded_action(space=space)
    assert mats == graded_action(space)
    assert {j for mat in mats.values() for j in mat} <= set(range(space.dimension))
    with pytest.raises(TypeError):  # no weight that could name another module
        graded_action((1, 0), space=space)


def test_filtration_dims_refuse_the_module_of_another_weight():
    space = build_module((0, 1))
    assert pbw_filtration_dims([0, 1], space=space) == pbw_filtration_dims((0, 1))
    for other in ((1, 0), (0, 1, 0)):
        with pytest.raises(ValueError, match="module of"):
            pbw_filtration_dims(other, space=space)


def test_graded_action_raises_level_by_one():
    # and lowers the weight by alpha: tensor_cartan_dims tags its pairs by both
    for lam in ((0, 1), (1, 1), (1, 0, 0), (0, 1, 0)):
        n = len(lam)
        space = build_module(lam)
        mats = graded_action(space)
        for alpha, mat in mats.items():
            coeffs = simple_coefficients(alpha, n)
            for src, col in mat.items():
                for dst in col:
                    assert space.level_tags[dst] == space.level_tags[src] + 1
                    assert space.weight_tags[dst] == tuple(
                        a + b for a, b in zip(space.weight_tags[src], coeffs)), (lam, alpha)


def _key_weight(key: tuple, n: int) -> tuple:
    """The weight of a wedge-tensor key: +1 at letter a <= n, -1 at 2n+1-a."""
    eps = [0] * n
    for a in itertools.chain.from_iterable(key):
        if a <= n:
            eps[a - 1] += 1
        else:
            eps[2 * n - a] -= 1
    return tuple(eps)


def _dense_coordinates(columns: list, target: dict) -> dict:
    """The exact x with sum_i x[i] * columns[i] == target, by Gauss-Jordan
    elimination over Fractions on the dense matrix [columns | target]."""
    keys = sorted({k for vec in columns for k in vec} | set(target))
    rows = [[Fraction(vec.get(k, 0)) for vec in columns] + [Fraction(target.get(k, 0))]
            for k in keys]
    d = len(columns)
    for c in range(d):
        p = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[c])]
    assert not any(row[d] for row in rows[d:]), "target outside the span"
    return {i: rows[i][d] for i in range(d) if rows[i][d]}


def test_graded_action_matches_a_dense_solve():
    # each image solved over the module vectors by plain elimination; vectors
    # of another weight share no key with the image, so they are left out
    for lam in ((1, 1), (2, 1), (0, 1, 1)):
        n = len(lam)
        space = build_module(lam)
        vectors, levels = space.basis_vectors, space.level_tags
        weight_of = [_key_weight(_decode(space.layout, next(iter(vec))), n)
                     for vec in vectors]
        expected = {}
        for alpha in positive_roots(n):
            mat = expected[alpha] = {}
            for j, vec in enumerate(vectors):
                image = oracle.apply_root_vector(space.layout, alpha, vec)
                if not image:
                    continue
                weight = _key_weight(_decode(space.layout, next(iter(image))), n)
                same = [i for i in range(len(vectors)) if weight_of[i] == weight]
                coords = _dense_coordinates([vectors[i] for i in same], image)
                column = {same[k]: c for k, c in coords.items()
                          if levels[same[k]] == levels[j] + 1}
                if column:
                    mat[j] = column
        assert graded_action(space) == expected, lam


def test_base_relation_powers_annihilate_highest_vector():
    for lam in ((1, 0), (0, 1), (1, 1)):
        n = len(lam)
        space = build_module(lam)
        mats = graded_action(space)
        roots = positive_roots(n)
        for rel in base_relations(lam):
            (s, _), = rel.terms.items()
            vec = {0: Fraction(1)}
            for i, e in enumerate(s):
                for _ in range(e):
                    vec = apply_action(mats[roots[i]], vec)
            assert not vec, (lam, s)


def test_lowering_check_passes_on_every_small_layout():
    for n, sizes in sorted(_small_factor_sizes()):
        oracle._check_lowering(oracle._layout(n, sizes))


def _refuse_images(monkeypatch):
    def refuse(layout, alpha, vec):
        raise AssertionError("an image was computed")

    monkeypatch.setattr(oracle, "apply_root_vector", refuse)


def test_lowering_check_refuses_a_redirected_image(monkeypatch):
    # f_alpha_1 takes e_1 (digit 0) to e_2 (digit 1); sent to e_3 (digit 2)
    # instead, its image has weight -e_2 where e_2 was expected
    layout = oracle._layout(2, (1,))
    alpha_1 = next(root for root in positive_roots(2)
                   if simple_coefficients(root, 2) == (1, 0))
    (place, radix, images), = layout.lowering[alpha_1]
    assert images[0] == ((place, 1),)
    redirected = {**layout.lowering,
                  alpha_1: ((place, radix, (((2 * place, 1),),) + images[1:]),)}
    bad = layout._replace(lowering=redirected)
    with pytest.raises(RuntimeError, match=r"takes digit 0 of weight \(1, 0\) to weight "
                                           r"\(0, -1\) where \(0, 1\) was expected"):
        oracle._check_lowering(bad)
    monkeypatch.setattr(oracle, "_layout", lambda n, sizes: bad)
    _refuse_images(monkeypatch)
    with pytest.raises(RuntimeError, match="f_.* takes digit .* was expected"):
        build_module((1, 0))


def test_weight_blocks_match_the_character():
    for lam in ((1, 1, 1), (0, 1, 1)):
        space = build_module(lam)
        assert Counter(space.weight_tags) == polytope.character(lam), lam
        for vec, weight in zip(space.basis_vectors, space.weight_tags):
            assert {_key_weight(_decode(space.layout, key), len(lam))
                    for key in vec} == {epsilon_weight(lam, weight)}, (lam, weight)
        assert all(type(x) is int
                   for vec in space.basis_vectors for x in vec.values()), lam


def test_build_module_reduces_each_image_once(monkeypatch):
    def refuse(self, vec):
        raise AssertionError("build_module called contains")

    monkeypatch.setattr(IncrementalBasis, "contains", refuse)
    assert build_module((0, 1, 1)).dimension == weyl_dim((0, 1, 1))


def test_build_module_checks_the_expected_weight(monkeypatch):
    # every image expected at the top weight: the layout check refuses the
    # first digit image before any image of a vector is computed
    monkeypatch.setattr(oracle, "simple_coefficients", lambda alpha, n: (0,) * n)
    _refuse_images(monkeypatch)
    with pytest.raises(RuntimeError, match="f_.* takes digit .* was expected"):
        build_module((1, 0))


def test_build_module_checks_the_weight_of_each_kept_vector(monkeypatch):
    # f_alpha_1 and f_(alpha_1 + alpha_2) trade their weight shifts, so the
    # first image would land in the empty block of the other root: the layout
    # check must refuse the shift before any image is computed
    alpha_1, alpha_12 = (root for root in positive_roots(2)
                         if simple_coefficients(root, 2) in ((1, 0), (1, 1)))
    swap = {alpha_1: alpha_12, alpha_12: alpha_1}
    monkeypatch.setattr(oracle, "simple_coefficients",
                        lambda alpha, n: simple_coefficients(swap.get(alpha, alpha), n))
    _refuse_images(monkeypatch)
    with pytest.raises(RuntimeError, match="f_.* takes digit .* was expected"):
        build_module((1, 0))


def _faulty_tables(lam) -> list:
    """(fault, table) for every weight of lam: one more, one fewer, dropped."""
    true = polytope.freudenthal_multiplicities(lam)
    out = []
    for weight, m in true.items():
        out.append(("large", {**true, weight: m + 1}))
        out.append(("small", {**true, weight: m - 1}))
        out.append(("dropped", {w: x for w, x in true.items() if w != weight}))
    return out


@pytest.mark.parametrize("lam", [(1, 1), (0, 1, 0)])
def test_build_module_refuses_a_wrong_multiplicity_table(monkeypatch, lam):
    faults = Counter()
    for fault, table in _faulty_tables(lam):
        monkeypatch.setattr(oracle, "freudenthal_multiplicities", lambda lam, t=table: t)
        with pytest.raises(RuntimeError, match="was expected"):
            build_module(lam)
        faults[fault] += 1
    blocks = len(polytope.freudenthal_multiplicities(lam))
    assert faults == {"large": blocks, "small": blocks, "dropped": blocks}


def test_a_short_leaf_block_is_caught_by_the_weyl_dimension(monkeypatch):
    # the lowest weight has no block below it, so a table one short there
    # passes every block comparison; only the total can refuse it
    table = dict(polytope.freudenthal_multiplicities((1, 1)))
    lowest = list(table)[-1]
    table[lowest] -= 1
    monkeypatch.setattr(oracle, "freudenthal_multiplicities", lambda lam: table)
    with pytest.raises(RuntimeError, match="module holds 15 vectors where the Weyl "
                                           "dimension 16 was expected"):
        build_module((1, 1))


def _unbounded_closure(lam) -> tuple:
    """The greedy module closure: every f_alpha applied to every kept vector,
    with no bound on weight blocks and no restriction to essential pairs;
    every image is computed and reduced.  Returns (vectors, weight offsets,
    levels)."""
    n = len(lam)
    layout = oracle._checked_layout(lam, 20000)
    vectors, weights, levels = [{0: 1}], [(0,) * n], [0]
    bases = defaultdict(IncrementalBasis)
    bases[weights[0]].add(vectors[0])
    frontier = range(1)
    level = 0
    while frontier:
        level += 1
        for j in frontier:
            vec, weight = vectors[j], weights[j]
            for alpha in positive_roots(n):
                image = oracle.apply_root_vector(layout, alpha, vec)
                if not image:
                    continue
                target = tuple(a + b for a, b in zip(weight, simple_coefficients(alpha, n)))
                if bases[target].add(image):
                    vectors.append(image)
                    weights.append(target)
                    levels.append(level)
        frontier = range(frontier.stop, len(vectors))
    return vectors, weights, levels


EXACTNESS_WEIGHTS = [
    lam for n in (1, 2, 3) for lam in itertools.product(range(3), repeat=n) if sum(lam) <= 2
] + [(1, 1, 1), (0, 0, 1, 1), (1, 0, 0, 1), (0, 0, 0, 2)]


def _level_blocks(weights, levels) -> dict:
    """{weight offset: {level: positions of that weight and level}}."""
    out = defaultdict(lambda: defaultdict(list))
    for k, (weight, level) in enumerate(zip(weights, levels)):
        out[weight][level].append(k)
    return out


@pytest.mark.parametrize("lam", EXACTNESS_WEIGHTS)
def test_bounded_closure_equals_the_unbounded_one(lam):
    # every step of the filtration, weight by weight: the kept vectors of
    # weight mu and level <= d span what the greedy closure's vectors of
    # weight mu and level <= d span, which certifies every level tag
    space = build_module(lam)
    vectors, weights, levels = _unbounded_closure(lam)
    assert len(space.basis_vectors) == len(vectors) == weyl_dim(lam)
    kept = _level_blocks(space.weight_tags, space.level_tags)
    greedy = _level_blocks(weights, levels)
    assert kept.keys() == greedy.keys(), lam
    for weight in greedy:
        ours, theirs = IncrementalBasis(), IncrementalBasis()
        for d in range(max([*kept[weight], *greedy[weight]]) + 1):
            for k in kept[weight].get(d, ()):
                assert ours.add(space.basis_vectors[k]), (lam, weight, d)
            for k in greedy[weight].get(d, ()):
                theirs.add(vectors[k])
            assert ours.rank == theirs.rank, (lam, weight, d)
            assert all(theirs.contains(space.basis_vectors[k])
                       for k in kept[weight].get(d, ())), (lam, weight, d)


ESSENTIAL_WEIGHTS = [
    lam for n in (1, 2, 3, 4) for lam in itertools.product(range(3), repeat=n) if sum(lam) <= 2
] + [(1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)]


@pytest.mark.parametrize("lam", ESSENTIAL_WEIGHTS)
def test_kept_exponents_are_the_polytope_points(lam):
    # the essential exponents of the paper's order are S(lambda)
    exponents = build_module(lam).exponents
    assert all(polytope.contains(lam, s) for s in exponents), lam
    assert len(exponents) == polytope.point_count(lam), lam
    assert set(exponents) == set(polytope.enumerate_points(lam)), lam


def test_kept_vectors_are_their_monomials():
    # vector k is f_alpha of the vector of exponents[k] - e_alpha, alpha the
    # outermost variable: the ordered monomial f^s v_lambda, largest factor last
    space = build_module((1, 1, 1))
    for vec, s in zip(space.basis_vectors, space.exponents):
        assert monomial_vector(space.layout, {0: 1}, s) == vec, s


def _greedy_tensor_closure(lam, mu) -> dict:
    """tensor_cartan_dims by the closure that applies every f_alpha to every
    kept pair vector and keeps each image that enlarges its weight's span."""
    n = len(lam)
    left, right = build_module(lam), build_module(mu)
    act_left, act_right = graded_action(left), graded_action(right)
    vectors, weights, levels = [{0: 1}], [(0,) * n], [0]
    bases = defaultdict(IncrementalBasis)
    bases[weights[0]].add(vectors[0])
    for j, vec in enumerate(vectors):  # grows while it is read
        for alpha in positive_roots(n):
            image = oracle._apply_pair(act_left[alpha], act_right[alpha], right.dimension, vec)
            target = tuple(a + b for a, b in zip(weights[j], simple_coefficients(alpha, n)))
            if image and bases[target].add(image):
                vectors.append(image)
                weights.append(target)
                levels.append(levels[j] + 1)
    return dict(Counter(zip(weights, levels)))


@pytest.mark.parametrize("lam, mu", [
    *itertools.product([(1, 0), (0, 1)], repeat=2),
    ((1, 0, 0), (1, 0, 0)),
])
def test_tensor_closure_equals_the_greedy_one(lam, mu):
    assert tensor_cartan_dims(lam, mu) == _greedy_tensor_closure(lam, mu)


def _count_images(monkeypatch) -> Counter:
    calls = Counter()
    original = oracle.apply_root_vector

    def counted(layout, alpha, vec):
        calls["apply"] += 1
        return original(layout, alpha, vec)

    monkeypatch.setattr(oracle, "apply_root_vector", counted)
    return calls


def test_full_blocks_spare_root_vector_calls(monkeypatch):
    calls = _count_images(monkeypatch)
    assert build_module((1, 1, 1)).dimension == 512
    # 1709 calls image every kept vector under every root, bounded blocks aside
    assert calls["apply"] < 1709


def test_graded_action_reads_kept_images_without_computing_them(monkeypatch):
    space = build_module((1, 1, 1))
    calls = _count_images(monkeypatch)
    graded_action(space)
    kept = set(space.exponents)
    unkept = sum(s[:r] + (s[r] + 1,) + s[r + 1:] not in kept
                 for s in space.exponents for r in range(len(s)))
    assert unkept == 4608 - 1702  # 512 vectors x 9 roots, less the pairs read as units
    # one image per distinct unkept s + e_alpha: pairs that share it share a column
    distinct = {s[:r] + (s[r] + 1,) + s[r + 1:]
                for s in space.exponents for r in range(len(s))} - kept
    assert len(distinct) == 1649
    assert calls["apply"] == len(distinct)


def _solved_pairs(space) -> list:
    """(source, alpha, target) for each entry of a column of graded_action
    whose s + e_alpha is not kept, so that the column was solved."""
    kept = set(space.exponents)
    out = []
    for r, (alpha, mat) in enumerate(graded_action(space).items()):
        for j, column in mat.items():
            s = space.exponents[j]
            if s[:r] + (s[r] + 1,) + s[r + 1:] not in kept:
                out += [(j, alpha, i) for i in column]
    return out


def test_graded_action_refuses_a_module_that_is_not_closed():
    # a solved column's target replaced by a copy of another vector of its
    # weight: the block loses that direction, and the image leaves the span
    space = build_module((1, 1))
    weights = space.weight_tags
    _, _, i = next((j, alpha, i) for j, alpha, i in _solved_pairs(space)
                   if weights.count(weights[i]) > 1)
    other = next(k for k, w in enumerate(weights) if w == weights[i] and k != i)
    vectors = list(space.basis_vectors)
    vectors[i] = dict(vectors[other])
    with pytest.raises(RuntimeError, match="not closed under lowering"):
        graded_action(space._replace(basis_vectors=vectors))


def test_graded_action_refuses_a_level_jump():
    # a solved column's target tagged two levels too high
    space = build_module((1, 1))
    pairs = _solved_pairs(space)
    assert pairs
    _, _, i = pairs[0]
    levels = list(space.level_tags)
    levels[i] += 2
    with pytest.raises(RuntimeError, match="raises level"):
        graded_action(space._replace(level_tags=levels))


def test_monomial_vectors_span():
    for lam in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        dim = build_module(lam).dimension
        assert monomial_rank(lam) == dim, lam
        assert monomial_rank(lam, reverse=True) == dim, lam


def test_monomial_vector_of_zero_exponent_is_highest():
    space = build_module((1, 1))
    highest = space.basis_vectors[0]
    # one L^1 slot holding letter 1 and one L^2 slot holding letters 1, 2
    assert _decoded(space.layout, highest) == {((1,), (1, 2)): 1}
    assert highest == {0: 1}
    assert monomial_vector(space.layout, highest, (0, 0, 0, 0)) == highest


def test_monomial_rank_builds_only_the_highest_vector(monkeypatch):
    def refuse(lam, cap=20000):
        raise AssertionError("monomial_rank built the module")

    monkeypatch.setattr(oracle, "build_module", refuse)
    assert monomial_rank((1, 1)) == weyl_dim((1, 1))
    with pytest.raises(ValueError, match="ambient dimension 4 exceeds cap 2"):
        monomial_rank((1, 0), cap=2)


def test_tensor_table_totals():
    table = tensor_cartan_dims((1, 0), (1, 0))
    assert sum(table.values()) == weyl_dim((2, 0))
    assert all(count > 0 for count in table.values())


def test_tensor_with_trivial_factor():
    lam = (1, 1)
    assert tensor_cartan_dims(lam, (0, 0)) == pbw_filtration_dims(lam)
    assert tensor_cartan_dims((0, 0), lam) == pbw_filtration_dims(lam)


@pytest.mark.parametrize("lam, mu, builds", [
    ((1, 0, 0), (1, 0, 0), 1),
    ((1, 0), (0, 1), 2),
])
def test_tensor_builds_each_distinct_factor_once(monkeypatch, lam, mu, builds):
    calls = []
    original = oracle.build_module
    monkeypatch.setattr(
        oracle, "build_module", lambda *args: calls.append(args) or original(*args)
    )
    table = tensor_cartan_dims(lam, mu)
    assert len(calls) == builds
    assert sum(table.values()) == weyl_dim(tuple(a + b for a, b in zip(lam, mu)))


def test_tensor_rank_mismatch():
    with pytest.raises(ValueError):
        tensor_cartan_dims((1, 0), (1, 0, 0))


def test_cap_guards_ambient_size():
    with pytest.raises(ValueError):
        build_module((1, 0), cap=2)


def test_cap_must_be_an_int_of_at_least_one():
    # True and 2.5 used to pass the size comparison, "9" and None died in it
    for bad in (True, False, 2.5, "9", None, 0, -3):
        for build in (build_module, monomial_rank):
            with pytest.raises(ValueError, match="cap must be an int >= 1"):
                build((1, 0), cap=bad)
        with pytest.raises(ValueError, match="cap must be an int >= 1"):
            tensor_cartan_dims((1, 0), (0, 1), cap=bad)
    assert build_module((1, 0), cap=4).dimension == 4


def test_cap_is_checked_before_the_layout_is_built(monkeypatch):
    def refuse(n, sizes):
        raise AssertionError("layout built before the cap check")

    monkeypatch.setattr(oracle, "_layout", refuse)
    with pytest.raises(ValueError, match="ambient dimension 1800 exceeds cap 100"):
        build_module((1, 1, 1), cap=100)
    with pytest.raises(ValueError, match="ambient dimension 1800 exceeds cap 100"):
        monomial_rank((1, 1, 1), cap=100)
