"""Tensor-space realization of the simple modules and their PBW filtration.

V(lambda) is realized as the cyclic span of the highest vector inside a
tensor product of exterior powers of the standard 2n-dimensional space,
one factor Lambda^i for each unit of m_i, with highest vector
e_1 ^ ... ^ e_i in each factor.  Root vectors act through the matrix
realization, so every computation here is independent of the polytope
and straightening machinery and serves as a cross-check for both.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .linalg import IncrementalBasis, combine
from .polytope import enumerate_points
from .rootsys import (
    chevalley_realization,
    epsilon_offset,
    positive_roots,
    root_index_map,
    simple_coefficients,
    validate_weight,
    variable_key,
)


class WeightBlock(NamedTuple):
    """The tracked basis of one weight space of a module."""

    basis: IncrementalBasis
    positions: list  # per add() call: the module position it added, or None


class RepresentationSpace(NamedTuple):
    """A highest-weight module with weight and PBW-level tags per basis vector.

    ``basis`` holds one tracked basis per weight space, keyed by weight
    offset: vectors of different weights never interact, so each image is
    reduced only against the vectors of its own weight.
    """

    n: int
    lam: tuple
    slots: tuple  # exterior-power sizes of the tensor factors
    basis_vectors: list  # raw spanning vectors, in discovery order
    weight_tags: list  # weight offset of each basis vector (simple-root coords)
    level_tags: list  # minimal number of lowering operators reaching it
    basis: dict  # weight offset -> WeightBlock

    @property
    def dimension(self) -> int:
        return len(self.basis_vectors)


# ---------------------------------------------------------------------------
# lowering operators on wedge tensors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lowering_columns(n: int) -> dict:
    """Sparse columns of every f_alpha matrix: {alpha: {letter: ((letter, c), ...)}},
    each column's entries in ascending letter order."""
    realization = chevalley_realization(n)
    out = {}
    for alpha in positive_roots(n):
        cols = out[alpha] = {}
        for (b, a), c in sorted(realization.f_root(alpha).items()):
            cols[a] = cols.get(a, ()) + ((b, c),)
    return out


@lru_cache(maxsize=None)
def _slot_images(n: int, alpha, slot: tuple) -> tuple:
    """One step of f_alpha as a derivation on a single wedge factor, with signs."""
    cols = _lowering_columns(n)[alpha]
    out = []
    for p, a in enumerate(slot):
        for b, c in cols.get(a, ()):
            if b in slot:
                continue
            rest = slot[:p] + slot[p + 1:]
            pos = bisect_left(rest, b)
            sign = -1 if (p + pos) % 2 else 1
            out.append((rest[:pos] + (b,) + rest[pos:], sign * c))
    return tuple(out)


def apply_root_vector(n: int, alpha, vec: dict) -> dict:
    """Act by f_alpha as a derivation across all tensor slots of vec."""
    return combine(
        (key[:t] + (new_slot,) + key[t + 1:], coeff * c)
        for key, coeff in vec.items()
        for t, slot in enumerate(key)
        for new_slot, c in _slot_images(n, alpha, slot)
    )


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _key_epsilon(key: tuple, n: int) -> tuple:
    """Weight of a wedge-tensor basis key in orthogonal coordinates."""
    eps = [0] * n
    for slot in key:
        for a in slot:
            if a <= n:
                eps[a - 1] += 1
            else:
                eps[2 * n - a] -= 1
    return tuple(eps)


def _vector_offset(lam, vec: dict) -> tuple:
    """Weight offset of a weight vector; all keys must agree."""
    n = len(lam)
    weights = {_key_epsilon(key, n) for key in vec}
    if len(weights) != 1:
        raise ValueError(
            f"not a weight vector: its keys have weights {sorted(weights)}"
        )
    return epsilon_offset(lam, weights.pop())


def _lowered(offset: tuple, alpha, n: int) -> tuple:
    """The weight offset of f_alpha applied to a vector of weight offset `offset`."""
    return tuple(a + b for a, b in zip(offset, simple_coefficients(alpha, n)))


# ---------------------------------------------------------------------------
# module construction
# ---------------------------------------------------------------------------

def build_module(lam, cap: int = 20000) -> RepresentationSpace:
    """Close the highest vector under all lowering operators, level by level.

    Each image is added once to the basis of the weight space it lies in;
    an image that enlarges the span becomes a module vector, after a check
    that its weight is the expected one.
    """
    lam = validate_weight(lam)
    n = len(lam)
    ambient = 1
    for i, m in enumerate(lam, start=1):
        ambient *= comb(2 * n, i) ** m
    if ambient > cap:
        raise ValueError(f"ambient dimension {ambient} exceeds cap {cap}")
    slots = tuple(i for i, m in enumerate(lam, start=1) for _ in range(m))
    space = RepresentationSpace(n, lam, slots, [], [], [], {})

    def insert(vec: dict, weight: tuple, level: int) -> None:
        block = space.basis.get(weight)
        if block is None:
            block = space.basis[weight] = WeightBlock(
                IncrementalBasis(track_combinations=True), [])
        if not block.basis.add(vec):
            block.positions.append(None)
            return
        found = _vector_offset(lam, vec)
        if found != weight:
            raise RuntimeError(
                f"module vector of weight offset {found} where {weight} was expected"
            )
        block.positions.append(len(space.basis_vectors))
        space.basis_vectors.append(vec)
        space.weight_tags.append(weight)
        space.level_tags.append(level)

    insert({tuple(tuple(range(1, i + 1)) for i in slots): 1}, (0,) * n, 0)
    roots = positive_roots(n)
    frontier = range(1)
    level = 0
    while frontier:
        level += 1
        first = space.dimension
        for j in frontier:
            vec, weight = space.basis_vectors[j], space.weight_tags[j]
            for alpha in roots:
                image = apply_root_vector(n, alpha, vec)
                if image:
                    insert(image, _lowered(weight, alpha, n), level)
        frontier = range(first, space.dimension)  # the vectors of this level
    return space


def pbw_filtration_dims(lam, cap: int = 20000, space: RepresentationSpace | None = None) -> dict:
    """Graded dimensions {(weight offset, level): dim} of the PBW filtration."""
    if space is None:
        space = build_module(lam, cap)
    table = Counter()
    for offset, level in zip(space.weight_tags, space.level_tags):
        table[(offset, level)] += 1
    return dict(table)


def graded_action(lam, cap: int = 20000, space: RepresentationSpace | None = None) -> dict:
    """Matrices {alpha: {src: {dst: c}}} of the f_alpha on the associated graded module.

    Basis vector j of level d maps into the level d+1 slice; components of
    lower level project away in the graded quotient.
    """
    if space is None:
        space = build_module(lam, cap)
    n = space.n
    levels = space.level_tags
    action = {}
    for alpha in positive_roots(n):
        mat = {}
        for j, vec in enumerate(space.basis_vectors):
            image = apply_root_vector(n, alpha, vec)
            if not image:
                continue
            block = space.basis.get(_lowered(space.weight_tags[j], alpha, n))
            combo = None if block is None else block.basis.combination(image)
            if combo is None:
                raise RuntimeError(f"module is not closed under lowering by {alpha}")
            column = {}
            for add_index, c in combo.items():
                i = block.positions[add_index]
                if levels[i] > levels[j] + 1:
                    raise RuntimeError(
                        f"f_{alpha} raises level {levels[j]} to {levels[i]}"
                    )
                if levels[i] == levels[j] + 1:
                    column[i] = c
            if column:
                mat[j] = column
        action[alpha] = mat
    return action


def compose_action(outer: dict, inner: dict) -> dict:
    """Composite of two sparse action matrices (inner applied first)."""
    out = {}
    for src, mid_col in inner.items():
        column = apply_action(outer, mid_col)
        if column:
            out[src] = column
    return out


def apply_action(mat: dict, vec: dict) -> dict:
    """A sparse action matrix applied to a coordinate vector {index: c}."""
    return combine(
        (dst, c * x) for src, c in vec.items() for dst, x in mat.get(src, {}).items()
    )


# ---------------------------------------------------------------------------
# ordered monomials in the unfiltered module
# ---------------------------------------------------------------------------

def monomial_vector(space: RepresentationSpace, s, reverse: bool = False) -> dict:
    """f^s applied to the highest vector, factors in decreasing variable order.

    reverse=True applies the opposite order, as a witness that spanning
    ranks do not depend on the chosen order of factors.
    """
    n = space.n
    order = sorted(positive_roots(n), key=lambda alpha: variable_key(alpha, n))
    if reverse:
        order.reverse()
    index = root_index_map(n)
    vec = space.basis_vectors[0]
    for alpha in order:  # rightmost (smallest) factor acts first
        for _ in range(s[index[alpha]]):
            vec = apply_root_vector(n, alpha, vec)
            if not vec:
                return {}
    return vec


def monomial_rank(lam, cap: int = 20000, reverse: bool = False) -> int:
    """Rank of {f^s v : s in S(lambda)} inside the tensor realization."""
    lam = validate_weight(lam)
    space = build_module(lam, cap)
    basis = IncrementalBasis()
    for s in enumerate_points(lam):
        vec = monomial_vector(space, s, reverse=reverse)
        if vec:
            basis.add(vec)
    return basis.rank


# ---------------------------------------------------------------------------
# tensor products of graded modules
# ---------------------------------------------------------------------------

def _apply_pair(mat_left: dict, mat_right: dict, vec: dict) -> dict:
    """One lowering operator on a tensor pair: act on the left plus the right."""
    def terms():
        for (i, j), c in vec.items():
            for i2, x in mat_left.get(i, {}).items():
                yield (i2, j), c * x
            for j2, x in mat_right.get(j, {}).items():
                yield (i, j2), c * x

    return combine(terms())


def tensor_cartan_dims(lam, mu, cap: int = 20000) -> dict:
    """Graded dimensions of the cyclic span of v_lam (x) v_mu in gr V(lam) (x) gr V(mu).

    Keys are (weight offset, degree) with offsets measured from lam + mu,
    so the table is directly comparable with pbw_filtration_dims(lam + mu).
    """
    lam = validate_weight(lam)
    mu = validate_weight(mu)
    if len(lam) != len(mu):
        raise ValueError("weights live in different ranks")
    n = len(lam)
    left = build_module(lam, cap)
    right = build_module(mu, cap)
    act_left = graded_action(lam, space=left)
    act_right = graded_action(mu, space=right)

    def pair_offset(i: int, j: int) -> tuple:
        return tuple(a + b for a, b in zip(left.weight_tags[i], right.weight_tags[j]))

    basis = IncrementalBasis()
    start = {(0, 0): 1}
    basis.add(start)
    table = {((0,) * n, 0): 1}
    roots = positive_roots(n)
    frontier = [start]
    level = 0
    while frontier:
        level += 1
        grown = []
        for vec in frontier:
            for alpha in roots:
                image = _apply_pair(act_left[alpha], act_right[alpha], vec)
                if not image or not basis.add(image):
                    continue
                pairs = iter(image)
                i, j = next(pairs)
                offset = pair_offset(i, j)
                if left.level_tags[i] + right.level_tags[j] != level:
                    raise RuntimeError(f"pair {(i, j)} is not of degree {level}")
                if any(pair_offset(*p) != offset for p in pairs):
                    raise RuntimeError(
                        f"image at degree {level} is not a weight vector"
                    )
                table[offset, level] = table.get((offset, level), 0) + 1
                grown.append(image)
        frontier = grown
    return table
