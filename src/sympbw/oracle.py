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
from collections import Counter, defaultdict
from functools import lru_cache, partial
from math import comb, prod
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


class RepresentationSpace(NamedTuple):
    """A highest-weight module with weight and PBW-level tags per basis vector."""

    n: int
    lam: tuple
    basis_vectors: list  # raw spanning vectors, in discovery order
    weight_tags: list  # weight offset of each basis vector (simple-root coords)
    level_tags: list  # minimal number of lowering operators reaching it

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

def _close(n: int, start: dict, act, check) -> tuple:
    """Close start under act(alpha, vec) for every positive root, level by level.

    Each image is reduced once, in an untracked basis of the weight space it
    is expected in: the weight offset of its source lowered by alpha.  An
    image that enlarges that span is kept, once check(image, weight offset,
    level) has passed it.  Returns the kept vectors, start first, with their
    weight offsets and levels.
    """
    vectors, weights, levels = [start], [(0,) * n], [0]
    bases = defaultdict(IncrementalBasis)  # weight offset -> its span so far
    bases[weights[0]].add(start)
    roots = positive_roots(n)
    frontier = range(1)
    level = 0
    while frontier:
        level += 1
        for j in frontier:
            vec, weight = vectors[j], weights[j]
            for alpha in roots:
                image = act(alpha, vec)
                if not image:
                    continue
                target = _lowered(weight, alpha, n)
                if bases[target].add(image):
                    check(image, target, level)
                    vectors.append(image)
                    weights.append(target)
                    levels.append(level)
        frontier = range(frontier.stop, len(vectors))  # the vectors of this level
    return vectors, weights, levels


def _highest_vector(lam: tuple, cap: int) -> dict:
    """e_1 ^ ... ^ e_i in each factor Lambda^i, after a check that the ambient
    tensor space has at most cap dimensions."""
    n = len(lam)
    ambient = prod(comb(2 * n, i) ** m for i, m in enumerate(lam, start=1))
    if ambient > cap:
        raise ValueError(f"ambient dimension {ambient} exceeds cap {cap}")
    return {tuple(tuple(range(1, i + 1)) for i, m in enumerate(lam, start=1)
                  for _ in range(m)): 1}


def build_module(lam, cap: int = 20000) -> RepresentationSpace:
    """Close the highest vector under all lowering operators, level by level,
    checking that each new module vector has the expected weight."""
    lam = validate_weight(lam)
    n = len(lam)

    def check(vec: dict, weight: tuple, level: int) -> None:
        found = _vector_offset(lam, vec)
        if found != weight:
            raise RuntimeError(
                f"module vector of weight offset {found} where {weight} was expected"
            )

    vectors, weights, levels = _close(
        n, _highest_vector(lam, cap), partial(apply_root_vector, n), check)
    return RepresentationSpace(n, lam, vectors, weights, levels)


def pbw_filtration_dims(lam, cap: int = 20000, space: RepresentationSpace | None = None) -> dict:
    """Graded dimensions {(weight offset, level): dim} of the PBW filtration.

    A given space must be the module of lam; another raises ValueError."""
    if space is None:
        space = build_module(lam, cap)
    elif space.lam != validate_weight(lam):
        raise ValueError(f"space is the module of {space.lam}, not of {tuple(lam)}")
    return dict(Counter(zip(space.weight_tags, space.level_tags)))


def graded_action(space: RepresentationSpace) -> dict:
    """Matrices {alpha: {src: {dst: c}}} of the f_alpha on the associated graded module.

    Basis vector j of level d maps into the level d+1 slice; components of
    lower level project away in the graded quotient.  Coordinates come from
    one tracked basis per weight space, fed that weight's module vectors in
    position order, so add index k is the k-th module vector of its weight.
    """
    n = space.n
    levels = space.level_tags
    members = defaultdict(list)  # weight offset -> module positions, in order
    bases = defaultdict(lambda: IncrementalBasis(track_combinations=True))
    for j, (vec, weight) in enumerate(zip(space.basis_vectors, space.weight_tags)):
        members[weight].append(j)
        bases[weight].add(vec)
    action = {}
    for alpha in positive_roots(n):
        mat = {}
        for j, vec in enumerate(space.basis_vectors):
            image = apply_root_vector(n, alpha, vec)
            if not image:
                continue
            weight = _lowered(space.weight_tags[j], alpha, n)
            combo = bases[weight].combination(image)  # None off the module
            if combo is None:
                raise RuntimeError(f"module is not closed under lowering by {alpha}")
            column = {}
            for k, c in combo.items():
                i = members[weight][k]
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


# ---------------------------------------------------------------------------
# ordered monomials in the unfiltered module
# ---------------------------------------------------------------------------

def monomial_vector(n: int, vec: dict, s, reverse: bool = False) -> dict:
    """f^s applied to vec, factors in decreasing variable order.

    reverse=True applies the opposite order, as a witness that spanning
    ranks do not depend on the chosen order of factors.
    """
    order = sorted(positive_roots(n), key=lambda alpha: variable_key(alpha, n))
    if reverse:
        order.reverse()
    index = root_index_map(n)
    for alpha in order:  # rightmost (smallest) factor acts first
        for _ in range(s[index[alpha]]):
            vec = apply_root_vector(n, alpha, vec)
            if not vec:
                return {}
    return vec


def monomial_rank(lam, cap: int = 20000, reverse: bool = False) -> int:
    """Rank of {f^s v : s in S(lambda)} inside the tensor realization."""
    lam = validate_weight(lam)
    n = len(lam)
    highest = _highest_vector(lam, cap)
    basis = IncrementalBasis()
    for s in enumerate_points(lam):
        vec = monomial_vector(n, highest, s, reverse=reverse)
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
    act_left = graded_action(left)
    if mu == lam:  # both factors are one module
        right, act_right = left, act_left
    else:
        right = build_module(mu, cap)
        act_right = graded_action(right)

    def check(vec: dict, weight: tuple, level: int) -> None:
        for i, j in vec:
            if left.level_tags[i] + right.level_tags[j] != level:
                raise RuntimeError(f"pair {(i, j)} is not of degree {level}")
            pair = tuple(a + b for a, b in zip(left.weight_tags[i], right.weight_tags[j]))
            if pair != weight:
                raise RuntimeError(
                    f"image at degree {level} is not a weight vector of offset {weight}"
                )

    _, weights, levels = _close(
        n, {(0, 0): 1},
        lambda alpha, vec: _apply_pair(act_left[alpha], act_right[alpha], vec), check)
    return dict(Counter(zip(weights, levels)))
