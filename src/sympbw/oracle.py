"""Tensor-space realization of the simple modules and their PBW filtration.

V(lambda) is realized as the cyclic span of the highest vector inside a
tensor product of exterior powers of the standard 2n-dimensional space,
one factor Lambda^i for each unit of m_i, with highest vector
e_1 ^ ... ^ e_i in each factor.  Root vectors act through the matrix
realization, so every computation here is independent of the polytope
and straightening machinery and serves as a cross-check for both.

A basis vector of the tensor space is one int key.  Factor t, a Lambda^i,
has one digit: the index of its i-subset of {1..2n} in lexicographic
(``itertools.combinations``) order.  The key is the big-endian mixed-radix
int of the digits, so the highest vector is key 0, and keys compare exactly
as the tuples of their subsets do.  The pivot of a row, its smallest key, is
therefore the same as with tuple keys, and with it the discovery order and
every position in the graded action.  A ``WedgeLayout``, cached per rank and
factor sizes, holds the radices and, for each f_alpha and factor, the images
of every digit as (key delta, coefficient) pairs.  A pair of graded-module
positions (i, j) in a tensor product of two modules is packed the same way as
a key, as i * dim(right) + j.

The module closure runs over essential monomials (Feigin, Fourier and
Littelmann's favourable modules).  Read the exponents s latest-first in the
straightening order of ``order_key``, which is homogeneous and
multiplicative, and call s of degree d essential when f^s v_lambda lies
outside F_{d-1} plus the span of the f^t v_lambda, |t| = d, read before s.
The essential s index a basis of gr V(lambda); for this order the paper's
theorem amounts to their being S(lambda).  A divisor of an essential s is
essential, so s is t + e_alpha with t essential of degree d - 1 and alpha
the outermost variable of s, and only those pairs (t, alpha) are imaged.
Every kept vector is therefore f_alpha of an earlier kept vector, the
ordered monomial f^s v_lambda, tagged with its exponent s; its level is |s|.
The closure also stops each weight block mu at the multiplicity m(mu) from
Freudenthal's recursion: V(lambda) has no more, so an image into a full
block lies in its span and is skipped before it is computed.

Each part of the result is certified apart.  The weights: ``build_module``
first checks the layout against the weight shifts that tag the closure:
every image of every digit under f_alpha has the digit's weight lowered by
alpha.  Key 0 has weight lambda and an image key differs from its source in
one digit, so every kept vector is a weight vector of exactly its tag, with
no check per vector.  Completeness: it then certifies that every block holds
exactly its table entry and that the total is Weyl's dimension.  The kept
vectors of a block are independent vectors of V(lambda) of that weight, so
no block exceeds its true multiplicity; blocks that match the table and sum
to the true dimension therefore match the true multiplicities, which makes
the table exact and the closure complete.  Any wrong table, too large, too
small or missing a weight, raises RuntimeError.  The levels: a vector kept
at level d is a product of d lowering operators on v_lambda, so it lies in
F_d; that it lies outside F_{d-1} rests on the essential-monomial theorem.
``graded_action`` certifies the level tags whenever it runs: S(n^-) is
commutative, so it takes the column of s and alpha as the kept vector of
s + e_alpha whenever that is kept, for every alpha, and solves the rest once
per s + e_alpha, since pairs with equal s + e_alpha have equal classes in
gr V(lambda); it raises on a level jump above one.  By induction on d the
kept vectors of level <= d then span F_d, so the tags are the true
filtration.  The solve stays in ints: module vector j enters its weight's
basis tagged with the key ambient + j, and a column is read off the
residual of the image (``IncrementalBasis.combination``).
The tensor-product closure of ``tensor_cartan_dims`` is the same closure on
the commuting graded action, without a bound: its block sizes are what the
``tensor-cartan`` check compares with the module of lambda + mu, and
bounding them by that module's multiplicities would assume the result.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from functools import lru_cache, partial
from itertools import combinations
from math import comb, prod
from operator import add
from typing import NamedTuple

from .linalg import IncrementalBasis, combine
from .polytope import enumerate_points, freudenthal_multiplicities, weyl_dim
from .rootsys import (
    chevalley_realization,
    epsilon_weight,
    order_key,
    positive_roots,
    simple_coefficients,
    validate_weight,
)


class WedgeLayout(NamedTuple):
    """Packed int keys of one tensor product of exterior powers Lambda^i.

    The digit of factor t is the index of its subset in subsets[t], and a key
    is the big-endian mixed-radix int of the digits: sum of digit * place.
    """

    n: int
    subsets: tuple  # per factor: its subsets of {1..2n}, in lexicographic order
    radices: tuple  # per factor: how many subsets it has
    places: tuple  # per factor: the key value of one unit of its digit
    lowering: dict  # alpha -> per factor: (place, radix, per digit ((delta, c), ...))


class RepresentationSpace(NamedTuple):
    """A highest-weight module with weight and PBW-level tags per basis vector."""

    n: int
    lam: tuple
    basis_vectors: list  # raw spanning vectors, in discovery order
    weight_tags: list  # weight offset of each basis vector (simple-root coords)
    level_tags: list  # the degree of its exponent: fewest lowering operators reaching it
    layout: WedgeLayout  # the keys of basis_vectors
    exponents: list  # the essential exponent s of each basis vector: f^s v_lambda

    @property
    def dimension(self) -> int:
        return len(self.basis_vectors)


# ---------------------------------------------------------------------------
# lowering operators on wedge tensors
# ---------------------------------------------------------------------------

def _slot_images(n: int, alpha, slot: tuple) -> tuple:
    """One step of f_alpha as a derivation on a single wedge factor, with
    signs, read off the realization's entries (b, a): c, e_a to c * e_b."""
    out = []
    for (b, a), c in chevalley_realization(n).f_root(alpha).items():
        if a not in slot or b in slot:
            continue
        p = slot.index(a)
        rest = slot[:p] + slot[p + 1:]
        pos = bisect_left(rest, b)
        sign = -1 if (p + pos) % 2 else 1
        out.append((rest[:pos] + (b,) + rest[pos:], sign * c))
    return tuple(out)


def _slot_epsilon(slot: tuple, n: int) -> tuple:
    """Weight of a wedge of letters in orthogonal coordinates: +1 at letter
    a <= n, -1 at 2n+1-a."""
    eps = [0] * n
    for a in slot:
        if a <= n:
            eps[a - 1] += 1
        else:
            eps[2 * n - a] -= 1
    return tuple(eps)


@lru_cache(maxsize=None)
def _layout(n: int, sizes: tuple) -> WedgeLayout:
    """The packed keys of the tensor product of Lambda^i, i in sizes, with
    f_alpha's images of each digit as key deltas."""
    radices = tuple(comb(2 * n, i) for i in sizes)
    places = tuple(prod(radices[t + 1:]) for t in range(len(sizes)))
    subsets = tuple(tuple(combinations(range(1, 2 * n + 1), i)) for i in sizes)

    def images(alpha, subs: tuple, place: int) -> tuple:
        index = {slot: d for d, slot in enumerate(subs)}
        return tuple(
            tuple(((index[new] - d) * place, c) for new, c in _slot_images(n, alpha, slot))
            for d, slot in enumerate(subs))

    lowering = {
        alpha: tuple((place, radix, images(alpha, subs, place))
                     for subs, place, radix in zip(subsets, places, radices))
        for alpha in positive_roots(n)
    }
    return WedgeLayout(n, subsets, radices, places, lowering)


def apply_root_vector(layout: WedgeLayout, alpha, vec: dict) -> dict:
    """Act by f_alpha as a derivation across all tensor factors of vec."""
    return combine(
        (key + delta, coeff * c)
        for key, coeff in vec.items()
        for place, radix, images in layout.lowering[alpha]
        for delta, c in images[key // place % radix]
    )


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _lowering_steps(n: int) -> list:
    """(alpha, its simple-root coefficients) for every positive root: the
    weight offset that f_alpha adds."""
    return [(alpha, simple_coefficients(alpha, n)) for alpha in positive_roots(n)]


def _check_lowering(layout: WedgeLayout) -> None:
    """RuntimeError unless f_alpha takes every digit of every factor to digits
    of the digit's weight lowered by alpha, alpha's shift read from the
    _lowering_steps table that tags the closure."""
    n = layout.n
    eps = [[_slot_epsilon(slot, n) for slot in subs] for subs in layout.subsets]
    for alpha, coeffs in _lowering_steps(n):
        shift = epsilon_weight((0,) * n, coeffs)  # -alpha in orthogonal coordinates
        for digit_eps, (place, radix, images) in zip(eps, layout.lowering[alpha]):
            for d, pairs in enumerate(images):
                expected = tuple(map(add, digit_eps[d], shift))
                for delta, _ in pairs:
                    image = d + delta // place
                    found = digit_eps[image] if 0 <= image < radix else None
                    if found != expected:
                        raise RuntimeError(
                            f"f_{alpha} takes digit {d} of weight {digit_eps[d]} to "
                            f"weight {found} where {expected} was expected"
                        )


# ---------------------------------------------------------------------------
# module construction
# ---------------------------------------------------------------------------

def _close(n: int, start: dict, act, bound: dict | None = None) -> tuple:
    """Close start under act(alpha, vec) over its essential monomials, level by level.

    F_d is the span of the products of at most d operators act(alpha, .)
    applied to start.  Their action on the associated graded module
    commutes, and ``order_key`` is homogeneous and multiplicative.  Call s
    of degree d essential when f^s start lies outside F_{d-1} plus the span
    of the f^t start, |t| = d, that come later in that order.  A relation
    for t multiplies by f^u into one for t + u, so the divisors of an
    essential s are essential, and s is t + e_alpha with t essential of
    degree d - 1 and alpha the outermost variable of s.  Level d therefore
    takes as candidates only the pairs (t, alpha) with t kept at level
    d - 1 and alpha at or after t's outermost variable: each pair names a
    distinct exponent.  The candidates of one target weight are reduced latest-first
    by order_key, each once, into a basis of that weight: the
    weight offset of its source lowered by alpha.  The kept vectors of lower
    levels span F_{d-1} there, so an image that enlarges the span is the
    next essential s; it is kept and tagged with s, of degree d, and that
    offset.  That it has that weight is for the caller to certify, once, on the
    operators behind act.  With a bound {weight offset: size}, a candidate
    whose target block already holds bound[target] vectors (0 for a target
    missing from it) is skipped before act is called.  Returns the kept
    vectors, start first, with their exponents and weight offsets.
    """
    steps = _lowering_steps(n)
    vectors, exponents, weights = [start], [(0,) * len(steps)], [(0,) * n]
    bases = defaultdict(IncrementalBasis)  # weight offset -> its span so far
    bases[weights[0]].add(start)

    def full(target) -> bool:
        basis = bases.get(target)
        return bound is not None and (basis.rank if basis else 0) >= bound.get(target, 0)

    frontier = range(1)
    while frontier:
        blocks = defaultdict(list)  # target weight -> [(exponent, source, root index)]
        for j in frontier:
            t, weight = exponents[j], weights[j]
            outermost = max((r for r, x in enumerate(t) if x), default=0)  # 0 for t = 0
            for i in range(outermost, len(steps)):
                target = tuple(map(add, weight, steps[i][1]))
                if not full(target):
                    blocks[target].append((t[:i] + (t[i] + 1,) + t[i + 1:], j, i))
        for target, candidates in blocks.items():
            if len(candidates) > 1:
                candidates.sort(key=lambda c: order_key(c[0], n), reverse=True)
            for s, j, i in candidates:
                if full(target):
                    break
                image = act(steps[i][0], vectors[j])
                if image and bases[target].add(image):
                    vectors.append(image)
                    exponents.append(s)
                    weights.append(target)
        frontier = range(frontier.stop, len(vectors))  # the vectors of this level
    return vectors, exponents, weights


def _checked_layout(lam: tuple, cap: int) -> WedgeLayout:
    """The layout of lam's tensor space, one factor Lambda^i for each unit of
    m_i, built after a check that the space has at most cap dimensions.  Its
    highest vector, e_1 ^ ... ^ e_i in each factor, is every digit 0: key 0."""
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be an int >= 1, got {cap!r}")
    n = len(lam)
    ambient = prod(comb(2 * n, i) ** m for i, m in enumerate(lam, start=1))
    if ambient > cap:
        raise ValueError(f"ambient dimension {ambient} exceeds cap {cap}")
    return _layout(n, tuple(i for i, m in enumerate(lam, start=1) for _ in range(m)))


def build_module(lam, cap: int = 20000) -> RepresentationSpace:
    """Close the highest vector over its essential monomials, level by level.

    The layout is checked first: every f_alpha image of every digit must
    have the digit's weight lowered by alpha, or RuntimeError.  The highest
    vector, key 0, has weight lambda and every image key differs from its
    source in one digit, so every kept vector is a weight vector of its tag.
    The closure (_close) images only the pairs (t, alpha) that can give an
    essential exponent, and stops weight block mu at m(mu) vectors, the
    multiplicity that freudenthal_multiplicities gives: V(lambda) has no
    more, so every later image into the block lies in its span and is
    neither computed nor reduced.  The result is then certified without
    trusting the table: RuntimeError unless every block holds exactly its
    table entry and the total is weyl_dim(lam).  No block can exceed its
    true multiplicity, so the two together prove the table exact and the
    closure complete.  The level tags are the exponents' degrees; they rest
    on the essential-monomial theorem, and graded_action certifies them.
    """
    lam = validate_weight(lam)
    n = len(lam)
    layout = _checked_layout(lam, cap)
    _check_lowering(layout)
    table = freudenthal_multiplicities(lam)
    vectors, exponents, weights = _close(
        n, {0: 1}, partial(apply_root_vector, layout), table)
    blocks = Counter(weights)
    for weight in dict.fromkeys([*table, *blocks]):
        found, expected = blocks[weight], table.get(weight, 0)
        if found != expected:
            raise RuntimeError(
                f"weight block {weight} holds {found} vectors where {expected} was expected"
            )
    dim = weyl_dim(lam)
    if len(vectors) != dim:
        raise RuntimeError(
            f"module holds {len(vectors)} vectors where the Weyl dimension {dim} was expected"
        )
    levels = [sum(s) for s in exponents]
    return RepresentationSpace(n, lam, vectors, weights, levels, layout, exponents)


def pbw_filtration_dims(lam, *, space: RepresentationSpace | None = None) -> dict:
    """Graded dimensions {(weight offset, level): dim} of the PBW filtration.

    Without a space the module is built at build_module's default cap; for
    another cap build it with build_module(lam, cap) and pass it as space=.
    A given space must be the module of lam; another raises ValueError."""
    if space is None:
        space = build_module(lam)
    elif space.lam != validate_weight(lam):
        raise ValueError(f"space is the module of {space.lam}, not of {tuple(lam)}")
    return dict(Counter(zip(space.weight_tags, space.level_tags)))


def graded_action(space: RepresentationSpace) -> dict:
    """Matrices {alpha: {src: {dst: c}}} of the f_alpha on the associated graded module.

    Basis vector j of level d maps into the level d+1 slice; components of
    lower level project away in the graded quotient.  Vector j is the
    ordered monomial f^s v_lambda, s = exponents[j], and the column of
    (s, alpha) is read by u = s + e_alpha.  When u is kept as exponents[k]
    the column is {k: 1} with no image computed.  Otherwise it is solved
    once per u, and every pair with that u shares the one column dict, so
    a caller must not mutate it.  The solve reads one basis per weight
    space, fed that weight's module vectors j tagged with the key
    ambient + j, above every tensor key (IncrementalBasis.combination); an
    image off the module, or with a component of level above d + 1, raises
    RuntimeError.

    Certificate: f_alpha f^s v - f^{s+e_alpha} v lies in F_{|s|}, because
    reordering an ordered product adds only commutator terms with fewer
    factors; so pairs with equal s + e_alpha differ by an element of
    F_{|s|} and have equal classes in gr V(lambda).  Induction on d: if the
    kept vectors of level <= d span F_d, every unit pair lands in the span
    of the kept vectors of level <= d + 1, and every solved pair does too,
    by the level-jump check, and with it every pair that shares its u.  So
    the kept vectors of level <= d + 1 span F_{d+1}.
    """
    n, layout = space.n, space.layout
    levels = space.level_tags
    tag = prod(layout.radices)  # the ambient size: above every tensor key
    position = {s: k for k, s in enumerate(space.exponents)}
    bases = defaultdict(IncrementalBasis)  # weight offset -> its tagged vectors
    for j, (vec, weight) in enumerate(zip(space.basis_vectors, space.weight_tags)):
        bases[weight].add({**vec, tag + j: 1})
    solved = {}  # u = s + e_alpha -> its column, for u not kept
    action = {}
    for r, (alpha, coeffs) in enumerate(_lowering_steps(n)):
        mat = {}
        for j, (vec, s) in enumerate(zip(space.basis_vectors, space.exponents)):
            u = s[:r] + (s[r] + 1,) + s[r + 1:]
            k = position.get(u)
            if k is not None:
                mat[j] = {k: 1}
                continue
            column = solved.get(u)
            if column is None:
                weight = tuple(map(add, space.weight_tags[j], coeffs))
                image = apply_root_vector(layout, alpha, vec)
                combo = bases[weight].combination(image, tag) if image else {}
                if combo is None:
                    raise RuntimeError(f"module is not closed under lowering by {alpha}")
                column = solved[u] = {}
                for key, c in combo.items():
                    i = key - tag
                    if levels[i] > levels[j] + 1:
                        raise RuntimeError(f"f_{alpha} raises level {levels[j]} to {levels[i]}")
                    if levels[i] == levels[j] + 1:
                        column[i] = c
            if column:
                mat[j] = column
        action[alpha] = mat
    return action


# ---------------------------------------------------------------------------
# ordered monomials in the unfiltered module
# ---------------------------------------------------------------------------

def monomial_vector(layout: WedgeLayout, vec: dict, s, reverse: bool = False) -> dict:
    """f^s applied to vec, factors in decreasing variable order.

    reverse=True applies the opposite order, as a witness that spanning
    ranks do not depend on the chosen order of factors.
    """
    order = list(enumerate(positive_roots(layout.n)))  # increasing variables
    if reverse:
        order.reverse()
    for i, alpha in order:  # rightmost (smallest) factor acts first
        for _ in range(s[i]):
            vec = apply_root_vector(layout, alpha, vec)
            if not vec:
                return {}
    return vec


def monomial_rank(lam, cap: int = 20000, reverse: bool = False) -> int:
    """Rank of {f^s v : s in S(lambda)} inside the tensor realization."""
    layout = _checked_layout(validate_weight(lam), cap)
    basis = IncrementalBasis()
    for s in enumerate_points(lam):
        vec = monomial_vector(layout, {0: 1}, s, reverse=reverse)
        if vec:
            basis.add(vec)
    return basis.rank


# ---------------------------------------------------------------------------
# tensor products of graded modules
# ---------------------------------------------------------------------------

def _apply_pair(mat_left: dict, mat_right: dict, width: int, vec: dict) -> dict:
    """One lowering operator on a tensor pair: act on the left plus the right.

    The pair (i, j) has the key i * width + j, width the right factor's
    dimension."""
    def terms():
        for key, c in vec.items():
            i, j = divmod(key, width)
            for i2, x in mat_left.get(i, {}).items():
                yield i2 * width + j, c * x
            for j2, x in mat_right.get(j, {}).items():
                yield key - j + j2, c * x

    return combine(terms())


def tensor_cartan_dims(lam, mu, cap: int = 20000) -> dict:
    """Graded dimensions of the cyclic span of v_lam (x) v_mu in gr V(lam) (x) gr V(mu).

    Keys are (weight offset, degree) with offsets measured from lam + mu,
    so the table is directly comparable with pbw_filtration_dims(lam + mu).

    Every pair the closure keeps has the weight and degree it is tagged
    with, by construction.  The factors' weights and completeness are
    certified by build_module, their level tags by graded_action, whose
    column of s and alpha is the kept vector of s + e_alpha when that is
    kept and is solved otherwise, a level jump above one raising.  So
    f_alpha takes a pair of weight w and degree d only to pairs of weight w
    lowered by alpha and degree d + 1: the degree of the exponent that
    _close tags the pair with.
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

    width = right.dimension
    _, exponents, weights = _close(
        n, {0: 1},
        lambda alpha, vec: _apply_pair(act_left[alpha], act_right[alpha], width, vec))
    return dict(Counter(zip(weights, map(sum, exponents))))
