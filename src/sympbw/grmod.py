"""Polynomials in the root variables, the ideal I(lambda), and straightening.

The module carries the symmetric-algebra half of the construction: exact
sparse polynomials in the n^2 variables f_alpha, one derivation per root
alpha, f_beta -> c f_{beta-alpha} with the realization's Chevalley constant c,
the ideal generated from f_alpha^{(lambda,alpha^vee)+1} under them, graded quotient
dimensions, the degree/row-sum/lex monomial order, and the explicit operator
composites whose value on a high power of the long-root variable is a
straightening relation with prescribed leading term.

The quotient dimensions come from one walk degree by degree that keeps the
monomials outside a span of monomials inside I(lambda): it drops those that
a single-term closure element divides and those found in I(lambda) as a
cell is reduced, and row reduces only the other closure multiples.

Coefficients follow the number rule of ``linalg``: an int stays an int, a
Fraction stays a Fraction, a float or any other number is refused with
TypeError, and a Fraction is made only of a quotient that is not an integer
(``linalg.exact_quotient``).  The closure of the defining powers is integral,
and ``linalg`` reduces without division, so the quotient dimensions
row-reduce int vectors, keyed by exponents packed into one int each, into
int rows: no Fraction is made there at all.  Fractions appear only in normal
forms, where an element's leading coefficient does not divide the
coefficient it must cancel.

A path that starts on row a lives in the corner sp_{2(n-a+1)}: for k >= a,
e_k and f_k act on the letters a..2n+1-a as the rank n-a+1 generators do,
and every corner root vector is a bracket of those generators, so the
corner's Chevalley constants are the full rank's own.  Straightening is
therefore planned and evaluated in rank n for every path, with no change of
frame.

Straightening checks its inputs at the public functions (straightening_plan,
minimal_violations, straightening_element, straighten_step, normal_form) and
runs unchecked inside.  A path is checked by lookup in the rank's path table;
dyck.is_dyck_path runs only on a miss, to name the clause broken.  An element
depends on (rank, path, s) alone: lambda enters only through the test that
sum(s) exceeds the path's bound, which each caller makes for its own lambda.
So one lru_cache builder, _element, keyed by (rank, path-table row, s),
serves every weight, and a cache hit builds no schedule.  normal_form
reduces one dict in place, and the row that a monomial breaks first, read
once from the weight's membership record, names the path to straighten it.
"""
from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add, mul, sub
from typing import NamedTuple

from . import dyck, polytope
from .linalg import IncrementalBasis, add_into, combine, exact_quotient, vec_add, vec_scale
from .polytope import _pack, _unpack, _variable_steps
from .rootsys import (
    PositiveRoot,
    bound_slice,
    chevalley_realization,
    coefficient_root_map,
    is_hook_root,
    make_index,
    make_root,
    order_key,
    positive_roots,
    root_index_map,
    row_slices,
    simple_coefficients,
    validate_exponent,
    validate_weight,
)


def _exact(c):
    """c under the number rule: an int stays an int and a Fraction stays a
    Fraction; a float or any other number raises TypeError."""
    if type(c) is int or isinstance(c, Fraction):
        return c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"coefficient {c!r} is neither an int nor a Fraction")


class SparsePolynomial:
    """Polynomial in the f_alpha with exact coefficients, keyed by exponent.

    Coefficients follow the number rule of ``linalg``: ints stay ints,
    Fractions stay Fractions, and any other coefficient, a float above all,
    raises TypeError.  Arithmetic makes a Fraction only of a quotient that is
    not an integer.
    """

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for s, c in dict(terms).items():
                c = _exact(c)
                if c:
                    self.terms[tuple(s)] = c

    @classmethod
    def monomial(cls, n: int, s, coeff=1):
        return cls(n, {tuple(s): coeff})

    @classmethod
    def variable_power(cls, alpha: PositiveRoot, exponent: int, n: int):
        s = [0] * (n * n)
        s[root_index_map(n)[alpha]] = exponent
        return cls.monomial(n, s)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        return SparsePolynomial(self.n, combine(other.terms.items(), self.terms))

    def __sub__(self, other):
        return SparsePolynomial(self.n, vec_add(self.terms, other.terms, -1))

    def scale(self, c):
        return SparsePolynomial(self.n, vec_scale(self.terms, _exact(c)))

    def shift(self, t):
        """Multiply by the monomial with exponent t."""
        return SparsePolynomial(
            self.n,
            {tuple(a + b for a, b in zip(s, t)): c for s, c in self.terms.items()},
        )

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return self.scale(other)
        return SparsePolynomial(self.n, combine(
            (tuple(a + b for a, b in zip(s, t)), c * x)
            for t, c in other.terms.items()
            for s, x in self.terms.items()
        ))

    def coefficient(self, s):
        """The coefficient of f^s; 0 when f^s is absent."""
        return self.terms.get(tuple(s), 0)

    def monomials(self):
        return list(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        roots = positive_roots(self.n)
        parts = []
        for s in sorted(self.terms):
            c = self.terms[s]
            factors = [
                f"{a}" + (f"^{x}" if x > 1 else "")
                for a, x in zip(roots, s)
                if x
            ]
            parts.append(f"{c}*" + ("*".join(factors) if factors else "1"))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# aggregates and the monomial order
# ---------------------------------------------------------------------------

def column_sum(s, value: int, barred: bool, n: int) -> int:
    """Sum of s over the column with the given alphabet letter."""
    col = make_index(value, barred, n)
    return sum(x for alpha, x in zip(positive_roots(n), s) if alpha.col == col)


def row_sum(s, r: int, n: int) -> int:
    """Sum of s over row r, one slice of the reading order."""
    if not 1 <= r <= n:
        raise ValueError(f"row {r} outside 1..{n}")
    return sum(s[row_slices(n)[n - r]])


def monomial_compare(s, t) -> str:
    """Compare multi-exponents in the straightening order: 'less' means the
    first argument precedes (is smaller than) the second.

    The stages are those of ``order_key``, run one at a time: the result is
    decided at the first stage where s and t differ, and no key is built.
    """
    if len(s) != len(t):
        raise ValueError("multi-exponents of different ranks are not comparable")
    n = math.isqrt(len(s))
    if n * n != len(s):
        raise ValueError(
            f"multi-exponent needs a square number of coordinates, got {len(s)}")
    a, b = sum(s), sum(t)
    if a != b:
        return "less" if a > b else "greater"
    for rows in row_slices(n):
        a, b = sum(s[rows]), sum(t[rows])
        if a != b:
            return "less" if a < b else "greater"
    for a, b in zip(reversed(s), reversed(t)):
        if a != b:
            return "less" if a > b else "greater"
    return "equal"


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _raising_table(n: int, beta: PositiveRoot) -> tuple:
    """e_beta on generators, in reading order: (slot of alpha, slot of gamma, c)
    for each positive root gamma = alpha - beta, with [e_beta, f_alpha] = c f_gamma."""
    idx = root_index_map(n)
    by_coeffs = coefficient_root_map(n)
    beta_coeffs = simple_coefficients(beta, n)
    table = []
    for pos, alpha in enumerate(positive_roots(n)):
        diff = tuple(a - b for a, b in zip(simple_coefficients(alpha, n), beta_coeffs))
        if diff in by_coeffs:
            coeff = chevalley_realization(n).ad_root_coeff(beta, alpha)
            table.append((pos, idx[by_coeffs[diff]], coeff))
    return tuple(table)


def partial_op(beta: PositiveRoot, P: SparsePolynomial):
    """The raising action of e_beta on the symmetric algebra, read from one
    table cached per (rank, beta): the derivation f_a -> c * f_{a - beta}, c
    the realization's structure constant, when a - beta is a positive root,
    and f_a -> 0 otherwise.  It preserves raising-closed ideals."""
    terms = []
    for s, c in P.terms.items():
        for pos, target, coeff in _raising_table(P.n, beta):
            if s[pos]:
                t = list(s)
                t[pos] -= 1
                t[target] += 1
                terms.append((tuple(t), c * s[pos] * coeff))
    return SparsePolynomial(P.n, combine(terms))


def apply_partial_power(beta, P, exponent: int):
    for _ in range(exponent):
        P = partial_op(beta, P)
    return P


# ---------------------------------------------------------------------------
# the ideal I(lambda)
# ---------------------------------------------------------------------------

class IdealGenerators(NamedTuple):
    base_relations: tuple  # the defining powers, reading order of their roots
    closure: tuple  # the powers, then each derivative that enlarged the span, unreduced


def base_relations(lam) -> list:
    """The powers f_a^{(lambda, a^vee)+1}: one per unbarred root off the last
    column and one per hook root."""
    lam = validate_weight(lam)
    n = len(lam)
    rels = []
    for alpha in positive_roots(n):
        if is_hook_root(alpha, n) or not alpha.col.barred and alpha.col.value < n:
            a, b = bound_slice(alpha.row, alpha, n)
            rels.append(SparsePolynomial.variable_power(alpha, sum(lam[a:b]) + 1, n))
    return rels


def ideal_generators(lam) -> IdealGenerators:
    """Close the defining powers under the n simple-root derivations.

    The span is the direct sum of its cells (weight, degree), so each cell
    keeps its own basis.  A derivative keeps the degree, so packed in base
    2 * (the largest power's degree) + 1, no digit of a cell carries."""
    lam = validate_weight(lam)
    n = len(lam)
    simples = [make_root(k, k, False, n) for k in range(1, n + 1)]
    rels = base_relations(lam)
    bases = defaultdict(IncrementalBasis)  # packed (weight, degree) -> its basis
    steps = _variable_steps(n, 2 * max(sum(s) for P in rels for s in P.terms) + 1)

    def enlarges(P):
        return bases[sum(map(mul, next(iter(P.terms)), steps))].add(P.terms)

    closure = [P for P in rels if enlarges(P)]
    for P in closure:  # grows while it is read: each kept element is derived once
        for beta in simples:
            Q = partial_op(beta, P)
            if not Q.is_zero() and enlarges(Q):
                closure.append(Q)
    return IdealGenerators(tuple(rels), tuple(closure))


def _next_degree(level: dict, n: int, max_degree: int, forbidden) -> dict:
    """The monomials of the next degree not in `forbidden` whose divisors of
    one degree less are all in `level`, that is, that are reached from as
    many of them as their support has variables.  Packed as in
    ``quotient_graded_dims``, level maps cell -> {exponent: support bitmask},
    and so does the result."""
    steps = [((max_degree + 1) ** (n * n - 1 - i), step, 1 << i)
             for i, step in enumerate(_variable_steps(n, 4 * max_degree + 1))]
    reached = {}  # exponent -> [divisors in level, cell, support]
    for cell, monos in level.items():
        for s, support in monos.items():
            for place, step, bit in steps:
                seen = reached.get(s + place)
                if seen is None:
                    reached[s + place] = [1, cell + step, support | bit]
                else:
                    seen[0] += 1
    formed = {}
    for t, (count, cell, support) in reached.items():
        if count == support.bit_count() and t not in forbidden:
            formed.setdefault(cell, {})[t] = support
    return formed


def _reduce_cell(products, full: int) -> tuple:
    """(rank, monomials in the span) of a cell's products, stopping at rank
    full; in the fully reduced basis, a monomial is in the span iff the row
    with that pivot has no other entry."""
    basis = IncrementalBasis()
    for vec in products:
        if vec:
            basis.add(vec)
            if basis.rank == full:
                break
    return basis.rank, [p for p, row in basis.rows if len(row) == 1]


def quotient_graded_dims(lam, max_degree=None, cap: int = 200000):
    """Dimensions of the graded quotient S(n^-)/I(lambda) by (weight,
    degree), degrees up to max_degree (default: one beyond the largest
    polytope point degree).  Zero cells are omitted; the keys are sorted.

    One walk goes degree by degree, keeping a set of monomials closed under
    division.  A degree's candidates are the monomials whose divisors of one
    degree less are all kept and that are no single-term closure element;
    the cap bounds the candidates of each cell and is checked before any
    cell of the degree is reduced.  A cell's dimension is its number of
    candidates minus the rank of the products g * t, g a closure element of
    several terms and t kept, restricted to the candidates; a candidate
    whose basis row has a single entry lies in that span and is dropped.

    This is exact.  Let F be the single-term elements and the dropped
    monomials, and K the span of the monomials that an element of F divides.
    K lies in I(lambda), by induction on the degree: a restricted product
    differs from g * t by monomials of K.  The kept monomials are those
    outside K, and g * t lies in K when g is one term or t is not kept.

    Exponents are packed in base max_degree + 1, so a monomial shift is one
    int addition.  A cell's digits (weight, degree) are at most
    2 * max_degree, as no root has a simple-root coefficient above 2; raised
    by 2 * max_degree and packed in base 4 * max_degree + 1, two cells
    subtract without a borrow, so the cell of the shifts is one lookup.
    """
    lam = validate_weight(lam)
    n = len(lam)
    if max_degree is None:
        max_degree = polytope.max_point_degree(lam) + 1
    elif type(max_degree) is not int or max_degree < 0:
        raise ValueError(f"max_degree must be an int >= 0, got {max_degree!r}")
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be an int >= 1, got {cap!r}")
    base, cell_base = max_degree + 1, 4 * max_degree + 1
    steps = _variable_steps(n, cell_base)
    forbidden = set()
    by_bidegree = {}  # packed cell -> closure elements of several terms
    for g in ideal_generators(lam).closure:
        mono = next(iter(g.terms))
        if sum(mono) > max_degree:
            continue
        if len(g.terms) == 1:
            forbidden.add(_pack(mono, base))
        else:
            by_bidegree.setdefault(sum(map(mul, mono, steps)), []).append(
                [(_pack(s, base), c) for s, c in g.terms.items()]
            )
    lift = _pack([2 * max_degree] * (n + 1), cell_base)
    level = {lift: {0: 0}}  # the last degree's kept monomials with supports
    kept = {lift: [0]}  # packed cell -> its kept monomials
    table = {((0,) * n, 0): 1}
    for _ in range(max_degree):
        level = _next_degree(level, n, max_degree, forbidden)
        for cell, monos in level.items():
            if len(monos) > cap:
                *mu, d = _unpack(cell - lift, cell_base, n + 1)
                raise ValueError(
                    f"cell {(tuple(mu), d)} has {len(monos)} monomials,"
                    f" above the cap {cap}"
                )
        for here, monos in level.items():
            rank, drop = _reduce_cell((
                {s + t: c for s, c in g if s + t in monos}
                for gkey, gens_here in by_bidegree.items()
                for t in kept.get(here - gkey, ())
                for g in gens_here
            ), len(monos))
            if rank < len(monos):
                *mu, d = _unpack(here - lift, cell_base, n + 1)
                table[(tuple(mu), d)] = len(monos) - rank
            for m in drop:
                del monos[m]
            kept[here] = list(monos)
    return dict(sorted(table.items()))


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

class StraighteningPlan(NamedTuple):
    start_root: PositiveRoot  # whose Sigma-th power seeds the computation
    sigma: int
    factors: tuple  # (root, exponent) pairs in application order


def _exponent(s, n: int) -> tuple:
    """s as a multi-exponent of rank n with no negative entry, or ValueError."""
    s = validate_exponent(s, n)
    if min(s) < 0:
        raise ValueError(f"multi-exponent entries must be non-negative, got {s!r}")
    return s


@lru_cache(maxsize=None)
def _path_rows(n: int) -> dict:
    """Each Dyck path of rank n -> its row in the path table."""
    return {path: row for row, (path, *_) in enumerate(polytope._path_table(n))}


def _path_row(path, n: int) -> int:
    """The path-table row of path.  A sequence that is not a Dyck path of
    rank n raises ValueError naming the clause it breaks: dyck.is_dyck_path
    runs only when the lookup misses."""
    path = tuple(path)
    row = _path_rows(n).get(path)
    if row is None:
        raise ValueError(dyck.is_dyck_path(path, n)[1])
    return row


def _violation(lam, path, s) -> tuple:
    """(rank, path-table row, s) after checking lambda, s and the path: s
    must be a non-negative multi-exponent supported on the path whose total
    exceeds the path's bound under lambda, the one test that involves
    lambda."""
    lam = validate_weight(lam)
    n = len(lam)
    s = _exponent(s, n)
    row = _path_row(path, n)
    path, _, first, stop = polytope._path_table(n)[row]
    for alpha, x in zip(positive_roots(n), s):
        if x and alpha not in path:
            raise ValueError(f"exponent touches {alpha} off the path")
    sigma = sum(s)
    bound = sum(lam[first:stop])
    if sigma <= bound:
        raise ValueError(f"total {sigma} does not exceed the path bound {bound}")
    return n, row, s


def _schedule(n: int, row: int, s: tuple) -> StraighteningPlan:
    """The plan of straightening_plan for an exponent s on path-table row
    row, unchecked."""
    path = polytope._path_table(n)[row][0]
    a = path[0].row

    def row_a(value, barred, e):
        return make_root(a, value, barred, n), e

    def csum(value, barred):
        return column_sum(s, value, barred, n)

    end = path[-1]
    factors = []
    if is_hook_root(end, n):
        i = end.row
        for c in range(a, i):  # delta_1, smallest column first
            factors.append(row_a(c + 1, True, csum(c, False)))
        for q in range(i, n):  # delta_2, smallest column first
            factors.append(row_a(q, False, csum(q, False) + csum(q + 1, True)))
        for q in range(n - 1, i - 1, -1):  # delta_3, largest hook first
            factors.append((make_root(q + 1, q + 1, True, n), csum(q, False)))
        if i > a:
            factors.append(row_a(i - 1, False, csum(i, True) + row_sum(s, i, n)))
        for k in range(i - 1, a, -1):  # the second composite
            factors.append(row_a(k - 1, False, row_sum(s, k, n)))
        start = make_root(a, a, True, n)
    else:
        j = end.row
        for c in range(a, j):  # split the seed across the row-a columns
            factors.append((make_root(c + 1, j, False, n), csum(c, False)))
        for k in range(j, a, -1):  # lift rows, deepest first
            factors.append(row_a(k - 1, False, row_sum(s, k, n)))
        start = make_root(a, j, False, n)
    return StraighteningPlan(
        start_root=start,
        sigma=sum(s),
        factors=tuple((b, e) for b, e in factors if e),
    )


def straightening_plan(lam, path, s) -> StraighteningPlan:
    """The operator schedule for a path-supported exponent above its bound.

    A path starting on row a lies in the corner sp_{2(n-a+1)} spanned by the
    roots of rows a..n.  The plan seeds with the power Sigma of the path's
    last reachable row-a variable and lists the derivation factors in
    application order: for a hook endpoint a[i,i~] the three displayed
    blocks, then the bridge back to row a columns, then the row-lifting
    block; for a simple endpoint the column-splitting block followed by the
    row-lifting block.  Every factor is a corner root, and the corner's
    Chevalley constants are those of the full rank, so the plan is read and
    evaluated in rank n directly.  The schedule depends on the path and s
    alone; lambda only bounds it, as Sigma must exceed the path's bound.
    """
    return _schedule(*_violation(lam, path, s))


def minimal_violations(lam, path):
    """All exponents supported on the path with degree one past its bound, in
    lexicographic order: the compositions of that degree over the path's
    increasing coordinates, read off k - 1 cuts for k roots.  A sequence
    that is not a Dyck path of lam's rank raises ValueError naming the clause
    it breaks; more than polytope.POINT_LIMIT exponents raise it before any is listed."""
    lam = validate_weight(lam)
    n = len(lam)
    _, coords, first, stop = polytope._path_table(n)[_path_row(path, n)]
    total, k = sum(lam[first:stop]) + 1, len(coords)
    count = math.comb(total + k - 1, k - 1)
    if count > polytope.POINT_LIMIT:
        raise ValueError(
            f"a path of {k} roots has {count} exponents of degree {total},"
            f" above the limit {polytope.POINT_LIMIT} for listing them"
        )
    out = []
    for cuts in combinations(range(total + k - 1), k - 1):
        s = [0] * (n * n)
        for i, a, b in zip(coords, (-1, *cuts), (*cuts, total + k - 1)):
            s[i] = b - a - 1
        out.append(tuple(s))
    return out


@lru_cache(maxsize=4096)
def _element(n: int, row: int, s: tuple) -> tuple:
    """(element, lead): the plan of s on path-table row row evaluated, and its
    coefficient on f^s, unchecked.  Shared by every weight, as the element
    depends on (rank, path, s) alone; the cached polynomial must not be
    mutated.  Raises RuntimeError when the leading-term contract fails
    (nonzero coefficient on f^s, every other monomial strictly later in the
    order)."""
    plan = _schedule(n, row, s)
    P = SparsePolynomial.variable_power(plan.start_root, plan.sigma, n)
    for beta, exponent in plan.factors:
        P = apply_partial_power(beta, P, exponent)
    lead = P.coefficient(s)
    if not lead:
        raise RuntimeError(f"straightening lost its leading term f^{s}")
    key_s = order_key(s, n)
    for t in P.monomials():
        if t != s and not order_key(t, n) > key_s:
            raise RuntimeError(f"straightening produced {t} not later than {s}")
    return P, lead


def straightening_element(lam, path, s):
    """Evaluate the plan: a polynomial in the ideal whose earliest monomial
    in the straightening order is f^s; returns it with that coefficient.

    The inputs are checked first, with the one test that involves lambda:
    sum(s) must exceed the path's bound.  The element and its leading-term
    checks depend on (rank, path, s) alone, so it is built once, by the
    lru_cache builder that normal forms read, whatever the weight, and each
    call returns a fresh copy; a cache hit builds no schedule.  Raises
    RuntimeError when the leading-term contract fails (nonzero coefficient
    on f^s, every other monomial strictly later in the order).
    """
    element, lead = _element(*_violation(lam, path, s))
    return SparsePolynomial(element.n, element.terms), lead


def violated_inequality(lam, s):
    """First Dyck-path inequality that s breaks, or None."""
    return polytope.first_broken(lam, s)


def _straighten(terms: dict, s: tuple, row: int, n: int):
    """Cancel f^s in the polynomial `terms`, changed in place: subtract the
    multiple of the element of the part of s on path-table row `row`,
    shifted by the rest of s, that removes f^s.  Unchecked: s must be a term
    of rank n that breaks that row, which is the element's bound test.
    Returns the cached element and the monomials the subtraction touched."""
    on_path = [0] * len(s)
    for i in polytope._path_table(n)[row][1]:
        on_path[i] = s[i]
    on_path = tuple(on_path)
    element, lead = _element(n, row, on_path)
    rest = tuple(map(sub, s, on_path))
    q = -exact_quotient(terms[s], lead)
    touched = [tuple(map(add, t, rest)) for t in element.terms]
    add_into(terms, zip(touched, [q * x for x in element.terms.values()]))
    if s in terms:
        raise RuntimeError(f"straightening failed to remove {s}")
    return element, touched


def _check_terms(P: SparsePolynomial, lam) -> tuple:
    """(lam, its rank) after checking lam and every exponent of P."""
    lam = validate_weight(lam)
    n = len(lam)
    if P.n != n:
        raise ValueError(f"polynomial rank {P.n} does not match weight rank {n}")
    for s in P.terms:
        _exponent(s, n)
    return lam, n


def straighten_step(P: SparsePolynomial, s, lam):
    """One normal-form step at the monomial f^s of P outside S(lambda).

    Checks lambda and every exponent of P, splits s along the first path
    inequality it breaks, and returns that path, the straightening element
    of the part of s on it, and P minus the multiple of the element times
    the rest of s that removes f^s.  The step is normal_form's own, run
    unchecked after these checks, with the element from the lru_cache
    builder that normal_form and straightening_element share.
    """
    lam, n = _check_terms(P, lam)
    s = _exponent(s, n)
    if s not in P.terms:
        raise ValueError(f"{s} is not a monomial of the polynomial")
    row = polytope._first_broken_row(lam, s)
    if row is None:
        raise RuntimeError(f"{s} is outside the polytope but breaks nothing")
    terms = dict(P.terms)
    element, _ = _straighten(terms, s, row, n)
    path = polytope._path_table(n)[row][0]
    return path, SparsePolynomial(n, element.terms), SparsePolynomial(n, terms)


NORMAL_FORM_STEPS = 10000  # straightening steps before normal_form gives up


def normal_form(P: SparsePolynomial, lam):
    """Rewrite P modulo the ideal into the span of polytope-point monomials.

    lambda and every exponent of P are checked once, here; a negative entry
    raises ValueError.  The reduction then runs unchecked on one dict, in
    place.  Each monomial's membership is read once, when it first appears,
    from polytope._first_broken_row; one outside S(lambda) waits in a heap
    keyed by order_key, with the path-table row it breaks first.  Each step
    pops the earliest monomial still present and subtracts the multiple of
    its straightening element that cancels it, summed in by linalg.add_into;
    the broken row shows the bound exceeded, so the element comes from the
    lru_cache builder that serves every weight.  A step trades the monomial
    for strictly later ones of the same degree, so no popped monomial comes
    back, and the loop terminates.
    """
    lam, n = _check_terms(P, lam)
    first_broken_row = polytope._first_broken_row
    terms = dict(P.terms)
    seen = set(terms)
    heap = []
    for s in terms:
        row = first_broken_row(lam, s)
        if row is not None:
            heap.append((order_key(s, n), s, row))
    heapify(heap)
    steps = 0
    while heap:
        _, s, row = heappop(heap)
        if s not in terms:  # cancelled by an earlier step
            continue
        if steps == NORMAL_FORM_STEPS:
            raise RuntimeError(
                f"normal form did not terminate within {NORMAL_FORM_STEPS} steps")
        steps += 1
        for u in _straighten(terms, s, row, n)[1]:
            if u not in seen:
                seen.add(u)
                row = first_broken_row(lam, u)
                if row is not None:
                    heappush(heap, (order_key(u, n), u, row))
    return SparsePolynomial(n, terms)
