"""Polynomials in the root variables, the ideal I(lambda), and straightening.

The module carries the symmetric-algebra half of the construction: exact
sparse polynomials in the n^2 variables f_alpha, one derivation per root
alpha, f_beta -> c f_{beta-alpha} with the realization's Chevalley constant c,
the ideal generated from f_alpha^{(lambda,alpha^vee)+1} under them, graded quotient
dimensions, the degree/row-sum/lex monomial order, and the explicit operator
composites whose value on a high power of the long-root variable is a
straightening relation with prescribed leading term.

Many closure elements of the ideal are single monomials.  The quotient
dimensions count the standard monomials, those that no single-term element
divides, found by a walk degree by degree, and subtract the rank of the
other closure multiples restricted to them, row reduced one cell at a time.

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
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from . import dyck, polytope
from .linalg import IncrementalBasis, combine, exact_quotient, vec_add, vec_scale
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
    path_bound,
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
    """Close the defining powers under the n simple-root derivations."""
    lam = validate_weight(lam)
    n = len(lam)
    simples = [make_root(k, k, False, n) for k in range(1, n + 1)]
    rels = base_relations(lam)
    basis = IncrementalBasis()
    closure = [P for P in rels if basis.add(P.terms)]
    for P in closure:  # grows while it is read: each kept element is derived once
        for beta in simples:
            Q = partial_op(beta, P)
            if not Q.is_zero() and basis.add(Q.terms):
                closure.append(Q)
    return IdealGenerators(tuple(rels), tuple(closure))


def _standard_monomials(n: int, max_degree: int, forbidden, cap: int) -> dict:
    """The standard monomials of degree <= max_degree, grouped by cell: the
    exponents that no exponent in `forbidden` divides.

    An exponent is packed in base max_degree + 1 and its cell (weight,
    degree) in base 4 * max_degree + 1, each cell digit raised by
    2 * max_degree (see ``quotient_graded_dims``); the dict maps packed cell
    -> packed exponents.  The walk goes degree by degree, and a variable
    steps the exponent by its place and the cell by its packed step.  A
    candidate of the next degree is kept when it is not forbidden and it was
    reached from as many standard monomials as it has variables in its
    support, i.e. when each of its divisors of one degree less is standard;
    the standard set is closed under division, so the test is exact.  A cell
    with more than cap monomials raises ValueError as its degree is formed.
    """
    dim = n * n
    base, cell_base = max_degree + 1, 4 * max_degree + 1
    lift = _pack([2 * max_degree] * (n + 1), cell_base)
    steps = [
        (base ** (dim - 1 - i), step, 1 << i)
        for i, step in enumerate(_variable_steps(n, cell_base))
    ]
    cells = {lift: [0]}
    level = {0: (lift, 0)}  # exponent -> (cell, bitmask of its support)
    for _ in range(max_degree):
        reached = {}  # exponent -> [standard divisors found, cell, support]
        for s, (cell, support) in level.items():
            for place, step, bit in steps:
                t = s + place
                seen = reached.get(t)
                if seen is None:
                    reached[t] = [1, cell + step, support | bit]
                else:
                    seen[0] += 1
        level = {}
        formed = {}
        for t, (count, cell, support) in reached.items():
            if count == support.bit_count() and t not in forbidden:
                level[t] = (cell, support)
                formed.setdefault(cell, []).append(t)
        for cell, monos in formed.items():
            if len(monos) > cap:
                *mu, d = _unpack(cell - lift, cell_base, n + 1)
                raise ValueError(
                    f"cell {(tuple(mu), d)} has {len(monos)} monomials,"
                    f" above the cap {cap}"
                )
        cells.update(formed)
    return cells


def quotient_graded_dims(lam, max_degree=None, cap: int = 200000):
    """Dimensions of the graded quotient S(n^-)/I(lambda) by (weight,
    degree), degrees up to max_degree (default: one beyond the largest
    polytope point degree).  Zero cells are omitted; the keys are sorted.

    Let K be the span of the monomials that a single-term closure element
    divides, and call a monomial standard when none does.  K lies in
    I(lambda), and so does every product g * t of a closure element g and a
    monomial t; such a product lies in K already when g is a single term or
    t is not standard.  Hence in each cell the dimension is the number of
    standard monomials minus the rank of the products g * t, g a closure
    element of more than one term and t standard, restricted to the standard
    monomials.  That rank is found by one ``IncrementalBasis`` per cell, which
    stops at full rank; a cell with no standard monomial is never reduced.

    Exponents are packed in base max_degree + 1, which no digit of degree
    <= max_degree reaches, so a monomial shift is one int addition.  A cell
    (weight, degree) has digits at most 2 * max_degree, since no positive
    root has a simple-root coefficient above 2; raised by 2 * max_degree each
    and packed in base 4 * max_degree + 1, two cells subtract without a
    borrow, so the cell of the shifts is one lookup, which finds nothing
    for a generator of higher degree than the cell.  The cap bounds the
    standard monomials of a cell.
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
        d = sum(mono)
        if d > max_degree:
            continue
        if len(g.terms) == 1:
            forbidden.add(_pack(mono, base))
        else:
            key = sum(map(mul, mono, steps))
            by_bidegree.setdefault(key, []).append(
                [(_pack(s, base), c) for s, c in g.terms.items()]
            )
    cells = _standard_monomials(n, max_degree, forbidden, cap)
    standard = {t for monos in cells.values() for t in monos}
    lift = _pack([2 * max_degree] * (n + 1), cell_base)
    table = {}
    for here in sorted(cells):  # packed cells sort as their (weight, degree)
        basis = IncrementalBasis()
        full = len(cells[here])
        products = (
            {s + t: c for s, c in g if s + t in standard}
            for gkey, gens_here in by_bidegree.items()
            for t in cells.get(here - gkey, ())
            for g in gens_here
        )
        for vec in products:
            if vec:
                basis.add(vec)
                if basis.rank == full:
                    break
        dim = full - basis.rank
        if dim:
            *mu, d = _unpack(here - lift, cell_base, n + 1)
            table[(tuple(mu), d)] = dim
    return table


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

class StraighteningPlan(NamedTuple):
    start_root: PositiveRoot  # whose Sigma-th power seeds the computation
    sigma: int
    factors: tuple  # (root, exponent) pairs in application order


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
    evaluated in rank n directly.
    """
    lam = validate_weight(lam)
    n = len(lam)
    s = validate_exponent(s, n)
    if min(s) < 0:
        raise ValueError(f"multi-exponent entries must be non-negative, got {s!r}")
    path = tuple(path)
    ok, why = dyck.is_dyck_path(path, n)
    if not ok:
        raise ValueError(why)
    for alpha, x in zip(positive_roots(n), s):
        if x and alpha not in path:
            raise ValueError(f"exponent touches {alpha} off the path")
    sigma = sum(s)
    bound = path_bound(lam, path[0], path[-1])
    if sigma <= bound:
        raise ValueError(f"total {sigma} does not exceed the path bound {bound}")
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
        sigma=sigma,
        factors=tuple((b, e) for b, e in factors if e),
    )


def minimal_violations(lam, path):
    """All exponents supported on the path with degree one past its bound.

    A sequence that is not a Dyck path of lam's rank raises ValueError
    naming the clause it breaks."""
    lam = validate_weight(lam)
    n = len(lam)
    path = tuple(path)
    ok, why = dyck.is_dyck_path(path, n)
    if not ok:
        raise ValueError(why)
    idx = root_index_map(n)
    total = path_bound(lam, path[0], path[-1]) + 1
    row = ([idx[alpha] for alpha in path], total)
    return [s for s in polytope.lattice_points(n * n, [row]) if sum(s) == total]


def straightening_element(lam, path, s):
    """Evaluate the plan: a polynomial in the ideal whose earliest monomial
    in the straightening order is f^s; returns it with that coefficient.

    Raises when the leading-term contract fails (nonzero coefficient on f^s,
    every other monomial strictly later in the order).
    """
    lam = validate_weight(lam)
    n = len(lam)
    plan = straightening_plan(lam, path, s)
    P = SparsePolynomial.variable_power(plan.start_root, plan.sigma, n)
    for beta, exponent in plan.factors:
        P = apply_partial_power(beta, P, exponent)
    lead = P.coefficient(s)
    if not lead:
        raise RuntimeError(f"straightening lost its leading term f^{tuple(s)}")
    key = order_key(tuple(s), n)
    for t in P.monomials():
        if tuple(t) != tuple(s) and not order_key(t, n) > key:
            raise RuntimeError(
                f"straightening produced {t} not later than {tuple(s)}"
            )
    return P, lead


@lru_cache(maxsize=1024)
def _cached_element(lam: tuple, path: tuple, s: tuple):
    """straightening_element(lam, path, s), built once per argument triple
    for straighten_step, which only reads it: normal forms meet the same
    element again and again.  The call goes through the module global, so
    the element passed its leading-term checks when it was built."""
    return straightening_element(lam, path, s)


def violated_inequality(lam, s):
    """First Dyck-path inequality that s breaks, or None."""
    return polytope.first_broken(lam, s)


def straighten_step(P: SparsePolynomial, s, lam):
    """One normal-form step at the monomial f^s of P outside S(lambda).

    Splits s along the first path inequality it breaks and returns that
    path, the straightening element of the part of s on it, and P minus the
    multiple of the element times the rest of s that removes f^s.  The
    element comes from a cache shared by every later step, so it is only
    read, never changed.
    """
    ineq = violated_inequality(lam, s)
    if ineq is None:
        raise RuntimeError(f"{s} is outside the polytope but breaks nothing")
    on_path = {root_index_map(P.n)[alpha] for alpha in ineq.path}
    s1 = tuple(x if i in on_path else 0 for i, x in enumerate(s))
    element, lead = _cached_element(tuple(lam), ineq.path, s1)
    rest = tuple(a - b for a, b in zip(s, s1))
    P = P - element.shift(rest).scale(exact_quotient(P.terms[s], lead))
    if P.coefficient(s):
        raise RuntimeError(f"straightening failed to remove {s}")
    return ineq.path, element, P


NORMAL_FORM_STEPS = 10000  # straightening steps before normal_form gives up


def normal_form(P: SparsePolynomial, lam):
    """Rewrite P modulo the ideal into the span of polytope-point monomials.

    Repeatedly picks the earliest monomial (in the straightening order) lying
    outside the polytope, subtracts the matching multiple of a straightening
    element, and continues; every step trades the monomial for strictly later
    ones of the same degree, so the loop terminates.
    """
    lam = validate_weight(lam)
    n = len(lam)
    if P.n != n:
        raise ValueError(f"polynomial rank {P.n} does not match weight rank {n}")
    for _ in range(NORMAL_FORM_STEPS):
        outside = [s for s in P.terms if not polytope.contains(lam, s)]
        if not outside:
            return P
        s = min(outside, key=lambda t: order_key(t, n))
        _, _, P = straighten_step(P, s, lam)
    raise RuntimeError(f"normal form did not terminate within {NORMAL_FORM_STEPS} steps")
