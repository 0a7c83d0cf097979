"""Polynomials in the root variables, the ideal I(lambda), and straightening.

The module carries the symmetric-algebra half of the construction: exact
sparse polynomials in the n^2 variables f_alpha, the derivations given on
generators by f_beta -> f_{beta-alpha}, the ideal generated from the powers
f_alpha^{(lambda,alpha^vee)+1} under the raising operators, graded quotient
dimensions by incremental row reduction, the degree/row-sum/lex monomial
order, and the explicit operator composites whose value on a high power of
the long-root variable is a straightening relation with prescribed leading
term.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import dyck, polytope
from .linalg import IncrementalBasis, combine, vec_add, vec_scale
from .rootsys import (
    PositiveRoot,
    bound_slice,
    chevalley_realization,
    coefficient_root_map,
    is_hook_root,
    make_index,
    make_root,
    path_bound,
    positive_roots,
    root_index_map,
    simple_coefficients,
    validate_weight,
    variable_key,
)


class SparsePolynomial:
    """Polynomial in the f_alpha with exact coefficients, keyed by exponent."""

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for s, c in dict(terms).items():
                c = Fraction(c)
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
        return SparsePolynomial(self.n, vec_scale(self.terms, Fraction(c)))

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

    def coefficient(self, s) -> Fraction:
        return self.terms.get(tuple(s), Fraction(0))

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
    """Sum of s over row r."""
    return sum(x for alpha, x in zip(positive_roots(n), s) if alpha.row == r)


def d_vector(s, n: int) -> tuple:
    """Row sums read bottom row first: (s_{n,*}, ..., s_{1,*})."""
    sums = [0] * n
    for alpha, x in zip(positive_roots(n), s):
        sums[alpha.row - 1] += x
    return tuple(reversed(sums))


@lru_cache(maxsize=None)
def _variables_descending(n: int) -> tuple:
    """Indices of the reading-order coordinates, largest variable first."""
    order = sorted(
        range(n * n),
        key=lambda i: variable_key(positive_roots(n)[i], n),
        reverse=True,
    )
    return tuple(order)


def order_key(s, n: int) -> tuple:
    """Sort key realizing the straightening order: ascending key = earlier.

    A monomial precedes another when its total degree is larger; on equal
    degree when its bottom-up row-sum vector is lexicographically smaller;
    and on ties when it is larger in the homogeneous lexicographic order
    taken along the variables from the largest downward.
    """
    return (
        -sum(s),
        d_vector(s, n),
        tuple(-s[i] for i in _variables_descending(n)),
    )


def monomial_compare(s, t) -> str:
    """Compare multi-exponents in the straightening order: 'less' means the
    first argument precedes (is smaller than) the second."""
    if len(s) != len(t):
        raise ValueError("multi-exponents of different ranks are not comparable")
    n = math.isqrt(len(s))
    ks, kt = order_key(s, n), order_key(t, n)
    if ks == kt:
        return "equal"
    return "less" if ks < kt else "greater"


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def partial_op(beta: PositiveRoot, P: SparsePolynomial, variant: str = "unit"):
    """The derivation removing beta: on generators f_a -> c * f_{a - beta}
    when a - beta is again a positive root, 0 otherwise.  The unit variant
    uses c = 1; the chevalley variant uses the structure coefficient of the
    matrix realization, i.e. the honest raising action on the symmetric
    algebra, and so preserves raising-closed ideals."""
    n = P.n
    roots = positive_roots(n)
    idx = root_index_map(n)
    by_coeffs = coefficient_root_map(n)
    beta_coeffs = simple_coefficients(beta, n)
    if variant == "chevalley":
        realization = chevalley_realization(n)
    elif variant != "unit":
        raise ValueError(f"unknown variant {variant!r}")
    terms = []
    for s, c in P.terms.items():
        for pos, x in enumerate(s):
            if not x:
                continue
            alpha = roots[pos]
            diff = tuple(
                a - b for a, b in zip(simple_coefficients(alpha, n), beta_coeffs)
            )
            gamma = by_coeffs.get(diff)
            if gamma is None:
                continue
            if variant == "chevalley":
                coeff = realization.ad_root_coeff(beta, alpha)
                if not coeff:
                    continue
            else:
                coeff = 1
            t = list(s)
            t[pos] -= 1
            t[idx[gamma]] += 1
            terms.append((tuple(t), c * x * coeff))
    return SparsePolynomial(n, combine(terms))


def apply_partial_power(beta, P, exponent: int, variant: str = "unit"):
    for _ in range(exponent):
        P = partial_op(beta, P, variant)
    return P


# ---------------------------------------------------------------------------
# the ideal I(lambda)
# ---------------------------------------------------------------------------

class IdealGenerators(NamedTuple):
    base_relations: tuple  # the defining powers, reading order of their roots
    closure: tuple  # reduced basis of their span under the simple derivations
    variant: str


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


def ideal_generators(lam, variant: str = "chevalley") -> IdealGenerators:
    """Close the defining powers under the n simple-root derivations."""
    lam = validate_weight(lam)
    n = len(lam)
    simples = [make_root(k, k, False, n) for k in range(1, n + 1)]
    rels = base_relations(lam)
    basis = IncrementalBasis()
    closure = []
    queue = []
    for P in rels:
        if basis.add(P.terms):
            closure.append(P)
            queue.append(P)
    while queue:
        P = queue.pop(0)
        for beta in simples:
            Q = partial_op(beta, P, variant)
            if Q.is_zero():
                continue
            if basis.add(Q.terms):
                closure.append(Q)
                queue.append(Q)
    return IdealGenerators(tuple(rels), tuple(closure), variant)


@lru_cache(maxsize=None)
def _monomials_by_cell(n: int, max_degree: int):
    """All exponents of degree <= max_degree grouped by (weight, degree)."""
    cells = {}
    for s in polytope.lattice_points(n * n, [(range(n * n), max_degree)]):
        cells.setdefault((polytope.weight_of(s, n), sum(s)), []).append(s)
    return cells


def quotient_graded_dims(
    lam, max_degree=None, variant: str = "chevalley", cap: int = 200000
):
    """Dimensions of the graded quotient by (weight, degree), degrees up to
    max_degree (default: one beyond the largest polytope point degree).

    For each bi-degree cell the span of monomial multiples of the closure
    elements is row reduced; the cell dimension is the monomial count minus
    that rank.  Zero cells are omitted.
    """
    lam = validate_weight(lam)
    n = len(lam)
    if max_degree is None:
        max_degree = polytope.max_point_degree(lam) + 1
    gens = ideal_generators(lam, variant)
    cells = _monomials_by_cell(n, max_degree)
    for key, monos in cells.items():
        if len(monos) > cap:
            raise ValueError(
                f"cell {key} has {len(monos)} monomials, above the cap {cap}"
            )
    by_bidegree = {}
    for g in gens.closure:
        mono = next(iter(g.terms))
        key = (polytope.weight_of(mono, n), sum(mono))
        by_bidegree.setdefault(key, []).append(g)
    table = {}
    for (mu, d), monos in sorted(cells.items()):
        basis = IncrementalBasis()
        full = len(monos)
        for (gmu, gd), gens_here in by_bidegree.items():
            delta = d - gd
            if delta < 0:
                continue
            shift_key = (tuple(a - b for a, b in zip(mu, gmu)), delta)
            shifts = cells.get(shift_key)
            if not shifts:
                continue
            done = False
            for t in shifts:
                for g in gens_here:
                    basis.add(g.shift(t).terms)
                    if basis.rank == full:
                        done = True
                        break
                if done:
                    break
            if done:
                break
        dim = full - basis.rank
        if dim:
            table[(mu, d)] = dim
    return table


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

class StraighteningPlan(NamedTuple):
    path: tuple
    end_row: int  # i for a hook endpoint a[i,i~]; the endpoint row otherwise
    start_root: PositiveRoot  # whose Sigma-th power seeds the computation
    sigma: int
    factors: tuple  # (root, exponent) pairs in application order
    shift: int  # row offset of the path frame inside the full triangle


def _restrict_to_frame(path, s, n: int, a: int):
    """Re-index a path starting at row a (and an exponent on it) to rank
    n - a + 1 by shifting rows and letters down by a - 1."""
    shift = a - 1
    m = n - shift
    idx = root_index_map(m)
    new_path = []
    t = [0] * (m * m)
    for alpha in path:
        beta = make_root(
            alpha.row - shift, alpha.col.value - shift, alpha.col.barred, m
        )
        new_path.append(beta)
        t[idx[beta]] = s[root_index_map(n)[alpha]]
    return tuple(new_path), tuple(t)


def _embed_from_frame(P: SparsePolynomial, n: int, a: int) -> SparsePolynomial:
    """Shift a polynomial in the rank n - a + 1 frame back into rank n."""
    shift = a - 1
    m = P.n
    idx = root_index_map(n)
    out = {}
    for s, c in P.terms.items():
        big = [0] * (n * n)
        for alpha, x in zip(positive_roots(m), s):
            if not x:
                continue
            beta = make_root(
                alpha.row + shift, alpha.col.value + shift, alpha.col.barred, n
            )
            big[idx[beta]] = x
        out[tuple(big)] = c
    return SparsePolynomial(n, out)


def straightening_plan(lam, path, s) -> StraighteningPlan:
    """The operator schedule for a path-supported exponent above its bound.

    In the frame where the path starts on the first row, the plan seeds with
    the power Sigma of the path's last reachable first-row variable and lists
    the derivation factors in application order: for a hook endpoint a[i,i~]
    the three displayed blocks, then the bridge back to row 1 columns, then
    the row-lifting block; for a simple endpoint the column-splitting block
    followed by the row-lifting block.
    """
    lam = validate_weight(lam)
    n = len(lam)
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
    if a > 1:
        path, s = _restrict_to_frame(path, s, n, a)
        lam = lam[a - 1 :]
        n = len(lam)

    def row_one(value, barred, e):
        return make_root(1, value, barred, n), e

    def csum(value, barred):
        return column_sum(s, value, barred, n)

    end = path[-1]
    factors = []
    if is_hook_root(end, n):
        i = end.row
        for c in range(1, i):  # delta_1, smallest column first
            factors.append(row_one(c + 1, True, csum(c, False)))
        for q in range(i, n):  # delta_2, smallest column first
            factors.append(row_one(q, False, csum(q, False) + csum(q + 1, True)))
        for q in range(n - 1, i - 1, -1):  # delta_3, largest hook first
            factors.append((make_root(q + 1, q + 1, True, n), csum(q, False)))
        if i >= 2:
            factors.append(row_one(i - 1, False, csum(i, True) + row_sum(s, i, n)))
        for k in range(i - 1, 1, -1):  # the second composite
            factors.append(row_one(k - 1, False, row_sum(s, k, n)))
        start = make_root(1, 1, True, n)
    else:
        j = end.row
        for c in range(1, j):  # split the seed across the first-row columns
            factors.append((make_root(c + 1, j, False, n), csum(c, False)))
        for k in range(j, 1, -1):  # lift rows, deepest first
            factors.append(row_one(k - 1, False, row_sum(s, k, n)))
        i = j
        start = make_root(1, j, False, n)
    return StraighteningPlan(
        path=path,
        end_row=i,
        start_root=start,
        sigma=sigma,
        factors=tuple((b, e) for b, e in factors if e),
        shift=a - 1,
    )


def minimal_violations(lam, path):
    """All exponents supported on the path with degree one past its bound."""
    lam = validate_weight(lam)
    n = len(lam)
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
    m = n - plan.shift
    P = SparsePolynomial.variable_power(plan.start_root, plan.sigma, m)
    for beta, exponent in plan.factors:
        P = apply_partial_power(beta, P, exponent, variant="chevalley")
    if plan.shift:
        P = _embed_from_frame(P, n, plan.shift + 1)
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


def violated_inequality(lam, s):
    """First Dyck-path inequality that s breaks, or None."""
    return polytope.first_broken(lam, s)


def split_at_violation(lam, s):
    """The first path inequality that s breaks, the part of s on its path,
    and the rest of s; raises RuntimeError when s breaks none."""
    ineq = violated_inequality(lam, s)
    if ineq is None:
        raise RuntimeError(f"{s} is outside the polytope but breaks nothing")
    on_path = {root_index_map(len(lam))[alpha] for alpha in ineq.path}
    s1 = tuple(x if i in on_path else 0 for i, x in enumerate(s))
    return ineq, s1, tuple(a - b for a, b in zip(s, s1))


def normal_form(P: SparsePolynomial, lam, step_cap: int = 10000):
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
    for _ in range(step_cap):
        outside = [s for s in P.terms if not polytope.contains(lam, s)]
        if not outside:
            return P
        s = min(outside, key=lambda t: order_key(t, n))
        ineq, s1, s2 = split_at_violation(lam, s)
        element, lead = straightening_element(lam, ineq.path, s1)
        P = P - element.shift(s2).scale(P.terms[s] / lead)
        if P.coefficient(s):
            raise RuntimeError(f"straightening failed to remove {s}")
    raise RuntimeError(f"normal form did not terminate within {step_cap} steps")
