"""Tests for polynomials, the monomial order, derivations, ideals, and straightening."""

from __future__ import annotations

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from sympbw import grmod, polytope
from sympbw.dyck import enumerate_paths
from sympbw.grmod import (
    SparsePolynomial,
    apply_partial_power,
    base_relations,
    column_sum,
    ideal_generators,
    minimal_violations,
    monomial_compare,
    normal_form,
    order_key,
    partial_op,
    quotient_graded_dims,
    row_sum,
    straightening_element,
    straightening_plan,
    violated_inequality,
)
from sympbw.linalg import IncrementalBasis, exact_quotient
from sympbw.rootsys import (
    chevalley_realization,
    d_vector,
    epsilon_coords,
    epsilon_weight,
    make_root,
    path_bound,
    positive_roots,
    root_index_map,
    simple_root,
)


def mono(n, s, coeff=1):
    return SparsePolynomial.monomial(n, s, coeff)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_polynomial_arithmetic():
    n = 2
    p = mono(n, (1, 0, 0, 0)) + mono(n, (0, 1, 0, 0), 2)
    q = mono(n, (0, 1, 0, 0), -2)
    assert (p + q).terms == {(1, 0, 0, 0): Fraction(1)}
    assert (p - p).is_zero()
    assert p.scale(3).coefficient((0, 1, 0, 0)) == 6
    assert p.scale(0).is_zero()


def test_polynomial_product_adds_exponents():
    n = 2
    p = mono(n, (1, 0, 0, 0)) + mono(n, (0, 0, 1, 0))
    q = mono(n, (0, 1, 0, 0), 2)
    prod = p * q
    assert prod.terms == {
        (1, 1, 0, 0): Fraction(2),
        (0, 1, 1, 0): Fraction(2),
    }
    assert p.shift((0, 1, 0, 0)).terms == {k: Fraction(1) for k in
                                           ((1, 1, 0, 0), (0, 1, 1, 0))}


def test_polynomial_number_rule():
    n = 2
    s, t = (1, 0, 0, 0), (0, 1, 0, 0)
    p = SparsePolynomial(n, {s: 3, t: Fraction(1, 2)})
    assert type(p.terms[s]) is int and type(p.terms[t]) is Fraction
    assert type(mono(n, s, True).terms[s]) is int
    assert type(p.scale(2).terms[s]) is int
    assert p.scale(2).terms[t] == 1 and type(p.scale(2).terms[t]) is Fraction
    assert type((p + p).terms[s]) is int and type((p * p).terms[(2, 0, 0, 0)]) is int
    assert p.coefficient((0, 0, 0, 1)) == 0
    assert type(p.coefficient((0, 0, 0, 1))) is int
    for bad in (0.5, 2.0, "1", None):
        with pytest.raises(TypeError):
            SparsePolynomial(n, {s: bad})
        with pytest.raises(TypeError):
            p.scale(bad)
    with pytest.raises(TypeError):
        p * 1.5


def test_column_and_row_sums():
    n = 2
    # reading order: a[1,1], a[1,2], a[1,1~], a[2,2]
    s = (1, 2, 3, 4)
    assert column_sum(s, 1, False, n) == 1
    assert column_sum(s, 2, False, n) == 2 + 4
    assert column_sum(s, 1, True, n) == 3
    assert row_sum(s, 1, n) == 1 + 2 + 3
    assert row_sum(s, 2, n) == 4
    assert d_vector(s, n) == (4, 6)


# ---------------------------------------------------------------------------
# the monomial order
# ---------------------------------------------------------------------------

def test_order_degree_dominates():
    n = 2
    assert monomial_compare((1, 1, 0, 0), (1, 0, 0, 0)) == "less"
    assert monomial_compare((1, 0, 0, 0), (1, 1, 0, 0)) == "greater"


def test_order_row_vector_tiebreak():
    # degree 1 each; the monomial concentrated in a deeper row comes later
    assert monomial_compare((0, 1, 0, 0), (0, 0, 0, 1)) == "less"


def test_order_homogeneous_lex_tiebreak():
    # same degree and same row sums: compare exponents from the largest
    # variable down; a larger exponent there means an earlier monomial
    s = (1, 0, 1, 0)  # f_{1,1} f_{1,1~}
    t = (0, 2, 0, 0)  # f_{1,2}^2
    assert monomial_compare(s, t) == "less"
    assert monomial_compare(t, s) == "greater"
    assert monomial_compare(s, s) == "equal"


def test_order_refuses_a_non_square_length():
    # six coordinates used to compare as their first four: "equal" here
    with pytest.raises(ValueError, match="square number of coordinates, got 6"):
        monomial_compare((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="different ranks"):
        monomial_compare((0, 0, 0, 0), (0, 0, 0, 0, 0))


def test_order_key_agrees_with_compare():
    rng = random.Random(3)
    n = 3
    for _ in range(400):
        s = tuple(rng.randint(0, 2) for _ in range(n * n))
        t = tuple(rng.randint(0, 2) for _ in range(n * n))
        ks, kt = order_key(s, n), order_key(t, n)
        rel = monomial_compare(s, t)
        assert (ks < kt) == (rel == "less")
        assert (ks == kt) == (rel == "equal")


def _row_permuted(rng, s, n):
    """s with the entries of one row shuffled: same degree and row sums."""
    roots = positive_roots(n)
    row = rng.randint(1, n)
    slots = [k for k, alpha in enumerate(roots) if alpha.row == row]
    values = [s[k] for k in slots]
    rng.shuffle(values)
    t = list(s)
    for k, x in zip(slots, values):
        t[k] = x
    return tuple(t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compare_agrees_with_order_key_on_ties(n):
    # the lazy comparison stops at the first stage that differs, so draw
    # pairs that tie at each stage: equal degree, equal row sums, equal
    rng = random.Random(100 + n)
    cases = {"degree": 0, "rows": 0, "equal": 0}
    for _ in range(300):
        s = tuple(rng.randint(0, 3) for _ in range(n * n))
        kind = rng.choice(["random", "degree", "rows", "equal"])
        if kind == "random":
            t = tuple(rng.randint(0, 3) for _ in range(n * n))
        elif kind == "degree":
            t = list(s)
            k, j = rng.randrange(n * n), rng.randrange(n * n)
            if t[k]:
                t[k] -= 1
                t[j] += 1
            t = tuple(t)
        elif kind == "rows":
            t = _row_permuted(rng, s, n)
        else:
            t = s
        ks, kt = order_key(s, n), order_key(t, n)
        cases["degree"] += ks[0] == kt[0]
        cases["rows"] += ks[:2] == kt[:2]
        cases["equal"] += s == t
        for a, b, ka, kb in ((s, t, ks, kt), (t, s, kt, ks)):
            rel = monomial_compare(a, b)
            assert (rel == "less") == (ka < kb)
            assert (rel == "equal") == (ka == kb) == (a == b)
    assert cases["equal"] > 30
    if n > 1:  # in rank 1 equal degrees are equal exponents
        assert cases["degree"] > cases["rows"] + 20
        assert cases["rows"] > cases["equal"] + 20


def test_compare_reads_lists_as_tuples():
    s = (1, 0, 2, 0)
    assert monomial_compare(list(s), s) == "equal"
    assert monomial_compare([0, 1, 0, 0], (0, 0, 0, 1)) == "less"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_row_sums_match_the_per_root_loop(n):
    rng = random.Random(n)
    roots = positive_roots(n)
    for _ in range(20):
        s = tuple(rng.randint(0, 5) for _ in range(n * n))
        sums = {r: 0 for r in range(1, n + 1)}
        for alpha, x in zip(roots, s):
            sums[alpha.row] += x
        assert d_vector(s, n) == tuple(sums[r] for r in range(n, 0, -1))
        for r in range(1, n + 1):
            assert row_sum(s, r, n) == sums[r]


def test_row_sum_refuses_a_row_outside_the_rank():
    for r in (0, 3, -1):
        with pytest.raises(ValueError, match=f"row {r} outside 1..2"):
            row_sum((1, 2, 3, 4), r, 2)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def test_partial_unit_hand_values():
    n = 3
    cases = [
        # (beta, alpha, expected target or None)
        (make_root(1, 1, False, n), make_root(1, 3, False, n),
         make_root(2, 3, False, n)),
        (make_root(2, 3, False, n), make_root(1, 3, False, n),
         make_root(1, 1, False, n)),
        (make_root(1, 2, False, n), make_root(1, 2, True, n),
         make_root(2, 3, False, n)),
        (make_root(1, 2, True, n), make_root(1, 1, True, n),
         make_root(1, 1, False, n)),
        (make_root(2, 2, True, n), make_root(1, 2, True, n),
         make_root(1, 1, False, n)),
        (make_root(1, 1, True, n), make_root(1, 2, True, n), None),
        (make_root(1, 3, False, n), make_root(1, 2, False, n), None),
    ]
    idx = root_index_map(n)
    real = chevalley_realization(n)
    for beta, alpha, target in cases:
        result = partial_op(beta, SparsePolynomial.variable_power(alpha, 1, n))
        if target is None:
            assert result.is_zero(), (beta, alpha)
        else:
            expected = [0] * (n * n)
            expected[idx[target]] = 1
            coeff = real.ad_root_coeff(beta, alpha)
            assert coeff, (beta, alpha)
            assert result.terms == {tuple(expected): coeff}, (beta, alpha)


def test_partial_acts_as_derivation():
    rng = random.Random(21)
    n = 2
    roots = positive_roots(n)
    for _ in range(25):
        p = mono(n, tuple(rng.randint(0, 2) for _ in range(n * n)),
                 rng.randint(1, 3))
        q = mono(n, tuple(rng.randint(0, 2) for _ in range(n * n)))
        beta = rng.choice(roots)
        left = partial_op(beta, p * q)
        right = partial_op(beta, p) * q + p * partial_op(beta, q)
        assert left.terms == right.terms


def test_partial_chevalley_scales_by_bracket_constant():
    for n in (2, 3):
        real = chevalley_realization(n)
        for beta in positive_roots(n):
            for alpha in positive_roots(n):
                p = SparsePolynomial.variable_power(alpha, 1, n)
                chev = partial_op(beta, p)
                assert len(chev.terms) == (1 if real.ad_root_coeff(beta, alpha) else 0)
                for t, c in chev.terms.items():
                    assert c == real.ad_root_coeff(beta, alpha)


def test_apply_partial_power_iterates():
    n = 2
    p = mono(n, (0, 2, 0, 0))
    beta = simple_root(1)
    once = partial_op(beta, p)
    twice = partial_op(beta, once)
    assert apply_partial_power(beta, p, 2).terms == twice.terms


# ---------------------------------------------------------------------------
# the ideal
# ---------------------------------------------------------------------------

def test_base_relations_shape():
    lam = (1, 0)
    rels = base_relations(lam)
    assert len(rels) == 3
    exponents = set()
    for r in rels:
        assert len(r.terms) == 1
        (s, c), = r.terms.items()
        assert c == 1
        exponents.add(s)
    assert exponents == {
        (2, 0, 0, 0),  # f_{1,1}^{m1+1}
        (0, 0, 2, 0),  # f_{1,1~}^{m1+m2+1}
        (0, 0, 0, 1),  # f_{2,2}^{m2+1}
    }
    # each power is (lambda, alpha^vee) + 1, the pairing taken in e-coordinates
    for lam in ((1, 2, 3), (2, 0, 1, 3)):
        n = len(lam)
        eps = epsilon_weight(lam)
        for r in base_relations(lam):
            (s, _), = r.terms.items()
            (pos, power), = [(k, x) for k, x in enumerate(s) if x]
            alpha = epsilon_coords(positive_roots(n)[pos], n)
            pairing = 2 * sum(a * b for a, b in zip(eps, alpha))
            assert power == pairing // sum(a * a for a in alpha) + 1


def test_closure_sizes_frozen():
    assert len(ideal_generators((1, 0)).closure) == 10
    assert len(ideal_generators((0, 1)).closure) == 10
    assert len(ideal_generators((1, 1)).closure) == 18
    assert len(ideal_generators((0, 1, 0)).closure) == 38


def _small_weights():
    """Every weight of rank n <= 3 with total at most 2, the zero weights too."""
    return [lam for n in (1, 2, 3) for lam in itertools.product(range(3), repeat=n)
            if sum(lam) <= 2]


def _single_basis_closure(lam):
    """The closure tested against one basis for all cells, as it was built
    before the span was split by cell."""
    n = len(lam)
    basis = IncrementalBasis()
    closure = [P for P in base_relations(lam) if basis.add(P.terms)]
    for P in closure:
        for beta in [make_root(k, k, False, n) for k in range(1, n + 1)]:
            Q = partial_op(beta, P)
            if not Q.is_zero() and basis.add(Q.terms):
                closure.append(Q)
    return tuple(closure)


def test_closure_per_cell_matches_a_single_basis():
    weights = _small_weights() + [(0, 1, 0, 1)]
    assert len(weights) == 20
    for lam in weights:
        assert ideal_generators(lam).closure == _single_basis_closure(lam), lam


def test_closure_is_homogeneous():
    n = 2
    for poly in ideal_generators((1, 1)).closure:
        monomials = list(poly.monomials())
        degrees = {sum(t) for t in monomials}
        weights = {polytope.weight_of(t, n) for t in monomials}
        assert len(degrees) == 1
        assert len(weights) == 1


def test_quotient_matches_point_count():
    # every nonzero weight of rank n <= 4 with total at most 2
    weights = [lam for n in (1, 2, 3, 4) for lam in itertools.product(range(3), repeat=n)
               if 1 <= sum(lam) <= 2]
    assert len(weights) == 30
    for lam in weights:
        assert quotient_graded_dims(lam) == polytope.graded_character(lam), lam


def test_quotient_drops_only_monomials_of_the_ideal(monkeypatch):
    # every monomial the walk drops as it reduces a cell normalizes to 0
    reduce_cell = grmod._reduce_cell
    dropped = []

    def recording(products, full):
        rank, drop = reduce_cell(products, full)
        dropped.extend(drop)
        return rank, drop

    monkeypatch.setattr(grmod, "_reduce_cell", recording)
    cases = 0
    for lam in _small_weights():
        n, max_degree = len(lam), polytope.max_point_degree(lam) + 1
        dropped.clear()
        assert quotient_graded_dims(lam, max_degree=max_degree) == (
            polytope.graded_character(lam)), lam
        for m in dropped:
            s = grmod._unpack(m, max_degree + 1, n * n)
            assert normal_form(mono(n, s), lam).is_zero(), (lam, s)
            cases += 1
    assert cases


def test_quotient_changes_when_a_two_term_row_is_dropped(monkeypatch):
    # negative control: dropping the pivot of a row with two entries as well
    # drops a monomial outside I(lambda), and some table changes
    def reduce_cell(products, full):
        basis = IncrementalBasis()
        for vec in products:
            if vec:
                basis.add(vec)
        return basis.rank, [p for p, row in basis.rows if len(row) <= 2]

    want = {lam: quotient_graded_dims(lam) for lam in _small_weights()}
    monkeypatch.setattr(grmod, "_reduce_cell", reduce_cell)
    assert any(quotient_graded_dims(lam) != table for lam, table in want.items())


def test_quotient_rejects_a_bad_max_degree():
    for bad in (-1, True, False, 2.0, "3", Fraction(2)):
        with pytest.raises(ValueError, match="max_degree"):
            quotient_graded_dims((1, 1), max_degree=bad)
    assert quotient_graded_dims((1, 1), max_degree=0) == {((0, 0), 0): 1}


def test_quotient_packing_base_does_not_carry():
    # exponents and cells are packed in a base set by max_degree; a base too
    # small would carry between coordinates and change the table
    for lam in ((1, 1), (0, 1, 0), (1, 0, 1)):
        default = quotient_graded_dims(lam)
        wider = quotient_graded_dims(
            lam, max_degree=polytope.max_point_degree(lam) + 3
        )
        assert wider == default == polytope.graded_character(lam), lam


@functools.lru_cache(maxsize=None)
def _packed_cells(n, max_degree):
    """Every exponent of degree <= max_degree by (weight, degree), each
    packed in base max_degree + 1."""
    return {
        cell: [grmod._pack(s, max_degree + 1) for s in monos]
        for cell, monos in _cell_exponents(n, max_degree).items()
    }


def _listing_quotient_dims(lam, max_degree):
    """The quotient dimensions by listing every monomial of each cell and row
    reducing all closure multiples in it, standard or not: the method that
    the walk over standard monomials replaced, kept as a reference."""
    n = len(lam)
    cells = _packed_cells(n, max_degree)
    base, cell_base = max_degree + 1, 4 * max_degree + 1
    lift = grmod._pack([2 * max_degree] * (n + 1), cell_base)
    shifts_by_cell = {
        grmod._pack((d, *mu), cell_base) + lift: monos
        for (mu, d), monos in cells.items()
    }
    by_bidegree = {}
    for g in ideal_generators(lam).closure:
        mono = next(iter(g.terms))
        d = sum(mono)
        if d <= max_degree:
            key = grmod._pack((d, *polytope.weight_of(mono, n)), cell_base)
            by_bidegree.setdefault(key, []).append(
                {grmod._pack(s, base): c for s, c in g.terms.items()}
            )
    table = {}
    for (mu, d), monos in sorted(cells.items()):
        basis = IncrementalBasis()
        here = grmod._pack((d, *mu), cell_base) + lift
        products = (
            {s + t: c for s, c in g.items()}
            for gkey, gens_here in by_bidegree.items()
            for t in shifts_by_cell.get(here - gkey, ())
            for g in gens_here
        )
        for vec in products:
            basis.add(vec)
            if basis.rank == len(monos):
                break
        if len(monos) > basis.rank:
            table[(mu, d)] = len(monos) - basis.rank
    return table


def test_quotient_matches_the_listing_reference():
    cases = 0
    for n in (1, 2, 3):
        for lam in itertools.product(range(3), repeat=n):
            if sum(lam) > 2:
                continue
            default = polytope.max_point_degree(lam) + 1
            for max_degree in (default, default + 2):
                want = _listing_quotient_dims(lam, max_degree)
                got = quotient_graded_dims(lam, max_degree=max_degree)
                assert got == want, (lam, max_degree)
                assert list(got.items()) == list(want.items()), (lam, max_degree)
                cases += 1
    assert cases == 2 * (3 + 6 + 10)
    _packed_cells.cache_clear()


def test_quotient_rejects_a_bad_cap():
    for bad in (True, False, 2.5, "9", None, 0, -1, Fraction(3)):
        with pytest.raises(ValueError, match="cap"):
            quotient_graded_dims((1, 1), cap=bad)


def test_quotient_cap_bounds_standard_monomials_before_any_reduction(monkeypatch):
    # the walk reduces each degree before it forms the next, so the cap
    # cannot come before every reduction; it bounds the kept candidates of a
    # cell and comes before any cell of that cell's degree is reduced
    lam, max_degree = (0, 0, 1), polytope.max_point_degree((0, 0, 1)) + 1
    gens = ideal_generators(lam)
    monkeypatch.setattr(grmod, "ideal_generators", lambda lam: gens)
    widths = []  # (degree, candidates) per cell, as the walk forms them
    next_degree = grmod._next_degree

    def recording(level, *args):
        out = next_degree(level, *args)
        widths.extend(
            (grmod._unpack(cell, 4 * max_degree + 1, len(lam) + 1)[-1] - 2 * max_degree,
             len(monos))
            for cell, monos in out.items())
        return out

    monkeypatch.setattr(grmod, "_next_degree", recording)
    default = quotient_graded_dims(lam)
    widest = max(width for _, width in widths)
    assert widest > 1
    first_over = min(d for d, width in widths if width == widest)
    assert quotient_graded_dims(lam, cap=widest) == default
    reduced = []  # the degree of every vector added to a cell's basis
    add = IncrementalBasis.add

    def record(self, vec):
        reduced.append(sum(grmod._unpack(min(vec), max_degree + 1, len(lam) ** 2)))
        return add(self, vec)

    monkeypatch.setattr(IncrementalBasis, "add", record)
    with pytest.raises(ValueError, match=rf", {first_over}\) has {widest} monomials,"
                                         rf" above the cap {widest - 1}$"):
        quotient_graded_dims(lam, cap=widest - 1)
    assert reduced and max(reduced) < first_over


def test_closure_coefficients_are_ints():
    cases = 0
    for n in (1, 2, 3):
        for lam in itertools.product(range(3), repeat=n):
            if sum(lam) > 2:
                continue
            for poly in ideal_generators(lam).closure:
                assert all(type(c) is int for c in poly.terms.values())
                cases += 1
    assert cases


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

def _brute_force(n, top, keep):
    """Every exponent with entries 0..top that `keep` accepts, in tuple order."""
    return [s for s in itertools.product(range(top + 1), repeat=n * n) if keep(s)]


def _cell_exponents(n, max_degree):
    """Every exponent of degree <= max_degree, in tuple order, grouped by
    (weight, degree)."""
    cells = {}
    for s in polytope.lattice_points(n * n, [(range(n * n), max_degree)]):
        cells.setdefault((polytope.weight_of(s, n), sum(s)), []).append(s)
    return cells


def _single_terms(lam, max_degree):
    """The exponents of the single-term closure elements up to max_degree."""
    return [
        s for g in ideal_generators(lam).closure for s in g.terms
        if len(g.terms) == 1 and sum(s) <= max_degree
    ]


def test_standard_monomials_match_brute_force():
    # one degree step at a time, with only the single-term elements
    # forbidden and nothing dropped, the walk lists the standard monomials
    for lam, max_degree in (((3,), 6), ((1, 0), 4), ((1, 1), 5), ((0, 2), 4),
                            ((0, 1, 0), 3), ((1, 0, 1), 3)):
        n = len(lam)
        single = _single_terms(lam, max_degree)
        assert single, lam

        def standard(s):
            return sum(s) <= max_degree and not any(
                all(a >= b for a, b in zip(s, g)) for g in single
            )

        expected = {}
        for s in _brute_force(n, max_degree, standard):
            expected.setdefault((polytope.weight_of(s, n), sum(s)), set()).add(s)
        forbidden = {grmod._pack(s, max_degree + 1) for s in single}
        lift = 2 * max_degree
        level = {grmod._pack([lift] * (n + 1), 4 * max_degree + 1): {0: 0}}
        found = {}
        for degree in range(max_degree + 1):
            if degree:
                level = grmod._next_degree(level, n, max_degree, forbidden)
            for cell, monos in level.items():
                *mu, d = (x - lift for x in grmod._unpack(cell, 4 * max_degree + 1, n + 1))
                found[(tuple(mu), d)] = {
                    grmod._unpack(t, max_degree + 1, n * n) for t in monos}
        assert found == expected, lam


def test_minimal_violations_match_brute_force():
    for lam in ((3,), (1, 1), (0, 2), (1, 0, 0), (0, 0, 1)):
        n = len(lam)
        idx = root_index_map(n)
        for path in enumerate_paths(n):
            total = path_bound(lam, path[0], path[-1]) + 1
            off = [i for i in range(n * n) if i not in {idx[a] for a in path}]
            expected = _brute_force(
                n, total, lambda s: sum(s) == total and not any(s[i] for i in off)
            )
            assert minimal_violations(lam, path) == expected, (lam, path)


def test_minimal_violations_equal_the_filtered_listing():
    # the walk's listing of every path-supported exponent of degree at most
    # bound + 1, kept at degree bound + 1, in the same order
    for n in range(1, 5):
        for lam in itertools.product(range(3), repeat=n):
            if sum(lam) > 2:
                continue
            for path, coords, a, b in polytope._path_table(n):
                assert list(coords) == sorted(coords)  # read as increasing
                total = sum(lam[a:b]) + 1
                listed = polytope.lattice_points(n * n, [(coords, total)])
                expected = [s for s in listed if sum(s) == total]
                assert minimal_violations(lam, path) == expected, (lam, path)


def test_minimal_violations_counts():
    lam = (1, 0)
    counts = [len(minimal_violations(lam, path)) for path in enumerate_paths(2)]
    assert counts == [1, 6, 6, 1]
    for path in enumerate_paths(2):
        bound = sum(minimal_violations(lam, path)[0])
        for s in minimal_violations(lam, path):
            assert sum(s) == bound


def test_minimal_violations_refuse_a_non_path():
    a11, a22 = make_root(1, 1, False, 2), make_root(2, 2, False, 2)
    with pytest.raises(ValueError, match=r"clause \(c\): .* is not a successor of"):
        minimal_violations((1, 1), (a11, a22))


def test_minimal_violations_refuse_a_root_of_another_rank():
    with pytest.raises(ValueError, match="is not a positive root for rank 2"):
        minimal_violations((1, 1), (make_root(3, 3, False, 3),))


def test_minimal_violations_refuse_the_empty_path():
    with pytest.raises(ValueError, match="empty sequence"):
        minimal_violations((1, 1), ())


def test_normal_form_stops_at_its_step_limit(monkeypatch):
    monkeypatch.setattr(grmod, "NORMAL_FORM_STEPS", 0)
    with pytest.raises(RuntimeError, match="normal form did not terminate within 0 steps"):
        normal_form(SparsePolynomial.monomial(2, (1, 1, 0, 0)), (1, 0))


def test_straightening_frozen_constants():
    n2 = 2
    a11 = make_root(1, 1, False, n2)
    a12 = make_root(1, 2, False, n2)
    hook = make_root(1, 1, True, n2)
    a22 = make_root(2, 2, False, n2)

    element, lead = straightening_element((1, 0), (a11, a12, hook), (1, 1, 0, 0))
    assert lead == -16
    assert element.terms == {(1, 1, 0, 0): Fraction(-16)}

    element, lead = straightening_element((1, 0), (a11, a12, a22), (1, 1, 0, 0))
    assert lead == 8
    assert element.terms == {(1, 1, 0, 0): Fraction(8)}

    element, lead = straightening_element((0, 1), (a11, a12, hook), (0, 2, 0, 0))
    assert lead == 8
    assert element.terms == {
        (0, 2, 0, 0): Fraction(8),
        (0, 0, 1, 1): Fraction(8),
    }

    element, lead = straightening_element((2,), (make_root(1, 1, False, 1),), (3,))
    assert lead == 1
    assert element.terms == {(3,): Fraction(1)}

    # a path starting on row 2 at rank 3, inside the sp_4 corner
    n3 = 3
    corner_path = (make_root(2, 2, False, n3), make_root(2, 3, False, n3),
                   make_root(2, 2, True, n3))
    s = (0, 0, 0, 0, 0, 0, 2, 0, 0)
    element, lead = straightening_element((0, 1, 0), corner_path, s)
    assert lead == 8
    assert element.terms == {
        s: Fraction(8),
        (0, 0, 0, 0, 0, 0, 0, 1, 1): Fraction(8),
    }


def test_straightening_elements_lie_in_the_ideal():
    # each straightening element reduces to zero against the closure span
    lam = (0, 1)
    n = 2
    for path in enumerate_paths(n):
        for s in minimal_violations(lam, path):
            element, _ = straightening_element(lam, path, s)
            assert normal_form(element, lam).is_zero(), (path, s)


def _closure_cell_basis(closure, n, weight, degree):
    """Row-reduced span of the monomial multiples of the closure elements in
    the (weight, degree) cell."""
    basis = IncrementalBasis()
    shifts = _cell_exponents(n, degree)
    for g in closure:
        t0 = next(iter(g.terms))
        rest = tuple(a - b for a, b in zip(weight, polytope.weight_of(t0, n)))
        for t in shifts.get((rest, degree - sum(t0)), ()):
            basis.add(g.shift(t).terms)
    return basis


def test_corner_straightening_elements_lie_in_the_closure_span():
    # checked by row reduction alone, not through normal_form: every element
    # of a path that starts below row 1 is a combination of closure multiples
    n = 3
    cases = 0
    for lam in itertools.product(range(3), repeat=n):
        if sum(lam) > 2:
            continue
        closure = ideal_generators(lam).closure
        cells = {}
        for path in enumerate_paths(n):
            if path[0].row == 1:
                continue
            for s in minimal_violations(lam, path):
                element, _ = straightening_element(lam, path, s)
                cell = (polytope.weight_of(s, n), sum(s))
                if cell not in cells:
                    cells[cell] = _closure_cell_basis(closure, n, *cell)
                assert not cells[cell].residual(element.terms), (lam, path, s)
                cases += 1
    assert cases


def test_straightening_element_raises_when_the_lead_vanishes(monkeypatch):
    a11, a12, hook = (make_root(1, 1, False, 2), make_root(1, 2, False, 2),
                      make_root(1, 1, True, 2))
    monkeypatch.setattr(
        grmod, "apply_partial_power", lambda beta, P, e: SparsePolynomial(P.n)
    )
    grmod._element.cache_clear()  # an element found in the cache is not rebuilt
    with pytest.raises(RuntimeError, match="lost its leading term"):
        straightening_element((1, 0), (a11, a12, hook), (1, 1, 0, 0))


def test_straightening_plan_validates_input():
    n = 2
    lam = (1, 0)
    a11 = make_root(1, 1, False, n)
    a12 = make_root(1, 2, False, n)
    a22 = make_root(2, 2, False, n)
    with pytest.raises(ValueError):
        straightening_plan(lam, (a12, a22), (0, 1, 0, 1))  # not a Dyck path
    with pytest.raises(ValueError):
        straightening_plan(lam, (a11,), (0, 1, 0, 0))  # support off the path
    with pytest.raises(ValueError):
        straightening_plan(lam, (a11,), (1, 0, 0, 0))  # below the bound
    # the exponent rule of polytope.first_broken (n^2 entries, each an int
    # and not a bool) and no negative entry, for the plan and the element
    hook = make_root(1, 1, True, n)
    for path, s, why in [
        ((a11,), (2.5, 0, 0, 0), "ints"),
        ((a11, a12, hook), (True, True, True, 0), "ints"),
        ((a11, a12, hook), (2,), "4 coordinates"),
        ((a11, a12, hook), (2, 0, 0, 0, 0), "4 coordinates"),
        ((a11, a12, hook), (3, -1, 0, 0), "non-negative"),
    ]:
        for build in (straightening_plan, straightening_element):
            with pytest.raises(ValueError, match=why):
                build(lam, path, s)
    # a path is found by lookup in the path table; a miss gives the clause
    # text of dyck.is_dyck_path, for a tuple and a list alike, from the plan,
    # the element and minimal_violations
    s = (0, 3, 0, 0)
    for seq, why in [
        ((a12, a22), r"^clause \(a\): first root a\[1,2\] is not simple$"),
        ((a11, a12), r"^clause \(b\): last root a\[1,2\] is neither simple nor of the"
                     r" form alpha_\(j,bar\(j\)\)$"),
        ((a11, a22), r"^clause \(c\): a\[2,2\] is not a successor of a\[1,1\]$"),
        ((make_root(3, 3, False, 3),), r"^a\[3,3\] is not a positive root for rank 2$"),
    ]:
        for path in (seq, list(seq)):
            for build in (straightening_plan, straightening_element,
                          lambda lam, path, s: minimal_violations(lam, path)):
                with pytest.raises(ValueError, match=why):
                    build(lam, path, s)
    path = (a11, a12, hook)
    assert straightening_plan(lam, list(path), s) == straightening_plan(lam, path, s)
    assert minimal_violations(lam, list(path)) == minimal_violations(lam, path)


def test_normal_form_refuses_a_negative_exponent():
    # a term with a negative entry is refused at the entry, not dropped or
    # straightened as if it lay outside the polytope
    for terms in ({(0, 0, -1, 5): 1, (0, 0, 1, 0): 2}, {(5, -1, 0, 0): 1},
                  {(-1, 0, 0, 0): 1}):
        P = SparsePolynomial(2, terms)
        bad = next(s for s in terms if min(s) < 0)
        with pytest.raises(ValueError, match=rf"non-negative, got {re.escape(repr(bad))}"):
            normal_form(P, (1, 1))
        with pytest.raises(ValueError, match="non-negative"):
            grmod.straighten_step(P, bad, (1, 1))


def test_normal_form_hand_values():
    n = 2
    assert normal_form(mono(n, (1, 1, 0, 0)), (1, 0)).is_zero()
    nf = normal_form(mono(n, (0, 2, 0, 0)), (0, 1))
    assert nf.terms == {(0, 0, 1, 1): Fraction(-1)}


def test_straighten_step_removes_the_monomial():
    # f_{1,2}^2 breaks the path a[1,1] -> a[1,2] -> a[1,1~] at lambda = (0,1);
    # the off-path factor f_{2,2} shifts the element and the coefficient 3 scales it
    n = 2
    lam = (0, 1)
    s = (0, 2, 0, 1)
    path, element, rest = grmod.straighten_step(mono(n, s, 3), s, lam)
    assert path == (make_root(1, 1, False, n), make_root(1, 2, False, n),
                    make_root(1, 1, True, n))
    assert element.terms == {(0, 2, 0, 0): Fraction(8), (0, 0, 1, 1): Fraction(8)}
    assert rest.terms == {(0, 0, 1, 2): Fraction(-3)}
    with pytest.raises(RuntimeError, match="breaks nothing"):
        grmod.straighten_step(mono(n, (0, 0, 1, 1)), (0, 0, 1, 1), lam)


def test_normal_form_fixes_polytope_points():
    lam = (1, 1)
    n = 2
    for s in polytope.enumerate_points(lam):
        p = mono(n, s, 5)
        assert normal_form(p, lam).terms == p.terms


def test_normal_form_lands_in_the_polytope():
    lam = (1, 0)
    n = 2
    rng = random.Random(17)
    for _ in range(40):
        s = tuple(rng.randint(0, 2) for _ in range(n * n))
        nf = normal_form(mono(n, s), lam)
        assert all(polytope.contains(lam, t) for t in nf.monomials())


def test_normal_form_coefficients_are_exact():
    # the element's lead rarely divides the coefficient it must cancel; the
    # quotient is then a Fraction, and no coefficient is ever a float
    nf = normal_form(mono(2, (0, 2, 2, 0)), (2, 1))
    assert list(nf.terms.values()) == [Fraction(-1, 3)]
    rng = random.Random(5)
    cases = [((2, 1), (0, 2, 2, 0), 1)] + [
        (lam, tuple(rng.randint(0, 2) for _ in range(len(lam) ** 2)), coeff)
        for lam in ((2, 1), (1, 1), (0, 1, 0), (1, 1, 0))
        for coeff in (1, 3, Fraction(1, 2))
        for _ in range(8)
    ]
    kinds = set()
    for lam, s, coeff in cases:
        for c in normal_form(mono(len(lam), s, coeff), lam).terms.values():
            assert type(c) in (int, Fraction), (lam, s, c)
            kinds.add(type(c))
    assert kinds == {int, Fraction}


def _violations(lam) -> list:
    return [s for path in enumerate_paths(len(lam)) for s in minimal_violations(lam, path)]


def _terms(P) -> list:
    return [(s, c, type(c)) for s, c in P.terms.items()]


def test_normal_forms_agree_with_a_cold_and_a_warm_element_cache():
    # straighten_step takes each element from a cache; a normal form reads
    # the same, term for term and in item order, whether every element it
    # needs is built afresh or every one is found in the cache
    for lam in ((1, 1, 1), (0, 1, 1)):
        n = len(lam)
        cold = []
        for s in _violations(lam):
            grmod._element.cache_clear()
            cold.append(_terms(normal_form(mono(n, s), lam)))
        for s in _violations(lam):  # fill the cache
            normal_form(mono(n, s), lam)
        warm_start = grmod._element.cache_info()
        warm = [_terms(normal_form(mono(n, s), lam)) for s in _violations(lam)]
        warm_end = grmod._element.cache_info()
        assert warm == cold, lam
        assert warm_end.hits > warm_start.hits, lam
        assert warm_end.misses == warm_start.misses, lam


def test_cached_elements_equal_fresh_ones_after_use(monkeypatch):
    # each element is built once, and what the cache returns after every
    # normal form has used it is what straightening_element computes anew
    built = []
    schedule = grmod._schedule

    def recorded(*args):
        built.append(args)
        return schedule(*args)

    monkeypatch.setattr(grmod, "_schedule", recorded)
    grmod._element.cache_clear()
    lam, n = (1, 1, 1), 3
    for s in _violations(lam):
        normal_form(mono(n, s, 3), lam)
    misses = grmod._element.cache_info().misses
    assert misses and misses == len(built) == len(set(built))
    cached = {key: grmod._element(*key) for key in built}
    assert grmod._element.cache_info().misses == misses  # every lookup was a hit
    grmod._element.cache_clear()  # so that straightening_element builds each anew
    for (_, row, s), (element, lead) in cached.items():
        path = polytope._path_table(n)[row][0]
        fresh, fresh_lead = straightening_element(lam, path, s)
        assert lead == fresh_lead and _terms(element) == _terms(fresh), (row, s)
    assert grmod._element.cache_info().misses == misses  # one build each
    grmod._element.cache_clear()


def _hit_across_weights_and_bound_checked(element_of):
    """Check that an element built at (1,1,1) on a path from row 2 is a
    cache hit at (0,1,1), and that a weight whose bound s does not exceed
    raises ValueError though the element is cached."""
    n = 3
    path = next(p for p in enumerate_paths(n) if p[0].row == 2 and len(p) > 1)
    s = minimal_violations((1, 1, 1), path)[0]
    assert minimal_violations((0, 1, 1), path)[0] == s  # the same bound on row 2
    grmod._element.cache_clear()
    built = element_of((1, 1, 1), path, s)
    before = grmod._element.cache_info()
    again = element_of((0, 1, 1), path, s)
    after = grmod._element.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses
    assert _terms(again[0]) == _terms(built[0]) and again[1] == built[1]
    with pytest.raises(ValueError, match="does not exceed the path bound"):
        element_of((0, 2, 1), path, s)  # bound 3 = sum(s)
    grmod._element.cache_clear()


def test_elements_are_shared_across_weights_and_still_bounded():
    _hit_across_weights_and_bound_checked(straightening_element)
    # negative control: a lookup that skips the per-weight bound check
    # answers from the cache at the weight whose bound is not exceeded

    def unchecked(lam, path, s):
        n = len(lam)
        return grmod._element(n, grmod._path_row(path, n), s)

    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        _hit_across_weights_and_bound_checked(unchecked)
    grmod._element.cache_clear()


def test_a_cached_element_builds_no_schedule(monkeypatch):
    # the first call builds the schedule once; a second call, at the same
    # weight or another whose bound s exceeds, is a cache hit that builds
    # none, and a weight whose bound s does not exceed is still refused
    calls = []
    schedule = grmod._schedule

    def counted(*args):
        calls.append(args)
        return schedule(*args)

    monkeypatch.setattr(grmod, "_schedule", counted)
    grmod._element.cache_clear()
    n = 3
    path = next(p for p in enumerate_paths(n) if p[0].row == 2 and len(p) > 1)
    s = minimal_violations((1, 1, 1), path)[0]
    first = straightening_element((1, 1, 1), path, s)
    assert len(calls) == 1
    for lam in ((1, 1, 1), (0, 1, 1)):
        again = straightening_element(lam, path, s)
        assert _terms(again[0]) == _terms(first[0]) and again[1] == first[1]
    assert len(calls) == 1
    with pytest.raises(ValueError, match="does not exceed the path bound"):
        straightening_element((0, 2, 1), path, s)
    assert len(calls) == 1
    grmod._element.cache_clear()


def test_minimal_violations_refuses_a_huge_list_before_listing(monkeypatch):
    # the path a[1,1] -> a[1,2] -> a[1,1~] at (1,1) bounds 3 roots by 2, so
    # its exponents of degree 3 number comb(5, 2) = 10
    path = (make_root(1, 1, False, 2), make_root(1, 2, False, 2),
            make_root(1, 1, True, 2))
    monkeypatch.setattr(polytope, "POINT_LIMIT", 10)
    listed = minimal_violations((1, 1), path)
    assert len(listed) == 10 and all(sum(s) == 3 for s in listed)
    monkeypatch.setattr(polytope, "POINT_LIMIT", 9)
    with pytest.raises(ValueError, match=r"^a path of 3 roots has 10 exponents of"
                       r" degree 3, above the limit 9 for listing them$"):
        minimal_violations((1, 1), path)


def _reference_step(P, s, lam):
    """P with f^s cancelled by polynomial arithmetic on new polynomials."""
    path = violated_inequality(lam, s).path
    on_path = {root_index_map(P.n)[alpha] for alpha in path}
    s1 = tuple(x if i in on_path else 0 for i, x in enumerate(s))
    element, lead = straightening_element(lam, path, s1)
    rest = tuple(a - b for a, b in zip(s, s1))
    return P - element.shift(rest).scale(exact_quotient(P.terms[s], lead))


def _reference_normal_form(P, lam):
    """The rescanning loop that normal_form replaced: every step rescans
    every term with contains and cancels the earliest outside monomial."""
    n = len(lam)
    for _ in range(grmod.NORMAL_FORM_STEPS):
        outside = [s for s in P.terms if not polytope.contains(lam, s)]
        if not outside:
            return P
        s = min(outside, key=lambda t: order_key(t, n))
        P = _reference_step(P, s, lam)
    raise RuntimeError("the reference normal form did not terminate")


def test_normal_form_matches_the_rescanning_reference():
    # term for term, with value, type and dict item order, at every minimal
    # violation with n <= 3 and sum(lambda) <= 3, with coefficients 1 and 3;
    # the first step also equals straighten_step
    cases = 0
    for n in (1, 2, 3):
        for lam in itertools.product(range(4), repeat=n):
            if sum(lam) > 3:
                continue
            for s in _violations(lam):
                for coeff in (1, 3):
                    P = mono(n, s, coeff)
                    expected = _reference_normal_form(P, lam)
                    assert _terms(normal_form(P, lam)) == _terms(expected), (lam, s)
                    cases += 1
                P = mono(n, s, 3) + mono(n, (0,) * (n * n))
                assert _terms(grmod.straighten_step(P, s, lam)[2]) == _terms(
                    _reference_step(P, s, lam)), (lam, s)
    assert cases == 13116


def test_violated_inequality_detects_breaks():
    lam = (1, 0)
    assert violated_inequality(lam, (0, 0, 0, 0)) is None
    ineq = violated_inequality(lam, (2, 0, 0, 0))
    assert ineq is not None
    assert sum((2, 0, 0, 0)[root_index_map(2)[a]] for a in ineq.path) > ineq.bound
    # an exponent of the wrong rank is rejected, not scanned
    for s in ((0, 0, 0, 0, 0, 9), (1, 2, 3)):
        with pytest.raises(ValueError):
            violated_inequality((1, 1), s)
