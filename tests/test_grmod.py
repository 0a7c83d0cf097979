"""Tests for polynomials, the monomial order, derivations, ideals, and straightening."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from sympbw import grmod, polytope
from sympbw.dyck import enumerate_paths
from sympbw.grmod import (
    SparsePolynomial,
    _monomials_by_cell,
    apply_partial_power,
    base_relations,
    column_sum,
    d_vector,
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
from sympbw.rootsys import (
    chevalley_realization,
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
    for beta, alpha, target in cases:
        result = partial_op(beta, SparsePolynomial.variable_power(alpha, 1, n))
        if target is None:
            assert result.is_zero(), (beta, alpha)
        else:
            expected = [0] * (n * n)
            expected[idx[target]] = 1
            assert result.terms == {tuple(expected): Fraction(1)}, (beta, alpha)


def test_partial_acts_as_derivation():
    rng = random.Random(21)
    n = 2
    roots = positive_roots(n)
    for variant in ("unit", "chevalley"):
        for _ in range(25):
            p = mono(n, tuple(rng.randint(0, 2) for _ in range(n * n)),
                     rng.randint(1, 3))
            q = mono(n, tuple(rng.randint(0, 2) for _ in range(n * n)))
            beta = rng.choice(roots)
            left = partial_op(beta, p * q, variant)
            right = partial_op(beta, p, variant) * q + p * partial_op(
                beta, q, variant)
            assert left.terms == right.terms


def test_partial_chevalley_scales_by_bracket_constant():
    for n in (2, 3):
        real = chevalley_realization(n)
        for beta in positive_roots(n):
            for alpha in positive_roots(n):
                p = SparsePolynomial.variable_power(alpha, 1, n)
                unit = partial_op(beta, p, "unit")
                chev = partial_op(beta, p, "chevalley")
                assert set(unit.terms) == set(chev.terms)
                for t, c in chev.terms.items():
                    assert c == real.ad_root_coeff(beta, alpha) * unit.terms[t]


def test_partial_rejects_unknown_variant():
    with pytest.raises(ValueError):
        partial_op(simple_root(1), mono(2, (1, 0, 0, 0)), "other")


def test_apply_partial_power_iterates():
    n = 2
    p = mono(n, (0, 2, 0, 0))
    beta = simple_root(1)
    once = partial_op(beta, p, "chevalley")
    twice = partial_op(beta, once, "chevalley")
    assert apply_partial_power(beta, p, 2, "chevalley").terms == twice.terms


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
    assert len(ideal_generators((1, 0), variant="unit").closure) == 10
    assert len(ideal_generators((0, 1), variant="unit").closure) == 10


def test_closure_is_homogeneous():
    n = 2
    for poly in ideal_generators((1, 1)).closure:
        monomials = list(poly.monomials())
        degrees = {sum(t) for t in monomials}
        weights = {polytope.weight_of(t, n) for t in monomials}
        assert len(degrees) == 1
        assert len(weights) == 1


def test_quotient_matches_point_count_both_variants():
    for lam in ((1, 0), (0, 1), (1, 1), (2, 0)):
        want = polytope.graded_character(lam)
        assert quotient_graded_dims(lam, variant="chevalley") == want, lam
        assert quotient_graded_dims(lam, variant="unit") == want, lam


def test_unit_variant_diverges_at_rank_three():
    # closing the ideal with the unit-coefficient derivations overshoots for
    # the second fundamental weight at rank 3: the closure picks up elements
    # outside the true ideal and five cells of the quotient collapse.  The
    # bracket-coefficient closure stays exact.  Frozen as a regression.
    lam = (0, 1, 0)
    want = polytope.graded_character(lam)
    assert len(ideal_generators(lam, variant="chevalley").closure) == 38
    assert len(ideal_generators(lam, variant="unit").closure) == 46
    assert quotient_graded_dims(lam, variant="chevalley") == want
    unit = quotient_graded_dims(lam, variant="unit")
    assert unit != want
    missing = sorted(set(want) - set(unit))
    assert missing == [
        ((1, 2, 1), 2), ((1, 3, 1), 2), ((1, 3, 2), 2),
        ((2, 3, 1), 2), ((2, 3, 2), 2),
    ]
    assert all(want[cell] == 1 for cell in missing)
    assert not set(unit) - set(want)


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

def _brute_force(n, top, keep):
    """Every exponent with entries 0..top that `keep` accepts, in tuple order."""
    return [s for s in itertools.product(range(top + 1), repeat=n * n) if keep(s)]


def test_monomials_by_cell_match_brute_force():
    for n, max_degree in ((1, 4), (2, 3), (3, 2)):
        expected = {}
        for s in _brute_force(n, max_degree, lambda s: sum(s) <= max_degree):
            expected.setdefault((polytope.weight_of(s, n), sum(s)), []).append(s)
        cells = _monomials_by_cell(n, max_degree)
        assert list(cells.items()) == list(expected.items())


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


def test_minimal_violations_counts():
    lam = (1, 0)
    counts = [len(minimal_violations(lam, path)) for path in enumerate_paths(2)]
    assert counts == [1, 6, 6, 1]
    for path in enumerate_paths(2):
        bound = sum(minimal_violations(lam, path)[0])
        for s in minimal_violations(lam, path):
            assert sum(s) == bound


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


def test_straightening_elements_lie_in_the_ideal():
    # each straightening element reduces to zero against the closure span
    lam = (0, 1)
    n = 2
    for path in enumerate_paths(n):
        for s in minimal_violations(lam, path):
            element, _ = straightening_element(lam, path, s)
            assert normal_form(element, lam).is_zero(), (path, s)


def test_straightening_element_raises_when_the_lead_vanishes(monkeypatch):
    a11, a12, hook = (make_root(1, 1, False, 2), make_root(1, 2, False, 2),
                      make_root(1, 1, True, 2))
    monkeypatch.setattr(
        grmod, "apply_partial_power", lambda beta, P, e, variant: SparsePolynomial(P.n)
    )
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


def test_normal_form_hand_values():
    n = 2
    assert normal_form(mono(n, (1, 1, 0, 0)), (1, 0)).is_zero()
    nf = normal_form(mono(n, (0, 2, 0, 0)), (0, 1))
    assert nf.terms == {(0, 0, 1, 1): Fraction(-1)}


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
