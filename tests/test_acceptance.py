"""Acceptance battery: nine exact end-to-end checks, one pass/fail line each.

Every equality below is an integer or rational identity checked with zero
tolerance.  Each test prints a single summary line so a full run reads as a
nine-point checklist.
"""

from __future__ import annotations

import itertools
import random

from sympbw import decomp, dyck, oracle, polytope
from sympbw.grmod import (
    SparsePolynomial,
    ideal_generators,
    minimal_violations,
    monomial_compare,
    normal_form,
    order_key,
    partial_op,
    quotient_graded_dims,
    straightening_element,
)
from sympbw.linalg import IncrementalBasis
from sympbw.rootsys import (
    chevalley_realization,
    make_root,
    positive_roots,
    root_index_map,
)


def _report(capfd, num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    with capfd.disabled():
        print(f"[{num}/9] {name}: {status}", flush=True)
    assert not failures, f"{name}: first failures {failures[:5]}"


def _weights(max_n: int, max_total: int, per_entry: int | None = None,
             lo: int = 0):
    for n in range(1, max_n + 1):
        top = max_total if per_entry is None else per_entry
        for lam in itertools.product(range(top + 1), repeat=n):
            if lo <= sum(lam) <= max_total:
                yield lam


# ---------------------------------------------------------------------------
# 1. dimension identity
# ---------------------------------------------------------------------------

def test_point_count_equals_weyl_dimension(capfd):
    failures = []
    for lam in _weights(4, 4, per_entry=2):
        count = polytope.point_count(lam)
        weyl = polytope.weyl_dim(lam)
        if count != weyl:
            failures.append((lam, count, weyl))
    for i in range(1, 6):
        lam = tuple(1 if k == i else 0 for k in range(1, 6))
        count = polytope.point_count(lam)
        weyl = polytope.weyl_dim(lam)
        if count != weyl:
            failures.append((lam, count, weyl))
    _report(capfd, 1, "point count = Weyl dimension", failures)


# ---------------------------------------------------------------------------
# 2. character identity
# ---------------------------------------------------------------------------

def test_character_matches_freudenthal(capfd):
    cases = list(_weights(3, 3))
    cases += [lam for lam in _weights(4, 2) if len(lam) == 4 and sum(lam)]
    cases += [tuple(int(i == k) for i in range(5)) for k in range(5)]
    failures = []
    for lam in cases:
        if polytope.character(lam) != polytope.freudenthal_multiplicities(lam):
            failures.append(lam)
    _report(capfd, 2, "polytope character = Freudenthal character", failures)


# ---------------------------------------------------------------------------
# 3. three-way graded equality
# ---------------------------------------------------------------------------

def test_graded_dimensions_agree_three_ways(capfd):
    cases = list(_weights(2, 3, lo=0))
    cases += [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    failures = []
    for lam in cases:
        want = polytope.graded_character(lam)
        got_ideal = quotient_graded_dims(lam)
        got_oracle = oracle.pbw_filtration_dims(lam)
        if got_ideal != want:
            failures.append((lam, "ideal"))
        if dict(got_oracle) != dict(want):
            failures.append((lam, "oracle"))
    # rank 4, where the tensor-space module is too costly: ideal = polytope
    for lam in ((0, 0, 0, 1), (1, 0, 0, 1)):
        if quotient_graded_dims(lam) != polytope.graded_character(lam):
            failures.append((lam, "ideal"))
    _report(capfd, 3, "polytope = ideal quotient = filtration, graded", failures)


# ---------------------------------------------------------------------------
# 4. straightening leading-term law
# ---------------------------------------------------------------------------

def _monomials_of_degree(n: int, d: int):
    for combo in itertools.combinations_with_replacement(range(n * n), d):
        s = [0] * (n * n)
        for i in combo:
            s[i] += 1
        yield tuple(s)


def _keyed(poly: SparsePolynomial, n: int) -> dict:
    return {order_key(t, n): c for t, c in poly.terms.items()}


def _cell_representative(lam, s, closure) -> dict:
    """Row-reduction representative of f^s modulo the closure span, per cell."""
    n = len(lam)
    deg = sum(s)
    wt = polytope.weight_of(s, n)
    basis = IncrementalBasis()
    for g in closure:
        t0 = next(iter(g.terms))
        gdeg = sum(t0)
        if gdeg > deg:
            continue
        gwt = polytope.weight_of(t0, n)
        rest = tuple(a - b for a, b in zip(wt, gwt))
        if any(c < 0 for c in rest):
            continue
        for t in _monomials_of_degree(n, deg - gdeg):
            if polytope.weight_of(t, n) == rest:
                basis.add(_keyed(g.shift(t), n))
    return basis.residual(_keyed(SparsePolynomial.monomial(n, s), n))


def test_straightening_leading_terms_and_normal_forms(capfd):
    failures = []
    for lam in _weights(3, 2):
        n = len(lam)
        closure = ideal_generators(lam).closure
        for path in dyck.enumerate_paths(n):
            for s in minimal_violations(lam, path):
                element, lead = straightening_element(lam, path, s)
                if lead == 0 or element.coefficient(s) != lead:
                    failures.append((lam, s, "lead"))
                    continue
                for t in element.monomials():
                    if t != s and monomial_compare(s, t) != "less":
                        failures.append((lam, s, t, "order"))
                monomial = SparsePolynomial.monomial(n, s)
                nf = normal_form(monomial, lam)
                if not all(polytope.contains(lam, t) for t in nf.monomials()):
                    failures.append((lam, s, "support"))
                    continue
                if _keyed(nf, n) != _cell_representative(lam, s, closure):
                    failures.append((lam, s, "representative"))
    _report(capfd, 4, "straightening lead term + normal form vs row reduction",
            failures)


# ---------------------------------------------------------------------------
# 5. monomial-order laws
# ---------------------------------------------------------------------------

def _random_exponent(rng: random.Random, n: int, degree: int) -> tuple:
    s = [0] * (n * n)
    for _ in range(degree):
        s[rng.randrange(n * n)] += 1
    return tuple(s)


def test_order_laws_on_random_triples(capfd):
    rng = random.Random(20260821)
    rank = {"less": -1, "equal": 0, "greater": 1}
    failures = []
    total = 0
    for n in (1, 2, 3, 4):
        for _ in range(2600):
            total += 1
            d = rng.randint(1, 6)
            s, t, u = (_random_exponent(rng, n, d) for _ in range(3))
            trip = (n, s, t, u)
            for a, b in ((s, t), (t, u), (s, u)):
                ab, ba = monomial_compare(a, b), monomial_compare(b, a)
                if ab not in rank or rank[ab] != -rank[ba]:
                    failures.append((*trip, "antisymmetry"))
                if (ab == "equal") != (a == b):
                    failures.append((*trip, "equality"))
            ordered = sorted((s, t, u), key=lambda v: order_key(v, n))
            for a, b in itertools.combinations(ordered, 2):
                if monomial_compare(a, b) == "greater":
                    failures.append((*trip, "transitivity"))
            shift = _random_exponent(rng, n, rng.randint(0, 4))
            su = tuple(a + b for a, b in zip(s, shift))
            tu = tuple(a + b for a, b in zip(t, shift))
            if monomial_compare(su, tu) != monomial_compare(s, t):
                failures.append((*trip, shift, "multiplicativity"))
            if sum(shift) > 0 and monomial_compare(su, s) != "less":
                failures.append((*trip, shift, "degree dominance"))
    assert total >= 10**4
    _report(capfd, 5, "monomial-order laws on random triples", failures)


# ---------------------------------------------------------------------------
# 6. derivation-table fidelity
# ---------------------------------------------------------------------------

def _expected_unit_table(n: int) -> dict:
    """Every pair (beta, alpha) with alpha - beta a positive root, mapped to
    alpha - beta, by the rules for removing a root from an unbarred or barred
    variable."""
    table = {}

    def put(beta, alpha, target):
        key = (beta, alpha)
        assert table.get(key, target) == target
        table[key] = target

    for i in range(1, n + 1):
        for j in range(i, n + 1):
            alpha = make_root(i, j, False, n)
            for s in range(i, j):
                put(make_root(i, s, False, n), alpha,
                    make_root(s + 1, j, False, n))
            for s in range(i + 1, j + 1):
                put(make_root(s, j, False, n), alpha,
                    make_root(i, s - 1, False, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            alpha = make_root(i, j, True, n)
            for s in range(i, j):
                put(make_root(i, s, False, n), alpha,
                    make_root(s + 1, j, True, n))
            for s in range(j, n):
                put(make_root(i, s, False, n), alpha,
                    make_root(j, s + 1, True, n))
            for s in range(j + 1, n + 1):
                put(make_root(i, s, True, n), alpha,
                    make_root(j, s - 1, False, n))
            for s in range(i, j):
                put(make_root(s + 1, j, True, n), alpha,
                    make_root(i, s, False, n))
            for s in range(j, n):
                put(make_root(j, s + 1, True, n), alpha,
                    make_root(i, s, False, n))
            for s in range(j + 1, n + 1):
                put(make_root(j, s - 1, False, n), alpha,
                    make_root(i, s, True, n))
    return table


def test_derivation_table(capfd):
    failures = []
    for n in range(1, 6):
        expected = _expected_unit_table(n)
        idx = root_index_map(n)
        roots = positive_roots(n)
        real = chevalley_realization(n)
        for beta in roots:
            for alpha in roots:
                got = partial_op(beta, SparsePolynomial.variable_power(alpha, 1, n))
                coeff = real.ad_root_coeff(beta, alpha)
                target = expected.get((beta, alpha))
                if target is None:
                    if coeff or not got.is_zero():
                        failures.append((n, beta, alpha, "spurious"))
                    continue
                want = [0] * (n * n)
                want[idx[target]] = 1
                if not coeff:
                    failures.append((n, beta, alpha, "zero constant"))
                elif dict(got.terms) != {tuple(want): coeff}:
                    failures.append((n, beta, alpha, "wrong image"))
    _report(capfd, 6, "derivation table exact with nonzero Chevalley constants",
            failures)


# ---------------------------------------------------------------------------
# 7. peeling and fundamental combinatorics
# ---------------------------------------------------------------------------

def test_peeling_and_fundamental_counts(capfd):
    failures = []
    for lam in _weights(3, 3, lo=1):
        for s in polytope.enumerate_points(lam):
            try:
                markers = decomp.peel_completely(lam, s)
            except (ValueError, RuntimeError) as exc:
                failures.append((lam, s, repr(exc)))
                continue
            if len(markers) != sum(lam):
                failures.append((lam, s, "marker count"))
                continue
            total = [0] * len(s)
            for marker in markers:
                total = [a + b for a, b in zip(total, marker.exponent)]
            if tuple(total) != s:
                failures.append((lam, s, "marker sum"))
    for n in range(1, 7):
        for i in range(1, n + 1):
            lam = tuple(1 if k == i else 0 for k in range(1, n + 1))
            if decomp.fundamental_points(n, i) != polytope.enumerate_points(lam):
                failures.append((n, i, "fundamental points"))
    for n in range(1, 9):
        for i in range(1, n + 1):
            if not decomp.binomial_identity_check(n, i):
                failures.append((n, i, "binomial identity"))
    _report(capfd, 7, "peeling + fundamental point counts + binomial identity",
            failures)


# ---------------------------------------------------------------------------
# 8. tensor Cartan components
# ---------------------------------------------------------------------------

def test_tensor_cartan_component_tables(capfd):
    pairs = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)),
             ((0, 1), (0, 1)), ((1, 0, 0), (1, 0, 0))]
    failures = []
    for lam, mu in pairs:
        combined = tuple(a + b for a, b in zip(lam, mu))
        got = oracle.tensor_cartan_dims(lam, mu)
        want = oracle.pbw_filtration_dims(combined)
        if dict(got) != dict(want):
            failures.append((lam, mu))
    _report(capfd, 8, "tensor Cartan component = filtration of the sum", failures)


# ---------------------------------------------------------------------------
# 9. ordered monomials span the unfiltered module
# ---------------------------------------------------------------------------

def test_ordered_monomials_form_basis(capfd):
    failures = []
    for lam in _weights(2, 3):
        if len(lam) != 2:
            continue
        points = len(polytope.enumerate_points(lam))
        dim = oracle.build_module(lam).dimension
        rank = oracle.monomial_rank(lam)
        if not (points == dim == rank):
            failures.append((lam, points, dim, rank))
    _report(capfd, 9, "ordered monomial vectors have full rank", failures)
