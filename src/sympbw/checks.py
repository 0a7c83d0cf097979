"""The verification battery behind ``sympbw verify``.

Each check is a function of ``(max_n, max_weight, seed)`` returning its
reported parameters and an iterator that yields, for every case it examines,
the number of failures found in that case.  ``SUITES`` maps each suite to its
checks by name, in report order; ``run`` is the only place that counts cases
and failures.
"""

from __future__ import annotations

import itertools
import random
import sys
from operator import add

from . import decomp, grmod, oracle, polytope
from .rootsys import epsilon_coords, order_key, positive_roots, simple_root

ORDER_TRIPLES = 2000
# (s, t), s first in the straightening order at n = 2, decided by degree,
# row sums and coordinates in turn
ORDER_PAIRS = (((2, 0, 0, 0), (1, 0, 0, 0)), ((1, 0, 0, 0), (0, 0, 0, 1)),
               ((0, 0, 1, 0), (1, 0, 0, 0)))


def _weights(max_n: int, max_weight: int, lo: int = 1):
    """All dominant weights with rank <= max_n and lo <= total <= max_weight."""
    for n in range(1, max_n + 1):
        for lam in itertools.product(range(max_weight + 1), repeat=n):
            if lo <= sum(lam) <= max_weight:
                yield lam


def dimension(max_n, max_weight, seed):
    """|S(lambda)| equals the Weyl dimension, the zero weight included."""
    return {"max_n": max_n, "max_weight": max_weight}, (
        polytope.point_count(lam) != polytope.weyl_dim(lam)
        for lam in _weights(max_n, max_weight, lo=0)
    )


def character(max_n, max_weight, seed):
    """The polytope character equals Freudenthal's multiplicities."""
    max_n = min(max_n, 3)
    return {"max_n": max_n, "max_weight": max_weight}, (
        polytope.character(lam) != polytope.freudenthal_multiplicities(lam)
        for lam in _weights(max_n, max_weight)
    )


def graded_oracle(max_n, max_weight, seed):
    """Points by (weight, degree) equal the PBW filtration dimensions."""
    max_n, max_weight = min(max_n, 3), min(max_weight, 3)
    return {"max_n": max_n, "max_weight": max_weight}, (
        polytope.graded_character(lam) != oracle.pbw_filtration_dims(lam)
        for lam in _weights(max_n, max_weight)
    )


def graded_ideal(max_n, max_weight, seed):
    """Points by (weight, degree) equal the ideal quotient's dimensions."""
    max_n, max_weight = min(max_n, 2), min(max_weight, 3)
    return {"max_n": max_n, "max_weight": max_weight}, (
        polytope.graded_character(lam) != grmod.quotient_graded_dims(lam)
        for lam in _weights(max_n, max_weight)
    )


def straightening(max_n, max_weight, seed):
    """Every minimal violation straightens to a normal form inside S(lambda)."""
    max_n, max_weight = min(max_n, 2), min(max_weight, 2)

    def failures():
        for lam in _weights(max_n, max_weight):
            n = len(lam)
            for row, (path, *_) in enumerate(polytope._path_table(n)):
                for s in grmod.minimal_violations(lam, path):
                    try:
                        # when s breaks this row first, normal_form's step checks it
                        if polytope._first_broken_row(lam, s) != row:
                            grmod.straightening_element(lam, path, s)
                        nf = grmod.normal_form(grmod.SparsePolynomial.monomial(n, s), lam)
                    except (RuntimeError, ValueError):
                        yield 1
                    else:
                        yield any(not polytope.contains(lam, t) for t in nf.monomials())

    return {"max_n": max_n, "max_weight": max_weight}, failures()


def order_laws(max_n, max_weight, seed):
    """Each seeded triple counts up to four broken laws of the monomial order;
    each hand pair of ORDER_PAIRS, which fix its direction, counts whether
    monomial_compare or order_key puts it the wrong way round."""
    rng = random.Random(seed)
    max_n = min(max_n, 4)

    def sample(n, degree):
        s = [0] * (n * n)
        for _ in range(degree):
            s[rng.randrange(n * n)] += 1
        return tuple(s)

    def failures():
        for _ in range(ORDER_TRIPLES):
            n = rng.randint(1, max_n)
            degree = rng.randint(0, 5)
            s, t, u = sample(n, degree), sample(n, degree), sample(n, rng.randint(0, 5))
            st = grmod.monomial_compare(s, t)
            ts = grmod.monomial_compare(t, s)
            shifted = grmod.monomial_compare(
                tuple(map(add, s, u)), tuple(map(add, t, u))
            )
            su = grmod.monomial_compare(s, sample(n, degree + 1))
            yield (
                ((st == "equal") != (s == t))
                + ({st, ts} not in ({"equal"}, {"less", "greater"}))
                + (shifted != st)
                + (su != "greater")  # lower degree comes later in the order
            )
        for s, t in ORDER_PAIRS:
            yield ((grmod.monomial_compare(s, t), grmod.monomial_compare(t, s))
                   != ("less", "greater")) + (order_key(s, 2) >= order_key(t, 2))

    return {"max_n": max_n, "triples": ORDER_TRIPLES, "seed": seed}, failures()


def partial_support(max_n, max_weight, seed):
    """Along each simple root beta, the raising action sends f_alpha to a
    nonzero multiple of f_gamma when gamma + beta = alpha in epsilon
    coordinates for a positive root gamma, and to 0 when there is none."""
    max_n = min(max_n, 4)

    def differs(beta, alpha, n):
        roots = positive_roots(n)
        eps = {gamma: epsilon_coords(gamma, n) for gamma in roots}
        want = [g for g in roots if tuple(map(add, eps[g], eps[beta])) == eps[alpha]]
        f_alpha = grmod.SparsePolynomial.variable_power(alpha, 1, n)
        image = grmod.partial_op(beta, f_alpha).terms  # no zero coefficient kept
        return [roots[t.index(1)] for t in image] != want

    return {"max_n": max_n}, (
        differs(simple_root(k), alpha, n)
        for n in range(1, max_n + 1)
        for k in range(1, n + 1)
        for alpha in positive_roots(n)
    )


def peeling(max_n, max_weight, seed):
    """Every point of S(lambda) peels into fundamental markers."""
    max_n, max_weight = min(max_n, 3), min(max_weight, 3)

    def failures():
        for lam in _weights(max_n, max_weight):
            for s in polytope.enumerate_points(lam):
                try:
                    decomp.peel_completely(lam, s)
                except (RuntimeError, ValueError):
                    yield 1
                else:
                    yield 0

    return {"max_n": max_n, "max_weight": max_weight}, failures()


def fundamental_points(max_n, max_weight, seed):
    """The fundamental chain supports reproduce S(omega_i)."""
    max_n = min(max_n, 7)  # about 0.1 s for all 28 pairs at n <= 7
    return {"max_n": max_n}, (
        decomp.fundamental_points(n, i)
        != polytope.enumerate_points(tuple(1 if k == i else 0 for k in range(1, n + 1)))
        for n in range(1, max_n + 1)
        for i in range(1, n + 1)
    )


def binomial_identity(max_n, max_weight, seed):
    """sum_k |S(omega_(i-2k))| equals C(2n, i)."""
    max_n = min(max_n + 2, 8)  # about 0.02 s for all 36 pairs at n <= 8
    return {"max_n": max_n}, (
        not decomp.binomial_identity_check(n, i)
        for n in range(1, max_n + 1)
        for i in range(1, n + 1)
    )


def tensor_cartan(max_n, max_weight, seed):
    """The Cartan component of V(lambda) x V(mu) is graded like V(lambda+mu)."""
    pairs = []
    if max_n >= 2:
        pairs += list(itertools.product([(1, 0), (0, 1)], repeat=2))
    if max_n >= 3:
        pairs.append(((1, 0, 0), (1, 0, 0)))
    if max_n >= 4:
        pairs += [((0, 0, 0, 1), (0, 0, 0, 1)), ((1, 0, 0, 0), (0, 0, 1, 0)),
                  ((0, 1, 0, 0), (0, 0, 1, 0))]
    return {"pairs": len(pairs)}, (
        oracle.tensor_cartan_dims(lam, mu)
        != oracle.pbw_filtration_dims(tuple(a + b for a, b in zip(lam, mu)))
        for lam, mu in pairs
    )


def ordered_basis(max_n, max_weight, seed):
    """At rank 2 the monomials f^s v_lambda, s in S(lambda), have full rank."""
    max_weight = min(max_weight, 3)
    return {"n": 2, "max_weight": max_weight}, (
        oracle.monomial_rank(lam) != polytope.weyl_dim(lam)
        for lam in itertools.product(range(max_weight + 1), repeat=2)
        if max_n >= 2 and 1 <= sum(lam) <= max_weight
    )


SUITES = {
    "dimension": {"dimension": dimension},
    "character": {"character": character},
    "graded": {"graded-oracle": graded_oracle, "graded-ideal": graded_ideal},
    "straightening": {"straightening": straightening},
    "order": {"order-laws": order_laws},
    "partial": {"partial-support": partial_support},
    "peeling": {
        "peeling": peeling,
        "fundamental-points": fundamental_points,
        "binomial-identity": binomial_identity,
    },
    "tensor": {"tensor-cartan": tensor_cartan},
    "basis": {"ordered-basis": ordered_basis},
}


def run(suite: str, max_n: int, max_weight: int, seed: int) -> list:
    """Run one suite, or every suite for ``"all"``; one record per check.

    A record holds the check's name, its status, the expected (0) and actual
    failure count, and its parameters, in the order of the CLI's columns.  A
    check that examined no case fails, and says so on standard error: an
    empty comparison proves nothing.
    """
    if suite == "all":
        checks = {name: fn for table in SUITES.values() for name, fn in table.items()}
    else:
        checks = SUITES[suite]
    records = []
    for name, check in checks.items():
        parameters, failures = check(max_n, max_weight, seed)
        cases = actual = 0
        for count in failures:
            cases += 1
            actual += count
        if not cases:
            print(f"{name}: examined no cases", file=sys.stderr)
        records.append({
            "name": name, "status": "pass" if cases and not actual else "fail",
            "expected": 0, "actual": actual, "parameters": parameters,
        })
    return records
