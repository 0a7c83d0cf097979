"""Tests for the root-system combinatorics and the matrix realization."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from sympbw import decomp, dyck
from sympbw.linalg import vec_add
from sympbw.polytope import weyl_dim
from sympbw.rootsys import (
    BarredIndex,
    PositiveRoot,
    chevalley_realization,
    coefficient_root_map,
    epsilon_coords,
    epsilon_offset,
    epsilon_weight,
    index_from_position,
    index_position,
    is_hook_root,
    is_simple_root,
    is_valid_root,
    make_index,
    make_root,
    path_bound,
    positive_roots,
    root_index_map,
    root_successors,
    root_to_json,
    simple_coefficients,
    simple_root,
    validate_rank,
    validate_weight,
    variable_key,
    _bracket,
    _mat_mul,
    _proportionality,
)


def skew_form(n: int) -> dict:
    """The fixed antidiagonal skew form: S[k, 2n+1-k] = 1 for k <= n, else -1."""
    return {(k, 2 * n + 1 - k): 1 if k <= n else -1 for k in range(1, 2 * n + 1)}


def cartan_matrix(n: int) -> dict:
    """C_n Cartan matrix {(k, l): <alpha_l, alpha_k-check>}, nonzero entries only."""
    a = {(k, k): 2 for k in range(1, n + 1)}
    for k in range(1, n):
        a[k + 1, k] = -1
        a[k, k + 1] = -2 if k == n - 1 else -1
    return a


def test_alphabet_order():
    n = 3
    letters = [index_from_position(p, n) for p in range(1, 2 * n)]
    assert letters == [
        BarredIndex(1, False), BarredIndex(2, False), BarredIndex(3, False),
        BarredIndex(2, True), BarredIndex(1, True),
    ]
    assert [index_position(q, n) for q in letters] == [1, 2, 3, 4, 5]


def test_bar_n_normalizes():
    assert make_index(3, True, 3) == BarredIndex(3, False)
    assert make_root(1, 3, True, 3) == make_root(1, 3, False, 3)


def test_validate_weight():
    assert validate_weight([1, 0]) == (1, 0)
    assert validate_weight((0, 0, 0)) == (0, 0, 0)
    with pytest.raises(ValueError):
        validate_weight(())
    with pytest.raises(ValueError):
        validate_weight((1, -1))


@pytest.mark.parametrize("lam, bad", [
    ((1.7, 0), "1.7"), ((True, 0), "True"), (("2", 0), "'2'"), ((1, 0.0), "0.0"),
])
def test_validate_weight_refuses_entries_that_are_not_ints(lam, bad):
    # each of these used to be truncated or parsed: (1.9, 0) had dimension 4
    with pytest.raises(ValueError, match=f"got {bad} in"):
        validate_weight(lam)
    with pytest.raises(ValueError, match=f"got {bad} in"):
        weyl_dim(lam)


@pytest.mark.parametrize("n", [2.5, True, "2", 2.0])
def test_validate_rank_refuses_ranks_that_are_not_ints(n):
    message = f"rank must be an int, got {n!r}"
    for call in (validate_rank, dyck.enumerate_paths, positive_roots,
                 chevalley_realization, lambda n: decomp.fundamental_points(n, 1)):
        with pytest.raises(ValueError, match=message):
            call(n)
    assert validate_rank(2) == 2


def test_positive_roots_reading_order():
    roots = positive_roots(2)
    assert [str(a) for a in roots] == ["a[1,1]", "a[1,2]", "a[1,1~]", "a[2,2]"]
    for n in range(1, 7):
        assert len(positive_roots(n)) == n * n
    # row i spans positions i..2n-i, ascending: the reading order is the
    # variable order, which the package reads without sorting
    for n in range(1, 9):
        for alpha, beta in zip(positive_roots(n), positive_roots(n)[1:]):
            assert variable_key(alpha, n) < variable_key(beta, n)


def test_simple_and_hook_classification():
    n = 3
    simples = [a for a in positive_roots(n) if is_simple_root(a)]
    assert simples == [simple_root(k) for k in (1, 2, 3)]
    hooks = [a for a in positive_roots(n) if is_hook_root(a, n)]
    assert [str(a) for a in hooks] == ["a[1,1~]", "a[2,2~]", "a[3,3]"]


def test_root_successors():
    n = 2
    a11 = make_root(1, 1, False, n)
    # right step only: the spot below a[1,1] is outside the triangle
    assert root_successors(a11, n) == {make_root(1, 2, False, n)}
    a12 = make_root(1, 2, False, n)
    assert root_successors(a12, n) == {make_root(1, 1, True, n),
                                       make_root(2, 2, False, n)}
    hook = make_root(1, 1, True, n)
    assert root_successors(hook, n) == set()
    assert root_successors(make_root(2, 2, False, n), n) == set()


def test_simple_coefficients_and_epsilon():
    n = 2
    assert simple_coefficients(make_root(1, 2, False, n), n) == (1, 1)
    assert simple_coefficients(make_root(1, 1, True, n), n) == (2, 1)
    assert epsilon_coords(make_root(1, 2, False, n), n) == (1, 1)
    assert epsilon_coords(make_root(1, 1, True, n), n) == (2, 0)
    n = 3
    assert epsilon_coords(make_root(1, 2, False, n), n) == (1, 0, -1)
    assert epsilon_coords(make_root(1, 3, False, n), n) == (1, 0, 1)
    assert epsilon_coords(make_root(2, 2, True, n), n) == (0, 2, 0)
    # coefficient map inverts simple_coefficients
    for alpha in positive_roots(n):
        assert coefficient_root_map(n)[simple_coefficients(alpha, n)] == alpha


def test_weight_coordinates_round_trip():
    assert epsilon_weight((1, 0)) == (1, 0)
    assert epsilon_weight((1, 2, 1)) == (4, 3, 1)
    assert epsilon_weight((0, 1), (1, 0)) == (0, 2)
    assert epsilon_weight((0, 1), (1, 1)) == (0, 0)
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        lam = tuple(rng.randint(0, 3) for _ in range(n))
        offset = tuple(rng.randint(0, 4) for _ in range(n))
        # the e-coordinates of sum(c_k alpha_k) agree with epsilon_coords
        shift = [0] * n
        for alpha in positive_roots(n):
            coeffs = simple_coefficients(alpha, n)
            if sum(coeffs) == 1:  # a simple root
                k = coeffs.index(1)
                for t, e in enumerate(epsilon_coords(alpha, n)):
                    shift[t] += offset[k] * e
        assert epsilon_weight(lam, offset) == tuple(
            a - b for a, b in zip(epsilon_weight(lam), shift))
        assert epsilon_offset(lam, epsilon_weight(lam, offset)) == offset


def test_weight_offset_rejects_weights_off_the_lattice_or_above():
    with pytest.raises(ValueError, match="off the root lattice"):
        epsilon_offset((1, 0), (5, 5))
    with pytest.raises(ValueError, match="not below"):
        epsilon_offset((1, 0), (2, 1))  # lambda + alpha_1 + alpha_2
    with pytest.raises(ValueError, match="off the root lattice"):
        epsilon_offset((1,), (0,))
    with pytest.raises(ValueError, match="rank"):
        epsilon_offset((1, 0), (1,))


def test_is_valid_root():
    assert is_valid_root(make_root(2, 2, False, 2), 2)
    # constructed raw, since make_root refuses to build these
    assert not is_valid_root(PositiveRoot(2, BarredIndex(1, False)), 2)
    assert not is_valid_root(PositiveRoot(2, BarredIndex(2, True)), 2)
    assert not is_valid_root(PositiveRoot(0, BarredIndex(1, False)), 2)
    with pytest.raises(ValueError):
        make_root(2, 1, False, 2)


def test_path_bound():
    lam = (1, 2)
    a1 = simple_root(1)
    assert path_bound(lam, a1, simple_root(2)) == 3
    assert path_bound(lam, a1, a1) == 1
    assert path_bound(lam, a1, make_root(1, 1, True, 2)) == 3
    assert path_bound(lam, simple_root(2), make_root(2, 2, False, 2)) == 2
    with pytest.raises(ValueError):
        path_bound(lam, make_root(1, 2, False, 2), simple_root(2))


def test_root_json_roundtrip():
    for n in (1, 2, 3, 4):
        for alpha in positive_roots(n):
            rec = root_to_json(alpha)
            assert rec == {
                "row": alpha.row, "col": alpha.col.value, "barred": alpha.col.barred,
            }
            assert make_root(rec["row"], rec["col"], rec["barred"], n) == alpha
    assert root_to_json(make_root(1, 1, True, 2)) == {
        "row": 1, "col": 1, "barred": True,
    }
    assert root_to_json(make_root(2, 2, True, 2)) == {
        "row": 2, "col": 2, "barred": False,
    }


def test_cartan_matrix():
    assert cartan_matrix(1) == {(1, 1): 2}
    assert cartan_matrix(2) == {(1, 1): 2, (1, 2): -2, (2, 1): -1, (2, 2): 2}
    assert cartan_matrix(3) == {
        (1, 1): 2, (1, 2): -1,
        (2, 1): -1, (2, 2): 2, (2, 3): -2,
        (3, 2): -1, (3, 3): 2,
    }


def test_proportionality_contract():
    b = {(1, 2): 2, (3, 1): -4}
    assert _proportionality({(1, 2): 3, (3, 1): -6}, b) == Fraction(3, 2)
    assert _proportionality({}, b) == 0  # a zero bracket has ratio 0
    assert _proportionality({(1, 2): 1}, b) is None  # an entry of b missing in a
    assert _proportionality({(1, 2): 2, (3, 1): 4}, b) is None
    assert _proportionality({(1, 2): 2, (3, 1): -4, (2, 2): 1}, b) is None
    assert _proportionality(b, {}) is None
    assert _proportionality({}, {}) is None


# sha256 of the lines written by _realization_lines, recorded from the dense
# 2n x 2n realization before its matrices became sparse
REALIZATION_DIGEST = "058ff924c1408f4c2237f2bad8b2cbfb8f2ae107b51d712c9365c15c64fbcb69"


def _realization_lines(n: int):
    """Every nonzero entry (row, col, value) of e, f, h = [e, f], e_root and
    f_root at rank n, and every constant ad_root_coeff(beta, alpha), one line
    each."""
    def entries(mat):
        return sorted((r, c, x) for (r, c), x in mat.items())

    real = chevalley_realization(n)
    roots = positive_roots(n)
    h = {k: _bracket(real.e[k], real.f[k]) for k in range(1, n + 1)}
    for name, mats in (("e", real.e), ("f", real.f), ("h", h)):
        for k in range(1, n + 1):
            yield f"{n} {name}{k} {entries(mats[k])}"
    for alpha in roots:
        yield f"{n} e{alpha} {entries(real.e_root(alpha))}"
        yield f"{n} f{alpha} {entries(real.f_root(alpha))}"
    for beta in roots:
        for alpha in roots:
            yield f"{n} ad {beta} {alpha} {real.ad_root_coeff(beta, alpha)}"


def test_realization_constants_golden():
    lines = [line for n in range(1, 7) for line in _realization_lines(n)]
    assert len(lines) == 2520
    text = "\n".join(lines).encode()
    assert hashlib.sha256(text).hexdigest() == REALIZATION_DIGEST


def test_realization_serre_relations():
    for n in (2, 3):
        real = chevalley_realization(n)
        A = cartan_matrix(n)
        h = {k: _bracket(real.e[k], real.f[k]) for k in range(1, n + 1)}
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j != k:
                    assert _bracket(real.e[j], real.f[k]) == {}
                he = _bracket(h[j], real.e[k])
                assert _proportionality(he, real.e[k]) == A.get((j, k), 0)
                hf = _bracket(h[j], real.f[k])
                assert _proportionality(hf, real.f[k]) == -A.get((j, k), 0)


def test_realization_preserves_skew_form():
    for n in (2, 3, 4):
        real = chevalley_realization(n)
        J = skew_form(n)
        assert len(J) == 2 * n
        for alpha in positive_roots(n):
            for M in (real.e_root(alpha), real.f_root(alpha)):
                assert M
                Mt = {(c, r): x for (r, c), x in M.items()}
                assert vec_add(_mat_mul(Mt, J), _mat_mul(J, M)) == {}


def test_ad_coeff_values():
    real = chevalley_realization(2)
    a1, a2 = simple_root(1), simple_root(2)
    assert real.ad_root_coeff(a1, make_root(1, 2, False, 2)) == 2
    assert real.ad_root_coeff(a1, make_root(1, 1, True, 2)) == 2
    assert real.ad_root_coeff(a2, make_root(1, 2, False, 2)) == -1
    assert real.ad_root_coeff(a1, a1) == 0
    assert real.ad_root_coeff(a2, make_root(1, 1, True, 2)) == 0
    # [e_k, f_beta] vanishes when beta - alpha_k is no root, unless beta = alpha_k
    for n in (2, 3, 4):
        real = chevalley_realization(n)
        coeff_map = coefficient_root_map(n)
        for k in range(1, n + 1):
            for beta in positive_roots(n):
                lower = list(simple_coefficients(beta, n))
                lower[k - 1] -= 1
                if tuple(lower) in coeff_map or beta == simple_root(k):
                    continue
                assert _bracket(real.e[k], real.f_root(beta)) == {}, (k, beta)


def test_ad_root_coeff_support():
    # nonzero exactly when alpha - beta is again a positive root
    for n in (2, 3):
        real = chevalley_realization(n)
        coeff_map = coefficient_root_map(n)
        for alpha in positive_roots(n):
            ca = simple_coefficients(alpha, n)
            for beta in positive_roots(n):
                cb = simple_coefficients(beta, n)
                diff = tuple(a - b for a, b in zip(ca, cb))
                c = real.ad_root_coeff(beta, alpha)
                if diff in coeff_map:
                    assert c != 0, (beta, alpha)
                else:
                    assert c == 0, (beta, alpha)


def test_variable_key_orders_by_row_then_position():
    rng = random.Random(11)
    n = 4
    roots = positive_roots(n)
    for _ in range(200):
        a, b = rng.choice(roots), rng.choice(roots)
        ka, kb = variable_key(a, n), variable_key(b, n)
        if a.row != b.row:
            assert (ka < kb) == (a.row < b.row)
        else:
            assert (ka < kb) == (index_position(a.col, n) < index_position(b.col, n))


def test_root_index_map_matches_reading_order():
    for n in (1, 2, 3, 4, 5):
        idx = root_index_map(n)
        for i, alpha in enumerate(positive_roots(n)):
            assert idx[alpha] == i
