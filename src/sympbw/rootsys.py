"""Root-system data for the symplectic Lie algebra sp_{2n} (type C_n).

Positive roots come in two families, indexed by a row 1..n and a column
drawn from the barred alphabet J = {1 < 2 < ... < n < bar(n-1) < ... < bar(1)}:

  * alpha_{i,j}       = alpha_i + ... + alpha_j            (1 <= i <= j <= n)
  * alpha_{i,bar(j)}  = alpha_i + ... + alpha_n
                        + alpha_{n-1} + ... + alpha_j      (1 <= i <= j <= n)

with the normalization alpha_{i,bar(n)} = alpha_{i,n}, so a barred column
never carries the value n.  For fixed n there are exactly n^2 positive roots,
arranged in a triangle whose i-th row has the 2(n-i)+1 roots
alpha_{i,i}, ..., alpha_{i,n}, alpha_{i,bar(n-1)}, ..., alpha_{i,bar(i)}.

Multi-exponents s, one entry per positive root in reading order, are
ordered by ``order_key``, the straightening order that both the ideal side
and the module closure read; ``grmod.monomial_compare`` compares two of them
stage by stage and stops at the first stage that differs.  Each row is one
slice of the reading order (``row_slices``), so a row sum sums one slice.

The module also provides an explicit 2n x 2n matrix realization of sp_{2n},
its matrices stored sparse and multiplied on the linalg kernel, supplying
root vectors and the integer constants by which the raising operators act
(see ChevalleyRealization).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .linalg import combine, vec_add


class BarredIndex(NamedTuple):
    """An element of the alphabet J: a value in 1..n, possibly barred."""

    value: int
    barred: bool = False

    def __str__(self) -> str:
        return f"{self.value}~" if self.barred else str(self.value)


class PositiveRoot(NamedTuple):
    """A positive root of C_n, addressed by (row, column-in-J)."""

    row: int
    col: BarredIndex

    def __str__(self) -> str:
        return f"a[{self.row},{self.col}]"


DominantWeight = tuple  # (m_1, ..., m_n), all entries non-negative


def validate_weight(lam) -> tuple:
    """Check a dominant weight (m_1,...,m_n) and return it as a tuple.

    Rank 0, a negative entry and an entry whose type is not int (bools
    included) raise ValueError; nothing is converted.
    """
    lam = tuple(lam)
    if not lam:
        raise ValueError("empty weight: rank must be at least 1")
    for m in lam:
        if type(m) is not int:
            raise ValueError(f"weight entries must be ints, got {m!r} in {lam!r}")
        if m < 0:
            raise ValueError(f"dominant weight needs non-negative entries, got {lam}")
    return lam


def validate_exponent(s, n: int) -> tuple:
    """Check a multi-exponent of rank n and return it as a tuple.

    A length other than n^2 and an entry whose type is not int (bools
    included) raise ValueError; nothing is converted.
    """
    s = tuple(s)
    if len(s) != n * n:
        raise ValueError(f"multi-exponent needs {n * n} coordinates, got {len(s)}")
    for x in s:
        if type(x) is not int:
            raise ValueError(f"multi-exponent entries must be ints, got {x!r} in {s!r}")
    return s


def validate_rank(n: int) -> int:
    if type(n) is not int:
        raise ValueError(f"rank must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# the alphabet J
# ---------------------------------------------------------------------------

def index_position(q: BarredIndex, n: int) -> int:
    """Position of q in the order 1 < ... < n < bar(n-1) < ... < bar(1), from 1."""
    return 2 * n - q.value if q.barred else q.value


def index_from_position(pos: int, n: int) -> BarredIndex:
    if not 1 <= pos <= 2 * n - 1:
        raise ValueError(f"position {pos} outside alphabet of rank {n}")
    return BarredIndex(pos, False) if pos <= n else BarredIndex(2 * n - pos, True)


def make_index(value: int, barred: bool, n: int) -> BarredIndex:
    """Build a column index, normalizing bar(n) to plain n."""
    if not 1 <= value <= n:
        raise ValueError(f"column value {value} outside 1..{n}")
    if barred and value == n:
        barred = False
    return BarredIndex(value, barred)


# ---------------------------------------------------------------------------
# positive roots and the triangle
# ---------------------------------------------------------------------------

def simple_root(k: int) -> PositiveRoot:
    return PositiveRoot(k, BarredIndex(k, False))


def make_root(row: int, value: int, barred: bool, n: int) -> PositiveRoot:
    root = PositiveRoot(row, make_index(value, barred, n))
    if not is_valid_root(root, n):
        raise ValueError(f"no positive root at row {row}, column {value}{'~' if barred else ''}")
    return root


def is_valid_root(alpha: PositiveRoot, n: int) -> bool:
    i, q = alpha
    if not (1 <= i <= n and 1 <= q.value <= n):
        return False
    if q.barred and q.value == n:
        return False  # bar(n) is normalized away
    return i <= index_position(q, n) <= 2 * n - i


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple:
    """All n^2 positive roots in triangle reading order (row by row, J-ascending)."""
    validate_rank(n)
    roots = []
    for i in range(1, n + 1):
        for pos in range(i, 2 * n - i + 1):
            roots.append(PositiveRoot(i, index_from_position(pos, n)))
    return tuple(roots)


@lru_cache(maxsize=None)
def root_index_map(n: int) -> dict:
    """Root -> its coordinate slot in triangle reading order."""
    return {alpha: k for k, alpha in enumerate(positive_roots(n))}


def root_successors(alpha: PositiveRoot, n: int) -> set:
    """Right and down neighbours of alpha in the triangle graph (at most two)."""
    if not is_valid_root(alpha, n):
        raise ValueError(f"{alpha} is not a positive root for rank {n}")
    pos = index_position(alpha.col, n)
    out = set()
    right = PositiveRoot(alpha.row, index_from_position(pos + 1, n)) if pos + 1 <= 2 * n - 1 else None
    down = PositiveRoot(alpha.row + 1, alpha.col)
    for cand in (right, down):
        if cand is not None and is_valid_root(cand, n):
            out.add(cand)
    return out


def is_simple_root(alpha: PositiveRoot) -> bool:
    return not alpha.col.barred and alpha.col.value == alpha.row


def is_hook_root(alpha: PositiveRoot, n: int) -> bool:
    """Whether alpha is the highest root alpha_{j,bar(j)} of a corner subalgebra."""
    if alpha.col.barred:
        return alpha.col.value == alpha.row
    return alpha.row == n and alpha.col.value == n  # alpha_{n,bar(n)} = alpha_{n,n}


def variable_key(alpha: PositiveRoot, n: int) -> tuple:
    """Sort key for the total order on the variables f_alpha.

    f_{r,q} exceeds f_{r',q'} when r > r', or r = r' and q comes later in J;
    so row n holds the largest variable and row 1 starts with the smallest.
    """
    return (alpha.row, index_position(alpha.col, n))


@lru_cache(maxsize=None)
def row_slices(n: int) -> tuple:
    """The slice of reading-order coordinates that holds each row, bottom
    row first: row r is entry n - r, and the rows above it hold
    (r-1)(2n+1-r) roots, 2(n-k)+1 in row k."""
    validate_rank(n)
    return tuple(
        slice((r - 1) * (2 * n + 1 - r), r * (2 * n - r)) for r in range(n, 0, -1)
    )


def d_vector(s, n: int) -> tuple:
    """Row sums read bottom row first: (s_{n,*}, ..., s_{1,*})."""
    return tuple([sum(s[rows]) for rows in row_slices(n)])


def order_key(s, n: int) -> tuple:
    """Sort key realizing the straightening order: ascending key = earlier.

    The order compares two monomials in three stages, each deciding only on
    a tie of the one before:
      1. the total degree: the larger degree comes first;
      2. the row sums, bottom row first (``d_vector``): at the first row
         whose sums differ, the smaller sum comes first;
      3. the coordinates from the largest variable down, which is s read
         backwards, the reading order being the variable order: at the first
         coordinate that differs, the larger entry comes first.
    ``grmod.monomial_compare`` runs the stages one by one and stops at the
    first difference; this key holds all three at once.
    """
    return (-sum(s), d_vector(s, n), tuple([-x for x in reversed(s)]))


@lru_cache(maxsize=None)
def simple_coefficients(alpha: PositiveRoot, n: int) -> tuple:
    """Expansion of alpha over the simple roots alpha_1..alpha_n."""
    i, q = alpha
    coeffs = [0] * n
    if not q.barred:
        for t in range(i, q.value + 1):
            coeffs[t - 1] = 1
    else:
        for t in range(i, n + 1):
            coeffs[t - 1] += 1
        for t in range(q.value, n):
            coeffs[t - 1] += 1
    return tuple(coeffs)


@lru_cache(maxsize=None)
def coefficient_root_map(n: int) -> dict:
    """Simple-root coefficient vector -> positive root."""
    return {simple_coefficients(alpha, n): alpha for alpha in positive_roots(n)}


def epsilon_coords(alpha: PositiveRoot, n: int) -> tuple:
    """alpha in the standard orthogonal coordinates e_1..e_n of C_n."""
    i, q = alpha
    eps = [0] * n
    if q.barred:
        eps[i - 1] += 1
        eps[q.value - 1] += 1
    elif q.value == n:
        eps[i - 1] += 1
        eps[n - 1] += 1
    else:
        eps[i - 1] += 1
        eps[q.value] -= 1
    return tuple(eps)


@lru_cache(maxsize=256)
def _suffix_sums(lam: tuple) -> tuple:
    """(m_1 + ... + m_n, m_2 + ... + m_n, ..., m_n): lambda in e-coordinates."""
    return tuple(sum(lam[k:]) for k in range(len(lam)))


def epsilon_weight(lam, offset=None) -> tuple:
    """The weight lambda - sum_k c_k alpha_k in orthogonal coordinates e_1..e_n.

    Component k of lambda = (m_1..m_n) is m_k + ... + m_n; the root-lattice
    offset (c_1..c_n) defaults to zero.  Here alpha_k = e_k - e_{k+1} for
    k < n and alpha_n = 2 e_n.
    """
    n = len(lam)
    eps = list(_suffix_sums(tuple(lam)))
    if offset is not None:
        for k in range(n - 1):
            eps[k] -= offset[k]
            eps[k + 1] += offset[k]
        eps[n - 1] -= 2 * offset[n - 1]
    return tuple(eps)


def epsilon_offset(lam, eps) -> tuple:
    """The offset (c_1..c_n) with epsilon_weight(lam, offset) == eps.

    Raises ValueError unless lambda - eps is a non-negative integer
    combination of the simple roots.
    """
    n = len(lam)
    if len(eps) != n:
        raise ValueError(f"weight {tuple(eps)} does not have rank {n}")
    offset = []
    total = 0
    for a, b in zip(_suffix_sums(tuple(lam)), eps):
        total += a - b
        offset.append(total)
    if total % 2:
        raise ValueError(
            f"weight {tuple(eps)} is off the root lattice of {tuple(lam)}"
        )
    offset[n - 1] = total // 2
    if any(c < 0 for c in offset):
        raise ValueError(f"weight {tuple(eps)} is not below {tuple(lam)}")
    return tuple(offset)


def bound_slice(row: int, end: PositiveRoot, n: int) -> tuple:
    """The pair (a, b) such that sum(lam[a:b]) bounds a path from alpha_row to `end`.

    A path ending in column j is bounded by m_row + ... + m_j; a path ending at
    a hook root alpha_{j,bar(j)} (including alpha_{n,n}) by m_row + ... + m_n.
    The power of f_alpha in the ideal follows the same rule with `end` = alpha.
    """
    return row - 1, n if is_hook_root(end, n) else end.col.value


def path_bound(lam, start: PositiveRoot, end: PositiveRoot) -> int:
    """Sum of weight coefficients bounding a path from `start` to `end`, by the
    rule of bound_slice; raises ValueError unless the endpoints fit a path."""
    lam = validate_weight(lam)
    n = len(lam)
    if not (is_valid_root(start, n) and is_valid_root(end, n)):
        raise ValueError(f"roots {start}, {end} do not belong to rank {n}")
    if not is_simple_root(start):
        raise ValueError(f"path start {start} is not a simple root")
    if end.row < start.row:
        raise ValueError(f"path end {end} lies above start {start}")
    if not (is_hook_root(end, n) or is_simple_root(end)):
        raise ValueError(f"path end {end} is neither simple nor of the form alpha_(j,bar(j))")
    a, b = bound_slice(start.row, end, n)
    return sum(lam[a:b])


def root_to_json(alpha: PositiveRoot) -> dict:
    return {"row": alpha.row, "col": alpha.col.value, "barred": alpha.col.barred}


# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------

def _mat_mul(a: dict, b: dict) -> dict:
    return combine(
        ((i, j), x * y)
        for (i, k), x in a.items()
        for (k2, j), y in b.items()
        if k == k2
    )


def _bracket(a: dict, b: dict) -> dict:
    return vec_add(_mat_mul(a, b), _mat_mul(b, a), -1)


def _proportionality(a: dict, b: dict):
    """The exact c with a = c*b (0 when a is zero and b is not), or None when
    b is zero or the two are not proportional."""
    if not b or a.keys() - b.keys():
        return None
    ratios = {Fraction(a.get(key, 0), y) for key, y in b.items()}
    return ratios.pop() if len(ratios) == 1 else None


class ChevalleyRealization:
    """sp_{2n} as matrices X with X^T S + S X = 0 for the antidiagonal skew form S.

    Every matrix is a sparse dict {(row, col): int} with rows and columns
    1..2n and no zero entry; products and brackets are sums through
    linalg.combine.  The matrices are shared by every caller of
    chevalley_realization and must not be mutated.

    Generators (E the elementary matrices, size 2n):
      e_k = E_{k,k+1} - E_{2n-k,2n+1-k}  (k < n),   e_n = E_{n,n+1}
      f_k = E_{k+1,k} - E_{2n+1-k,2n-k}  (k < n),   f_n = E_{n+1,n}

    Root vectors for non-simple roots are fixed recursively by
    f_{alpha+alpha_k} = [f_k, f_alpha] (and likewise for e) with the smallest
    simple index k such that alpha + alpha_k is again a root.  Only the
    nonvanishing of these vectors matters downstream; scalar-sensitive
    computations read the constants off the matrix brackets via ad_root_coeff.
    """

    def __init__(self, n: int):
        validate_rank(n)
        self.n = n
        self.e = {}
        self.f = {}
        for k in range(1, n + 1):
            self.e[k] = {(k, k + 1): 1}
            self.f[k] = {(k + 1, k): 1}
            if k < n:
                self.e[k][2 * n - k, 2 * n + 1 - k] = -1
                self.f[k][2 * n + 1 - k, 2 * n - k] = -1
        self._e_root = {}
        self._f_root = {}
        # a stable sort: reading order within each height
        by_height = sorted(positive_roots(n), key=lambda a: sum(simple_coefficients(a, n)))
        coeff_map = coefficient_root_map(n)
        for alpha in by_height:
            if is_simple_root(alpha):
                self._e_root[alpha] = self.e[alpha.row]
                self._f_root[alpha] = self.f[alpha.row]
                continue
            coeffs = simple_coefficients(alpha, n)
            for k in range(1, n + 1):
                lower = tuple(c - (1 if t == k - 1 else 0) for t, c in enumerate(coeffs))
                if lower in coeff_map:
                    beta = coeff_map[lower]
                    self._e_root[alpha] = _bracket(self.e[k], self._e_root[beta])
                    self._f_root[alpha] = _bracket(self.f[k], self._f_root[beta])
                    break
            else:
                raise RuntimeError(f"no simple root extends {alpha}")
            if not self._f_root[alpha]:
                raise RuntimeError(f"vanishing root vector for {alpha}")

    def e_root(self, alpha: PositiveRoot):
        return self._e_root[alpha]

    def f_root(self, alpha: PositiveRoot):
        return self._f_root[alpha]

    @lru_cache(maxsize=None)
    def ad_root_coeff(self, beta: PositiveRoot, alpha: PositiveRoot) -> int:
        """Integer c with [e_beta, f_alpha] = c * f_{alpha - beta}.

        When alpha - beta is not a positive root the raising action on the
        symmetric algebra is zero (the bracket lands in the Cartan or upper
        part), so 0 is returned; otherwise the bracket sits in a single root
        space and the proportion is exact and nonzero.
        """
        n = self.n
        diff = tuple(
            a - b
            for a, b in zip(
                simple_coefficients(alpha, n), simple_coefficients(beta, n)
            )
        )
        target = coefficient_root_map(n).get(diff)
        if target is None:
            return 0
        commutator = _bracket(self._e_root[beta], self._f_root[alpha])
        ratio = _proportionality(commutator, self._f_root[target])
        if ratio is None or ratio == 0 or ratio.denominator != 1:
            raise RuntimeError(
                f"[e_{beta}, f_{alpha}] is not a nonzero integer multiple of f_{target}"
            )
        return int(ratio)


@lru_cache(maxsize=None)
def chevalley_realization(n: int) -> ChevalleyRealization:
    return ChevalleyRealization(n)
