"""The Dyck-path polytope P(lambda), its lattice points, and dimension oracles.

Each symplectic Dyck path contributes one inequality: the coordinates of a
multi-exponent summed along the path are bounded by a partial sum of the
weight coefficients.  The integral points S(lambda) of the polytope index the
monomial basis of the degenerate module; their weights and degrees give the
character and the graded character.

The polytope has one representation, the path table of a rank: one row per
Dyck path, in path enumeration order, holding the path, its reading-order
coordinate indices and the slice of lambda whose sum bounds it.  The table
depends on the rank alone and is built once; the bounds of a weight are read
off it on each use.  A rank with more than PATH_TABLE_LIMIT Dyck paths is
refused with ValueError before any path is listed.

S(lambda) is listed (lattice_points) and counted (_graded_counts) by one
depth-first walk over rows of (coordinates, bound), and one plan (_plan)
drives both.  The plan first reduces the rows (_reduce), exactly, to those
that can bind: a row with a negative bound and a coordinate leaves no point;
every coordinate of a row with bound 0 is fixed at 0; rows with the same
remaining ("live") coordinates merge into one with the smallest bound; and a
row is dropped when another row holds all its live coordinates with a bound
no larger.  The walk then assigns only the coordinates left on a kept row, the
walked coordinates, in increasing order, with one running slack per kept
row; every other coordinate is 0.

What lies below walked coordinate t depends only on its key: for each group
of kept rows still open at t (holding a coordinate >= walked[t]) with the
same coordinates from walked[t] on, the smallest slack in the group.  The
key is exact.  A row whose coordinates all lie below walked[t] is settled,
its slack >= 0 whatever follows; an open row bounds only the sum of its
remaining coordinates; rows with the same remaining coordinates bind only as
tightly as the smallest of their slacks; and every row holding walked[t] lies
in some group, so the key fixes the headroom at t.  So equal keys at t have
the same completions, in the same lexicographic order, and each walk does
the work below a key once, on its first visit: the listing records the span
of output that the visit listed and copies it under the prefix of each
repeat, and the counting walk stores the table of cells below.  The groups come from one
int mask per kept row (bit t for walked[t]), grouped by mask >> t.

Membership (first_broken, contains) evaluates every row at once in one
packed int: row p owns the W-bit field at bit p*W, and the masks of a rank
and width (_path_masks) put a 1 in field p for each coordinate and each
weight entry on row p.  So slack = high + sum(lambda_k * weight_k) -
sum(s_i * coord_i), where high holds the top bit of every field, has
bound_p + 2^(W-1) - (path sum)_p in field p.  W is a multiple of 8 with
2^(W-1) > L * max|s_i| + sum(lambda), where L is the longest row of the
path table (_longest_row; 2n - 1 for n <= 8); no path has more than L
coordinates and 0 <= bound_p <= sum(lambda), so no borrow or carry crosses
a field, for ints of any size and sign.  Row p is broken exactly when its
top bit is clear, so the first broken row is the lowest set bit of
high & ~slack.  Each weight has one cached record (_membership): the masks
at the one width that serves every s with 0 <= s_i <= sum(lambda) + 1, and
the weight half.  Every coordinate lies on a row bounded by at most
sum(lambda), so contains answers False on a negative entry or one above
sum(lambda) before it reads the record.  For an s with no negative entry,
first_broken and grmod read the same record, with each entry above
sum(lambda) lowered to sum(lambda) + 1, which breaks the same rows.  Only
first_broken with a negative entry evaluates at a width of its own, after
raising each entry below -((L - 1) * max(max(s), 0) + 1) to that value:
a row holding it sums to at most -1 either way.

A (weight, degree) cell is one packed int (_pack), and a monomial's cell is
the sum of its exponents times its variables' cells (_variable_steps): the
counting walk and the ideal side (grmod) both read cells this way.

Counts, characters, graded characters and the largest degree never list the
points: they read the counting walk.  enumerate_points lists the points for
the callers that need them, and refuses a list longer than POINT_LIMIT
before allocating it.

Two classical oracles are included for independent verification, both in
exact arithmetic: the Weyl dimension formula and Freudenthal's recursion for
weight multiplicities.  The recursion runs over the dominant weights alone,
the orbit form of Moody and Patera.  By W-invariance a weight has the
multiplicity of its dominant representative, and by the dominant-chain lemma
(Stembridge) every dominant weight below lambda lies at the end of a chain of
dominant weights that steps down from lambda by positive roots.  Each
dominant multiplicity is an exact integer quotient; the table is then
expanded over the Weyl orbit of each dominant weight, its signed
permutations in epsilon coordinates.  Both oracles check lambda first and then
read a cache of 256 validated weights (_weyl_dim, _freudenthal); each call of
freudenthal_multiplicities copies the cached table into a new dict.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul
from typing import NamedTuple

from . import dyck
from .rootsys import (
    bound_slice,
    epsilon_coords,
    epsilon_offset,
    epsilon_weight,
    positive_roots,
    root_index_map,
    simple_coefficients,
    validate_exponent,
    validate_weight,
)

# Largest S(lambda) that enumerate_points lists (a point of rank n holds n^2
# ints); well above the 122,850 points of (0,1,2,1), the largest list any
# test, check or benchmark job builds.
POINT_LIMIT = 500_000

# Most Dyck paths that _path_table lists: rank 11 has 260,854 and rank 12 has
# 990,000.  The table of rank 11 takes about 200 MB and 4 s to build, and it
# grows about fourfold per rank.
PATH_TABLE_LIMIT = 300_000

MultiExponent = tuple  # length n^2, one slot per positive root in reading order
GradedDimensionTable = dict  # (weight offset over simple roots, degree) -> dim


class PathInequality(NamedTuple):
    path: tuple
    bound: int


@lru_cache(maxsize=None)
def _path_table(n: int) -> tuple:
    """One row (path, coordinate indices, a, b) per Dyck path, in path order.

    The coordinates are the reading-order slots of the path's roots and the
    path's inequality for a weight lambda is bounded by sum(lambda[a:b]).
    Distinct paths have distinct supports, so no two rows repeat each other.
    """
    count = dyck.count_paths(n)
    if count > PATH_TABLE_LIMIT:
        raise ValueError(
            f"rank {n} has {count} Dyck paths, above the limit {PATH_TABLE_LIMIT}"
            " of the path table"
        )
    idx = root_index_map(n)
    return tuple(
        (path, tuple(idx[alpha] for alpha in path))
        + bound_slice(path[0].row, path[-1], n)
        for path in dyck.enumerate_paths(n)
    )


def inequalities(lam) -> list:
    """One inequality per Dyck path, in path enumeration order."""
    lam = validate_weight(lam)
    return [
        PathInequality(path, sum(lam[a:b]))
        for path, _, a, b in _path_table(len(lam))
    ]


@lru_cache(maxsize=None)
def _longest_row(n: int) -> int:
    """The most coordinates on one row of the path table of rank n."""
    return max(len(coords) for _, coords, _, _ in _path_table(n))


@lru_cache(maxsize=32)
def _path_masks(n: int, width: int) -> tuple:
    """The masks (coord, weight, high) of the packed evaluation for rank n
    and a field of width bits, a multiple of 8, per path-table row.

    coord[i] has bit p*width set for every row p that holds coordinate i,
    weight[k] has it for every row p with a <= k < b, and high has bit
    p*width + width - 1 of every row p.  Each mask is read from one byte
    string of whole fields, so a build takes time linear in its size.  The
    width grows with the size of the inputs, so the cache is bounded.
    """
    table = _path_table(n)
    zero = bytes(width // 8)
    one = b"\x01" + zero[1:]

    def mask(flags):
        return int.from_bytes(b"".join(one if f else zero for f in flags), "little")

    return (
        tuple(mask(i in coords for _, coords, _, _ in table) for i in range(n * n)),
        tuple(mask(a <= k < b for _, _, a, b in table) for k in range(n)),
        int.from_bytes((zero[1:] + b"\x80") * len(table), "little"),
    )


def _evaluation(lam: tuple, top: int) -> tuple:
    """(coord, high, bounds, width): the masks of _path_masks at the least
    width, a multiple of 8, with 2^(width-1) > _longest_row(n) * top +
    sum(lam), and the weight half bounds = high + sum(lam_k * weight_k)."""
    n = len(lam)
    width = (_longest_row(n) * top + sum(lam)).bit_length() // 8 * 8 + 8
    coord, weight, high = _path_masks(n, width)
    return coord, high, high + sum(map(mul, lam, weight)), width


@lru_cache(maxsize=256)
def _membership(lam: tuple) -> tuple:
    """The record (coord, high, bounds, width, sum(lam)) for 0 <= s_i <= sum(lam) + 1."""
    return (*_evaluation(lam, sum(lam) + 1), sum(lam))


def _row(s, coord, high, bounds, width):
    """The first row broken in the packed evaluation of s, or None."""
    broken = high & ~(bounds - sum(map(mul, s, coord)))
    return (broken & -broken).bit_length() // width - 1 if broken else None


def _first_broken_row(lam: tuple, s: tuple):
    """The path-table index of the first row that the validated s, with no
    negative entry, breaks under the validated lambda, or None."""
    coord, high, bounds, width, total = _membership(lam)
    if max(s) > total:  # exact: a row holding such an entry is broken either way
        s = [min(x, total + 1) for x in s]
    return _row(s, coord, high, bounds, width)


def first_broken(lam, s):
    """The first path inequality, in path order, that the multi-exponent s
    breaks, or None when s satisfies all of them.  An entry of s whose type
    is not int (bools included) raises ValueError.  Only the row of the
    first broken path is read; an s with a negative entry is evaluated at a
    width of its own (see the module docstring)."""
    lam = validate_weight(lam)
    n = len(lam)
    s = validate_exponent(s, n)
    lo = min(s)
    if lo >= 0:
        p = _first_broken_row(lam, s)
    else:
        hi = max(s)
        floor = -((_longest_row(n) - 1) * max(hi, 0) + 1)
        if lo < floor:  # exact: a row holding such an entry sums to at most -1
            lo = floor
            s = [max(x, floor) for x in s]
        p = _row(s, *_evaluation(lam, max(hi, -lo)))
    if p is None:
        return None
    path, _, a, b = _path_table(n)[p]
    return PathInequality(path, sum(lam[a:b]))


def contains(lam, s) -> bool:
    """Whether the multi-exponent s lies in P(lambda).  s may be any
    iterable; it is read and validated once.  A negative entry, or one above
    sum(lambda), answers False before any mask is read; otherwise one packed
    dot product against the weight's record evaluates every path at once."""
    lam = validate_weight(lam)
    s = validate_exponent(s, len(lam))
    if min(s) < 0 or max(s) > sum(lam):
        return False
    coord, high, bounds, _, _ = _membership(lam)
    return not high & ~(bounds - sum(map(mul, s, coord)))


def _reduce(rows):
    """The kept rows (live coordinates, bound) of rows of (coordinate
    indices, bound), reduced as the module docstring says, or None when a
    row with a coordinate has a negative bound.

    Only a larger set of live coordinates can be a proper superset, so each
    set is tested against the sets of larger sizes alone.
    """
    if any(bound < 0 and coords for coords, bound in rows):
        return None
    zero = {i for coords, bound in rows if bound == 0 for i in coords}
    tightest = {}  # live coordinates -> smallest bound
    for coords, bound in rows:
        live = frozenset(coords).difference(zero)
        if live and tightest.get(live, bound) >= bound:
            tightest[live] = bound
    by_size = {}
    for live, bound in tightest.items():
        by_size.setdefault(len(live), []).append((live, bound))
    larger = {}  # size -> the sets of every larger size
    above = []
    for size in sorted(by_size, reverse=True):
        larger[size] = above
        above = above + by_size[size]
    return [
        (live, bound) for live, bound in tightest.items()
        if not any(b <= bound and live < other for other, b in larger[len(live)])
    ]


def _plan(rows):
    """The walk plan (walked, slack, on, ahead, keys) of rows of (coordinate
    indices, bound), or None when a row with a coordinate has a negative bound.

    The rows are reduced by _reduce.  walked lists the walked coordinates in
    increasing order and slack the bound of each kept row.  For walked
    coordinate t, on[t] lists the kept rows that hold it, ahead[t] those of
    them with a later coordinate, and keys[t] = (pick, merged) reads its key:
    pick(slack) gives the slacks of the one-row groups, and each getter of
    merged the slacks of one larger group, to take their minimum.
    """
    kept = _reduce(rows)
    if kept is None:
        return None
    walked = sorted({i for live, _ in kept for i in live})
    slack = [bound for _, bound in kept]
    on = [[r for r, (live, _) in enumerate(kept) if i in live] for i in walked]
    # a row without a later coordinate needs no update once its last is set
    ahead = [[r for r in on[t] if max(kept[r][0]) > i] for t, i in enumerate(walked)]
    bit = {i: 1 << t for t, i in enumerate(walked)}
    rest = {}
    for r, (live, _) in enumerate(kept):
        rest.setdefault(sum(map(bit.__getitem__, live)), []).append(r)
    keys = []
    for _ in walked:
        singles = [g[0] for g in rest.values() if len(g) == 1]
        keys.append((
            itemgetter(*singles) if singles else (lambda _: ()),
            [itemgetter(*g) for g in rest.values() if len(g) > 1],
        ))
        shifted = {}
        for mask, rows_m in rest.items():
            if mask > 1:
                shifted.setdefault(mask >> 1, []).extend(rows_m)
        rest = shifted
    return walked, slack, on, ahead, keys


def lattice_points(dim: int, rows) -> list:
    """All non-negative integer points of length dim, in lexicographic order,
    whose coordinates summed over each row's indices stay within its bound.

    The rows are a list of (coordinate indices, bound) pairs; the indices
    within a row are distinct, and a coordinate on no row stays 0.  The walk
    follows _plan.  The first visit of a key at walked coordinate t records
    the span (start, end) of the output it listed; a repeat extends the output
    with prefix + x[len(prefix):] for the points x of that span and does not
    recurse.  No suffix list is kept: the output is its own memo.  At the last
    walked coordinate every later one is 0, so each branch lists all its
    points in one extend over precomputed tails (v, 0, ..., 0).
    """
    plan = _plan(rows)
    if plan is None:
        return []
    walked, slack, on, ahead, keys = plan
    if not walked:
        return [(0,) * dim]
    last = len(walked) - 1
    spans = [{} for _ in range(last)]  # per level: key -> span of out it listed
    # pieces[t][v]: the zeros after the previous walked coordinate, then v
    gaps = [(0,) * (i - j - 1) for j, i in zip([-1] + walked, walked)]
    pieces = [
        [gap + (v,) for v in range(min(slack[r] for r in on_t) + 1)]
        for gap, on_t in zip(gaps, on)
    ]
    tails = [piece + (0,) * (dim - 1 - walked[-1]) for piece in pieces[-1]]
    get = slack.__getitem__
    out = []

    def assign(t, prefix):
        headroom = min(map(get, on[t]))
        if t == last:
            out.extend(map(prefix.__add__, tails[:headroom + 1]))
            return
        pick, merged = keys[t]
        key = (pick(slack), *[min(group(slack)) for group in merged])
        span = spans[t].get(key)
        if span is not None:
            k = len(prefix)
            out.extend([prefix + x[k:] for x in out[span[0]:span[1]]])
            return
        start = len(out)
        piece = pieces[t]
        assign(t + 1, prefix + piece[0])
        if headroom:
            rows_t = ahead[t]
            for v in range(1, headroom + 1):
                for r in rows_t:
                    slack[r] -= 1
                assign(t + 1, prefix + piece[v])
            for r in rows_t:
                slack[r] += headroom
        spans[t][key] = (start, len(out))

    assign(0, ())
    del assign  # the closure holds itself through its cell: free it with the call
    return out


def enumerate_points(lam) -> list:
    """All integral points of P(lambda), lexicographic in reading-order coordinates.

    Every coordinate lies on at least one path, so all coordinates are a
    priori bounded.  Raises ValueError before allocating when |S(lambda)|,
    which is the Weyl dimension, exceeds POINT_LIMIT.
    """
    lam = validate_weight(lam)
    count = weyl_dim(lam)
    if count > POINT_LIMIT:
        raise ValueError(
            f"S(lambda) for lambda={lam} has {count} points, above the limit "
            f"{POINT_LIMIT} for listing them"
        )
    n = len(lam)
    return lattice_points(
        n * n, [(coords, sum(lam[a:b])) for _, coords, a, b in _path_table(n)]
    )


def _pack(digits, base: int) -> int:
    """The int whose base-`base` digits are the given ones, first most
    significant.  For digits below the base, packed ints compare as the
    tuples do, and adding two packed ints adds the vectors when no digit sum
    reaches the base."""
    key = 0
    for x in digits:
        key = key * base + x
    return key


def _unpack(key: int, base: int, length: int) -> tuple:
    """The `length` base-`base` digits of key, first most significant: the
    inverse of ``_pack``."""
    digits = []
    for _ in range(length):
        key, x = divmod(key, base)
        digits.append(x)
    digits.reverse()
    return tuple(digits)


def _variable_steps(n: int, base: int) -> list:
    """Per variable, in reading order, its packed cell in base `base`: the
    digits (simple coefficients of its root, degree 1).  A multi-exponent s
    has the cell sum(s_i * step_i) while no digit of it reaches the base."""
    return [
        _pack((*simple_coefficients(alpha, n), 1), base) for alpha in positive_roots(n)
    ]


def weight_of(s, n: int) -> tuple:
    """wt(s) = sum of s_alpha * alpha, expanded over the simple roots."""
    coeffs = [0] * n
    for alpha, x in zip(positive_roots(n), s):
        if x:
            for t, c in enumerate(simple_coefficients(alpha, n)):
                coeffs[t] += x * c
    return tuple(coeffs)


def degree_of(s) -> int:
    return sum(s)


def _graded_counts(lam, graded: bool = True) -> GradedDimensionTable:
    """Counts of S(lambda) per (weight offset, degree), no point built.

    The walk follows _plan over the path-table rows, and stores the table of
    cells below each key at walked coordinate t.  A cell is packed into one
    int in base ``base`` (_pack), so setting walked[t] to v shifts every cell
    below it by v * step[walked[t]]; a coordinate that is not walked is 0.
    With v = 0 nothing shifts, so the table from below for 0 starts the table
    at t: with no headroom it is shared as is, and otherwise it is copied with
    dict() before the shifted tables are added.  No stored table is ever
    changed, and the caller's result is a new dict.  With ``graded`` false
    every step is 0, and the one cell (0, 0) holds |S(lambda)|.
    """
    lam = validate_weight(lam)
    n = len(lam)
    rows = [(coords, sum(lam[a:b])) for _, coords, a, b in _path_table(n)]
    walked, slack, on, ahead, keys = _plan(rows)
    # every coordinate lies on a row and a root's simple coefficients are at
    # most 2, so base exceeds any degree, weight coordinate or slack
    base = 2 * sum(bound for _, bound in rows) + 1
    step = _variable_steps(n, base) if graded else [0] * (n * n)
    stop = len(walked)
    memo = [{} for _ in walked]  # per level: key -> table of cells below
    empty = {0: 1}
    get = slack.__getitem__

    def walk(t):
        if t == stop:
            return empty
        pick, merged = keys[t]
        key = (pick(slack), *[min(group(slack)) for group in merged])
        found = memo[t].get(key)
        if found is not None:
            return found
        headroom = min(map(get, on[t]))
        out = walk(t + 1)
        if headroom:
            out = dict(out)
            rows_t = ahead[t]
            for v in range(1, headroom + 1):
                for r in rows_t:
                    slack[r] -= 1
                shift = v * step[walked[t]]
                for cell, count in walk(t + 1).items():
                    cell += shift
                    out[cell] = out.get(cell, 0) + count
            for r in rows_t:
                slack[r] += headroom
        memo[t][key] = out
        return out

    table = walk(0)
    del walk  # the closure holds itself and the memo through its cell
    counts = {}
    for cell, count in table.items():
        cell = _unpack(cell, base, n + 1)
        counts[(cell[:-1], cell[-1])] = count
    return counts


def point_count(lam) -> int:
    """|S(lambda)|, counted by the walk without listing the points."""
    return sum(_graded_counts(lam, graded=False).values())


def character(lam) -> dict:
    """Weight multiplicities of S(lambda), keyed by lambda - mu over simple roots.

    The keys come in no set order; callers that print the table sort it.
    """
    char = Counter()
    for (wt, _), count in _graded_counts(lam).items():
        char[wt] += count
    return dict(char)


def graded_character(lam) -> GradedDimensionTable:
    """Counts of S(lambda) points per (weight offset, degree).

    The keys come in no set order; callers that print the table sort it.
    """
    return _graded_counts(lam)


def max_point_degree(lam) -> int:
    """Largest total degree over S(lambda)."""
    return max(deg for _, deg in _graded_counts(lam))


# ---------------------------------------------------------------------------
# classical oracles
# ---------------------------------------------------------------------------

def weyl_dim(lam) -> int:
    """Weyl dimension formula for C_n, evaluated exactly."""
    return _weyl_dim(validate_weight(lam))


@lru_cache(maxsize=256)
def _weyl_dim(lam: tuple) -> int:
    """weyl_dim of the validated lambda."""
    n = len(lam)
    l = [x + (n - k) for k, x in enumerate(epsilon_weight(lam))]  # lambda + rho
    r = [n - k for k in range(n)]  # rho
    dim = Fraction(1)
    for i in range(n):
        dim *= Fraction(l[i], r[i])
        for j in range(i + 1, n):
            dim *= Fraction(l[i] - l[j], r[i] - r[j])
            dim *= Fraction(l[i] + l[j], r[i] + r[j])
    if dim.denominator != 1:
        raise RuntimeError(f"Weyl dimension for {lam} is not an integer: {dim}")
    return int(dim)


def _signed_permutations(mu: tuple) -> list:
    """The orbit of mu under the Weyl group of C_n: its distinct signed permutations.

    Closed under the simple reflections, which swap entries k and k + 1
    (k < n) or negate the last entry.
    """
    n = len(mu)
    orbit = [mu]
    seen = {mu}
    for w in orbit:
        for k in range(n):
            if k < n - 1:
                image = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
            else:
                image = w[:k] + (-w[k],)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def freudenthal_multiplicities(lam) -> dict:
    """Exact weight multiplicities of V(lambda) via Freudenthal's recursion.

    Keys are offsets in the root lattice: the weight lambda - sum(c_k alpha_k)
    is keyed by (c_1, ..., c_n), matching the keys of character().  They come
    in increasing height sum(c_k), and in increasing offset within a height.

    Freudenthal's formula reads
    (|lambda+rho|^2 - |mu+rho|^2) m(mu)
    = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha),
    with (mu + k alpha, alpha) = (mu, alpha) + k |alpha|^2.  It runs over the
    dominant weights only, the orbit form of Moody and Patera.  In epsilon
    coordinates mu is dominant when its entries decrease and the last is
    >= 0.  By the dominant-chain lemma (Stembridge) every dominant weight
    below lambda is reached from lambda by subtracting positive roots through
    dominant weights alone, so that search lists them all.  They are solved
    in increasing height of lambda - mu.  By W-invariance m(mu + k alpha) is
    the multiplicity of the dominant representative, the absolute values in
    decreasing order, which lies strictly higher and is already known; each
    alpha-string stops at its first zero, since weight strings are unbroken.
    Each quotient is an exact int division.  Every dominant weight is then
    expanded over its Weyl orbit, its signed permutations.

    Each call returns a new dict, which the caller may change.
    """
    return dict(_freudenthal(validate_weight(lam)))


@lru_cache(maxsize=256)
def _freudenthal(lam: tuple) -> dict:
    """The table of freudenthal_multiplicities for the validated lambda,
    shared by every call at lambda: callers read a copy."""
    n = len(lam)
    top = epsilon_weight(lam)
    rho = tuple(range(n, 0, -1))
    roots = [epsilon_coords(alpha, n) for alpha in positive_roots(n)]
    roots = [(alpha, sum(a * a for a in alpha)) for alpha in roots]

    dominant = [top]
    seen = {top}
    for mu in dominant:
        for alpha, _ in roots:
            nu = tuple(a - b for a, b in zip(mu, alpha))
            if nu not in seen and nu[-1] >= 0 and all(
                a >= b for a, b in zip(nu, nu[1:])
            ):
                seen.add(nu)
                dominant.append(nu)
    offsets = {mu: epsilon_offset(lam, mu) for mu in dominant}
    dominant.sort(key=lambda mu: sum(offsets[mu]))

    def shifted_norm(mu):
        return sum((a + r) ** 2 for a, r in zip(mu, rho))

    top_norm = shifted_norm(top)
    mult = {top: 1}
    for mu in dominant[1:]:
        rhs = 0
        for alpha, length in roots:
            pairing = sum(a * b for a, b in zip(mu, alpha))
            nu = mu
            while True:
                nu = tuple(a + b for a, b in zip(nu, alpha))
                pairing += length
                m = mult.get(tuple(sorted(map(abs, nu), reverse=True)), 0)
                if not m:
                    break
                rhs += m * pairing
        denom = top_norm - shifted_norm(mu)
        if denom <= 0:
            raise RuntimeError(
                f"non-positive Freudenthal denominator at {offsets[mu]}"
            )
        value, rest = divmod(2 * rhs, denom)
        if rest:
            raise RuntimeError(
                f"non-integer multiplicity at {offsets[mu]}: {2 * rhs}/{denom}"
            )
        mult[mu] = value

    cells = []
    for mu in dominant:
        for w in _signed_permutations(mu):
            offset = epsilon_offset(lam, w)
            cells.append((sum(offset), offset, mult[mu]))
    cells.sort()
    return {offset: m for _, offset, m in cells}
