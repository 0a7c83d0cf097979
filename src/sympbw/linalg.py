"""Exact sparse vectors and incremental row reduction over the rationals.

Vectors are sparse dicts mapping hashable, orderable keys to exact numbers
(ints or Fractions).  ``combine`` is the one place where terms are added into
a sparse vector and zeros are dropped; every sparse sum in the package goes
through it.

Numbers stay ints where the arithmetic is exact and become Fractions only
where it is not; no float is ever made.  A row normalized by an int pivot
keeps every entry that the pivot divides as an int and makes a Fraction only
of a non-integral quotient; a row with a Fraction pivot is scaled by the
pivot's exact inverse (both in ``_divide``).  ``exact_quotient`` divides two
numbers by the same rule, and no other module divides.

The basis keeps its rows fully reduced: each row owns its pivot key (the
smallest key of the row) with entry 1 there, and no other row has an entry at
that key.  Hence the coefficient of row r in any vector of the span is simply
the vector's entry at the pivot of r, and one pass over the input's pivot keys
gives the coordinates and the residual together (``_reduce``).  Membership
tests and coordinates are deterministic and independent of insertion history.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain


def combine(terms, start=()) -> dict:
    """A copy of start plus every (key, coefficient) pair of terms, summed by
    key; a key whose sum becomes zero is dropped as it occurs."""
    out = dict(start)
    for k, x in terms:
        y = out.get(k)
        if y is None:  # a new key: store x itself, sparing a Fraction sum with 0
            if x:
                out[k] = x
        else:
            y += x
            if y:
                out[k] = y
            else:
                del out[k]
    return out


def _scaled(vec: dict, c):
    """The terms of c*vec, without building the vector."""
    return ((k, c * x) for k, x in vec.items())


def vec_add(u: dict, v: dict, scale=1) -> dict:
    """u + scale*v as sparse dicts, dropping zeros."""
    return combine(_scaled(v, scale), u)


def vec_scale(u: dict, scale) -> dict:
    if not scale:
        return {}
    return {k: scale * x for k, x in u.items()}


def _divide(u: dict, p) -> dict:
    """u / p exactly.  For an int p an entry stays an int where p divides it
    and becomes a Fraction where not; any other p scales by its inverse."""
    if type(p) is not int:
        return vec_scale(u, Fraction(1, 1) / p)
    out = {}
    for k, x in u.items():
        if type(x) is int:
            q, r = divmod(x, p)
            out[k] = Fraction(x, p) if r else q
        else:
            out[k] = x / p
    return out


def exact_quotient(x, p):
    """x / p exactly, by the rule of ``_divide``: an int when p is an int
    that divides the int x, a Fraction otherwise."""
    return _divide({0: x}, p)[0]


class IncrementalBasis:
    """A growing reduced basis supporting rank, membership, and coordinates."""

    def __init__(self, track_combinations: bool = False):
        self.rows = []  # list of (pivot, vector) with vector[pivot] == 1
        self.pivots = {}  # pivot key -> row index
        self.track = track_combinations
        self.combos = []  # per row: dict add-index -> int or Fraction
        self.added = 0  # count of add() calls, successful or not

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict):
        """(residual, coordinates) of vec against the stored rows.

        The coordinates map row index -> the entry of vec at that row's pivot;
        the residual is vec minus that combination of rows, which is empty
        exactly when vec lies in the span.  Mutates nothing stored.
        """
        pivots = self.pivots
        rows = self.rows
        coords = {pivots[k]: x for k, x in vec.items() if x and k in pivots}
        residual = combine(chain(
            vec.items(),
            *(_scaled(rows[r][1], -c) for r, c in coords.items()),
        ))
        return residual, coords

    def residual(self, vec: dict) -> dict:
        """vec minus its projection onto the span; empty iff vec is in it."""
        return self._reduce(vec)[0]

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)[0]

    def add(self, vec: dict) -> bool:
        """Insert vec; True when it enlarged the span."""
        index = self.added
        self.added += 1
        vec, coords = self._reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        lead = vec[pivot]
        vec = _divide(vec, lead)
        if self.track:
            combo = _divide(combine(chain(
                ((index, 1),),
                *(_scaled(self.combos[r], -c) for r, c in coords.items()),
            )), lead)
        for r, (p, row) in enumerate(self.rows):
            c = row.get(pivot)
            if c:
                self.rows[r] = (p, vec_add(row, vec, -c))
                if self.track:
                    self.combos[r] = vec_add(self.combos[r], combo, -c)
        self.pivots[pivot] = len(self.rows)
        self.rows.append((pivot, vec))
        if self.track:
            self.combos.append(combo)
        return True

    def coordinates(self, vec: dict):
        """Coefficients over the stored rows (row index -> number), or None.

        Well-defined because the rows are linearly independent.
        """
        residual, coords = self._reduce(vec)
        return None if residual else coords

    def combination(self, vec: dict):
        """Express vec over the original add() inputs (add index -> number)."""
        if not self.track:
            raise RuntimeError("basis was built without combination tracking")
        coords = self.coordinates(vec)
        if coords is None:
            return None
        return combine(chain.from_iterable(
            _scaled(self.combos[r], c) for r, c in coords.items()
        ))
