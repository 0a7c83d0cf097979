"""Exact sparse vectors and incremental row reduction over the rationals.

Vectors are sparse dicts mapping hashable, orderable keys to exact numbers
(ints or Fractions).  ``add_into`` is the one place where terms are added into
a sparse vector and zeros are dropped: ``combine`` sums into a copy through
it, and every sparse sum in the package goes through one or the other.

No float is ever made.  ``_divide`` and its scalar form ``exact_quotient``
are the only divisions, and no other module divides: a quotient is an int
where it is integral and a Fraction where not.  The basis itself reduces
without division, in the manner of Bareiss: its rows are int vectors, a
vector with a Fraction entry has its denominators cleared, and a vector is
scaled where subtracting a row would otherwise divide.  Fractions appear only
in what the basis reports (combinations and the residual), never in its rows.

The basis keeps its rows fully reduced and primitive: each row owns its
pivot key (the smallest key of the row) with a positive int entry d_r there,
no other row has an entry at that key, and the gcd of the row's entries is
1.  Hence the coefficient of row r in any vector of the span is the vector's
entry x_r at the pivot of r over d_r, and one pass over the input's pivot
keys gives the residual (``_reduce``): the input is scaled by the lcm of
d_r / gcd(x_r, d_r) over the rows it meets, which keeps every multiple of a
row integral, and the multiples are subtracted.  A pivot entry of 1, by far
the most common, costs neither that lcm nor the gcd that makes a new row
primitive.  Membership tests are deterministic and independent of insertion
history.

The basis keeps no record of how its rows were made.  A caller that needs a
vector as a combination of its inputs tags each input with a key of its own,
above every other key, at entry 1 (``combination``).  A row then pivots on a
tag only when it holds no other key, so reducing an untagged vector leaves an
untagged key exactly when the vector is off the span of the untagged parts,
and otherwise leaves minus its combination, scaled, on the tags.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

def add_into(out: dict, terms) -> dict:
    """Add every (key, coefficient) pair of terms into out, in place, summed
    by key; a key whose sum becomes zero is dropped as it occurs.  Returns
    out."""
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


def combine(terms, start=()) -> dict:
    """A copy of start plus every (key, coefficient) pair of terms, summed by
    key, through add_into."""
    return add_into(dict(start), terms)


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


def _integral(vec: dict) -> tuple:
    """(den * vec with int entries, den), den the lcm of the denominators of
    vec's entries, for a vector with an entry that is not an int: one whose
    sum is not an int, since int + Fraction is a Fraction."""
    for x in vec.values():
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"entry {x!r} is neither an int nor a Fraction")
    den = lcm(*(x.denominator for x in vec.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items()}, den


def _primitive(vec: dict, lead: int) -> dict:
    """vec / g, g the gcd of vec's entries signed like the entry lead, so
    that lead / g > 0; no gcd is taken when lead is 1 or -1."""
    if lead == 1:
        return vec
    if lead == -1:
        return {k: -x for k, x in vec.items()}
    g = gcd(*vec.values())
    if lead < 0:
        g = -g
    return vec if g == 1 else {k: x // g for k, x in vec.items()}


def _divide(vec: dict, p) -> dict:
    """vec / p exactly: for an int p an entry stays an int where p divides
    it and becomes a Fraction where not; any other p divides as a Fraction."""
    if type(p) is not int:
        return {k: Fraction(x) / p for k, x in vec.items()}
    if p == 1:
        return vec
    out = {}
    for k, x in vec.items():
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
    """A growing reduced basis supporting rank, membership, and the
    combination of tagged inputs."""

    def __init__(self):
        self.rows = []  # list of (pivot, vector): int entries, gcd 1, vector[pivot] > 0
        self.pivots = {}  # pivot key -> row index
        self.wide = {}  # row index -> its pivot entry, for the entries above 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict):
        """(residual, scale) of vec.

        The residual is scale*vec minus the multiple of each row r that
        clears vec's entry at the pivot of r; it is empty exactly when vec
        lies in the span.  scale is 1 unless vec meets a row whose pivot
        entry is not 1: then vec is made integral and scaled by the least int
        that lets every such row be subtracted in ints.  Mutates nothing
        stored.
        """
        pivots, rows, wide = self.pivots, self.rows, self.wide
        factors = {pivots[k]: x for k, x in vec.items() if x and k in pivots}
        scale = 1
        if wide and not wide.keys().isdisjoint(factors):
            if type(sum(vec.values())) is not int:
                vec, scale = _integral(vec)
                factors = {pivots[k]: x for k, x in vec.items() if x and k in pivots}
            lift = 1
            for r, x in factors.items():
                d = wide.get(r)
                if d:
                    lift = lcm(lift, d // gcd(x, d))
            factors = {r: lift * x // wide.get(r, 1) for r, x in factors.items()}
            if lift != 1:
                scale *= lift
                vec = vec_scale(vec, lift)
        residual = combine(
            chain.from_iterable(_scaled(rows[r][1], -f) for r, f in factors.items()),
            {k: x for k, x in vec.items() if x},
        )
        return residual, scale

    def residual(self, vec: dict) -> dict:
        """vec minus its projection onto the span; empty iff vec is in it."""
        return _divide(*self._reduce(vec))

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)[0]

    def add(self, vec: dict) -> bool:
        """Insert vec; True when it enlarged the span."""
        vec = self._reduce(vec)[0]
        if not vec:
            return False
        if type(sum(vec.values())) is not int:
            vec = _integral(vec)[0]
        pivot = min(vec)
        new = _primitive(vec, vec[pivot])
        lead = new[pivot]
        for r, (p, row) in enumerate(self.rows):
            c = row.get(pivot)
            if not c:
                continue
            h = gcd(c, lead)
            a, b = lead // h, c // h  # a*row - b*new has no entry at pivot
            row = vec_add(row if a == 1 else vec_scale(row, a), new, -b)
            d = row[p]
            if d != 1:  # else the pivot entry was 1 and stays 1
                row = _primitive(row, d)
                d = row[p]
                if d == 1:
                    self.wide.pop(r, None)
                else:
                    self.wide[r] = d
            self.rows[r] = (p, row)
        if lead != 1:
            self.wide[len(self.rows)] = lead
        self.pivots[pivot] = len(self.rows)
        self.rows.append((pivot, new))
        return True

    def combination(self, vec: dict, start):
        """Express vec over the inputs by their tags (tag -> number), or None.

        Every input must carry one tag key of its own, at or above start,
        with entry 1, and all its other keys below start; vec must have
        keys below start alone.  A residual key below start means vec is off
        the span of the inputs' untagged parts; otherwise the coefficient of
        the input tagged t is minus the residual at t over the scale of the
        reduction.  The inputs need not be independent.
        """
        residual, scale = self._reduce(vec)
        if any(k < start for k in residual):
            return None
        return {k: -x for k, x in _divide(residual, scale).items()}
