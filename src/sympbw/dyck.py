"""Symplectic Dyck paths over the triangle of positive roots.

A path is a sequence of positive roots that starts at a simple root, moves
through the triangle by right steps (next column in J) or down steps (next
row), and ends at a simple root or at a root alpha_{j,bar(j)}.  The variables
along a path strictly increase in the variable order, so each path imposes
one linear inequality on multi-exponents.
"""
from __future__ import annotations

from functools import lru_cache

from .rootsys import (
    is_hook_root,
    is_simple_root,
    is_valid_root,
    positive_roots,
    root_successors,
    simple_root,
    validate_rank,
)


@lru_cache(maxsize=None)
def enumerate_paths(n: int) -> tuple:
    """All symplectic Dyck paths, sorted by their (row, column) sequences."""
    validate_rank(n)
    found = []

    def extend(path):
        last = path[-1]
        if is_simple_root(last) or is_hook_root(last, n):
            found.append(tuple(path))
        for nxt in sorted(root_successors(last, n)):
            path.append(nxt)
            extend(path)
            path.pop()

    for i in range(1, n + 1):
        extend([simple_root(i)])
    del extend  # the closure holds itself through its cell: free it with the call
    # sorted already: the right step (same row) is tried before the down step
    return tuple(found)


def count_paths(n: int) -> int:
    """len(enumerate_paths(n)), counted without listing a path.

    A path from alpha stops at alpha, when alpha may end a path, or goes on
    through one of its successors, so the paths from alpha number that stop
    plus the paths from each successor.  A successor comes later in reading
    order, so one pass over the roots in reverse reading order counts each
    root's paths once; the paths start at the simple roots.
    """
    validate_rank(n)
    below = {}
    for alpha in reversed(positive_roots(n)):
        below[alpha] = (is_simple_root(alpha) or is_hook_root(alpha, n)) + sum(
            below[beta] for beta in root_successors(alpha, n)
        )
    return sum(below[simple_root(i)] for i in range(1, n + 1))


def is_dyck_path(seq, n: int):
    """Check the three path conditions; returns (ok, first violated clause or None)."""
    seq = tuple(seq)
    if not seq:
        return False, "empty sequence"
    for alpha in seq:
        if not is_valid_root(alpha, n):
            return False, f"{alpha} is not a positive root for rank {n}"
    if not is_simple_root(seq[0]):
        return False, f"clause (a): first root {seq[0]} is not simple"
    last = seq[-1]
    if not (is_simple_root(last) or is_hook_root(last, n)):
        return False, (
            f"clause (b): last root {last} is neither simple nor of the form "
            "alpha_(j,bar(j))"
        )
    for prev, nxt in zip(seq, seq[1:]):
        if nxt not in root_successors(prev, n):
            return False, f"clause (c): {nxt} is not a successor of {prev}"
    return True, None
