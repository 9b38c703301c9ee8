"""Sparse linear algebra over the prime field F_p, and the homology driver.

Matrices are given column-wise as dicts {row_index: coefficient}. Rank is
computed by left-to-right column reduction on the lowest nonzero row
(persistence-style), which is deterministic for a fixed column order.
`betti_numbers` is the one homology driver: it builds boundary columns from a
signed-face rule and reduces them with clearing, for simplicial and cubical
complexes alike.
"""

from __future__ import annotations

import math

from .errors import ValidationError


def prime(p, name: str = "p") -> int:
    """Return p, or raise ValidationError unless p is an int >= 2 with no divisor in 2..isqrt(p)."""
    if type(p) is not int or p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValidationError(f"{name}={p!r} is not prime")
    return p


def fp_rank(columns: list[dict[int, int]], p: int, pivot_rows: set[int] | None = None) -> int:
    """Rank over F_p of the matrix whose columns are the given dicts.  When
    `pivot_rows` is given, the pivot row of every column that stays nonzero
    after reduction is added to it."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        work = {r: c % p for r, c in col.items() if c % p != 0}
        while work:
            low = max(work)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = work
                rank += 1
                break
            factor = (work[low] * pow(pivot[low], p - 2, p)) % p
            for r, c in pivot.items():
                v = (work.get(r, 0) - factor * c) % p
                if v:
                    work[r] = v
                elif r in work:
                    del work[r]
    if pivot_rows is not None:
        pivot_rows.update(pivots)
    return rank


def betti_numbers(by_dim, signed_faces, p: int, reduced: bool) -> tuple[int, ...]:
    """Betti numbers over F_p of the chain complex whose k-chains have the
    cells by_dim[k] as basis, and whose boundary sends a cell of dimension
    k >= 1 to the sum of sign * face over the (face, sign) pairs of
    signed_faces(cell), each face a cell of by_dim[k - 1].  In degree 0 the
    boundary is zero, or with `reduced` the augmentation that sends every
    cell to 1, which gives the reduced Betti numbers.

    Clearing (Chen & Kerber, "Persistent homology computation with a twist",
    2011): the degrees are reduced from the top down, and a k-cell that is
    the pivot row of a reduced column of d_{k+1} gets no column of d_k, which
    is never built.  Its column would be a combination of earlier columns,
    so the rank does not change, but only when d_k d_{k+1} = 0: the signed
    faces must form a chain complex, the augmentation included.
    """
    prime(p)
    ranks = [0] * (len(by_dim) + 1)  # no boundaries coming from above the top degree
    cleared: set[int] = set()
    for k in reversed(range(len(by_dim))):
        kept = [cell for j, cell in enumerate(by_dim[k]) if j not in cleared]
        if k:
            row = {face: i for i, face in enumerate(by_dim[k - 1])}
            columns = [{row[face]: sign for face, sign in signed_faces(cell)} for cell in kept]
        else:
            columns = [{0: 1} if reduced else {} for _ in kept]
        cleared = set()
        ranks[k] = fp_rank(columns, p, cleared)
        del kept, columns  # freed before the next degree's columns are built
    return tuple(len(cells) - ranks[k] - ranks[k + 1] for k, cells in enumerate(by_dim))
