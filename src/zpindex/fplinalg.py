"""Sparse linear algebra over the prime field F_p.

Matrices are given column-wise as dicts {row_index: coefficient}. Rank is
computed by left-to-right column reduction on the lowest nonzero row
(persistence-style), which is deterministic for a fixed column order.

Betti numbers use clearing (Chen & Kerber, "Persistent homology computation
with a twist", 2011): the boundary matrices are reduced from the top degree
down, and a cell that is the pivot row of a reduced column of d_{k+1} has a
column of d_k that reduces to zero, since d_k d_{k+1} = 0, so it is skipped.
The input must therefore be a chain complex.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


def betti_numbers(boundary_columns: list[list[dict[int, int]]], p: int) -> list[int]:
    """Betti numbers over F_p of a chain complex, with clearing.

    boundary_columns[k] holds the columns of the boundary operator
    C_k -> C_{k-1}; boundary_columns[0] must be the columns of the zero map
    (empty dicts), or of an augmentation, one per 0-chain generator, so chain
    ranks can be read off.  The operators must compose to zero: a column of
    C_k -> C_{k-1} whose index is a pivot row of C_{k+1} -> C_k is left out
    of the rank, which is right only when d_k d_{k+1} = 0.  A cleared column
    is a combination of earlier columns, so the rank does not change.
    """
    dims = [len(cols) for cols in boundary_columns]
    ranks = [0] * (len(dims) + 1)  # no boundaries coming from above the top degree
    cleared: set[int] = set()
    for k in reversed(range(len(dims))):
        kept = [col for j, col in enumerate(boundary_columns[k]) if j not in cleared]
        cleared = set()
        ranks[k] = fp_rank(kept, p, cleared)
    return [dims[k] - ranks[k] - ranks[k + 1] for k in range(len(dims))]
