"""Sparse linear algebra over the prime field F_p, and the homology driver.

Matrices are given column-wise as dicts {row key: coefficient}, keys that
sort.  Rank is computed by left-to-right column reduction on the lowest row,
the largest key (persistence-style), deterministic for a fixed column order.
`betti_numbers` is the one homology driver: it builds boundary columns keyed
by faces from a signed-face rule and reduces them with clearing, for
simplicial and cubical complexes alike.  `cut_power` takes integer matrix
powers cut at a cap, and `prime` decides primes.
"""

from __future__ import annotations

import itertools
from operator import mul

from .errors import ValidationError

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to all _BASES


def prime(p, name: str = "p") -> int:
    """Return p, or raise ValidationError unless p is an int >= 2 below
    PRIME_LIMIT that passes the Miller-Rabin test to each of _BASES it does
    not divide (p - 1 = d 2^s, d odd: a^d = 1 or a^(d 2^r) = -1 mod p, some
    r < s), which only primes do (Sorenson & Webster 2015)."""
    if type(p) is not int or p < 2:
        raise ValidationError(f"{name}={p!r} is not prime")
    if p >= PRIME_LIMIT:  # not printed: it may be too long for str
        raise ValidationError(f"{name} must be below {PRIME_LIMIT} to be decided prime")
    s = ((p - 1) & (1 - p)).bit_length() - 1
    for a in _BASES:
        x = pow(a, (p - 1) >> s, p)
        if a % p and x != 1 and p - 1 not in itertools.accumulate(
                range(s - 1), lambda y, _: y * y % p, initial=x):
            raise ValidationError(f"{name}={p!r} is not prime")
    return p


def cut_power(matrix: list[list[int]], e: int, cap: int) -> list[list[int]]:
    """matrix^e, each entry of each product cut to min(entry, cap)."""
    def times(x, y):
        return [[min(sum(map(mul, row, col)), cap) for col in zip(*y)] for row in x]
    result = [[int(i == j) for j in range(len(matrix))] for i in range(len(matrix))]
    while e:
        if e & 1:
            result = times(result, matrix)
        matrix, e = times(matrix, matrix), e >> 1
    return result


def fp_rank(columns: list[dict], p: int, pivot_rows: set | None = None) -> int:
    """Rank over F_p of the matrix whose columns are the given dicts, left
    unchanged.  A column whose lowest key holds a coefficient nonzero mod p,
    in a row no pivot holds yet, is kept as given as that row's pivot; any
    other is reduced into a copy.  The pivot rows are added to `pivot_rows`."""
    pivots: dict = {}
    for col in columns:
        if col and col[low := max(col)] % p and low not in pivots:
            pivots[low] = col
            continue
        work = {r: c % p for r, c in col.items() if c % p}
        while work:
            low = max(work)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = work
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
    return len(pivots)


def betti_numbers(by_dim, signed_faces, p: int, reduced: bool) -> tuple[int, ...]:
    """Betti numbers over F_p of the chain complex whose k-chains have the
    cells by_dim[k] as basis, and whose boundary sends a cell of dimension
    k >= 1 to the sum of sign * face over the (face, sign) pairs of
    signed_faces(cell), each face a cell of by_dim[k - 1] and its row key;
    the levels come in increasing key order (sorted codes, index ranges).
    In degree 0 the boundary is zero, or with `reduced` the augmentation
    that sends every cell to 1, which gives the reduced Betti numbers.

    Clearing (Chen & Kerber, "Persistent homology computation with a twist",
    2011): the degrees are reduced from the top down, and a k-cell that is
    the pivot row of a reduced column of d_{k+1} gets no column of d_k, which
    is never built.  In any level order its column is a combination of those
    of lower keys, so the rank does not change, but only when d_k d_{k+1} =
    0: the signed faces must form a chain complex, the augmentation included.
    """
    prime(p)
    ranks = [0] * (len(by_dim) + 1)  # no boundaries coming from above the top degree
    cleared: set = set()
    for k in reversed(range(len(by_dim))):
        kept = itertools.filterfalse(cleared.__contains__, by_dim[k])
        if k:
            columns = list(map(dict, map(signed_faces, kept)))
        else:
            columns = [{0: 1} if reduced else {} for _ in kept]
        cleared = set()
        ranks[k] = fp_rank(columns, p, cleared)
        del columns  # freed before the next degree's columns are built
    return tuple(len(cells) - ranks[k] - ranks[k + 1] for k, cells in enumerate(by_dim))
