"""Periodic points of window-constrained shifts, and their free Z_p-sets.

A period-n point of a shift is a cyclic word of length n; a window
constraint says that for no i is the window of symbols at i + o (mod n), o
in a fixed tuple of offsets, forbidden.  `cyclic_words` is the one
enumerator of such words, over any alphabet: it backtracks and tests each
window as soon as its last position is placed.  `satisfies` applies the
same test to a whole word.  The cubical models in `cubical` are the
p-periodic words of this kind over the alphabet of grid boxes.

The basic examples here are the three-symbol shifts forbidding equal symbols
at offset 1 (adjacent symbols differ) and at a general offset m.  Offsets
are read modulo n, which in particular makes the offset-m constraint at
period m a self-pair (so that shift has no m-periodic points at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceeded, ValidationError
from .fplinalg import is_prime
from .simplicial import FreeZpComplex, SimplicialComplex, ZpAction, cycles, join

Word = tuple[int, ...]

DEFAULT_ENUM_BUDGET = 20_000_000


@dataclass(frozen=True)
class Subshift:
    """Symbols 1..alphabet_size; (a, b) in forbidden bans x_i = a, x_{i+window} = b."""

    alphabet_size: int
    window: int
    forbidden: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValidationError("alphabet_size must be >= 1")
        if self.window < 1:
            raise ValidationError("window must be >= 1")
        for a, b in self.forbidden:
            if not (1 <= a <= self.alphabet_size and 1 <= b <= self.alphabet_size):
                raise ValidationError(f"forbidden pair ({a},{b}) outside alphabet")
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))

    @property
    def offsets(self) -> tuple[int, int]:
        return (0, self.window)


def cyclic_words(alphabet, n: int, offsets, forbidden, budget: int) -> list[tuple]:
    """Every length-n word over `alphabet` none of whose windows, the tuples
    (word[(i + o) % n] for o in offsets) for each i, is forbidden(window), in
    the lexicographic order of `alphabet`.  A window spans two or more
    offsets.  Each window is tested as soon as its last position is placed;
    every placed symbol counts against `budget`."""
    if n < 1:
        raise ValidationError("period must be >= 1")
    if len(offsets) < 2:
        raise ValidationError("a window needs two or more offsets")
    closing: list[list[itemgetter]] = [[] for _ in range(n)]
    for i in range(n):
        window = [(i + o) % n for o in offsets]
        closing[max(window)].append(itemgetter(*window))
    found: list[tuple] = []
    word = [None] * n
    nodes = 0

    def extend(i: int):
        nonlocal nodes
        if i == n:
            found.append(tuple(word))
            return
        nodes += len(alphabet)
        if nodes > budget:
            raise BudgetExceeded(
                f"enumeration of length-{n} words exceeded budget {budget}", count=nodes)
        windows = closing[i]
        for symbol in alphabet:
            word[i] = symbol
            for window in windows:
                if forbidden(window(word)):
                    break
            else:
                extend(i + 1)

    extend(0)
    return found


def satisfies(word, offsets, forbidden) -> bool:
    """The window test of `cyclic_words` on a whole word."""
    n = len(word)
    return not any(map(forbidden, zip(*(word[o % n:] + word[:o % n] for o in offsets))))


def make_sigma_m(m: int, alphabet_size: int = 3) -> Subshift:
    """Forbid equal symbols at offset m (alphabet {1,2,3} by default)."""
    return Subshift(alphabet_size, m,
                    frozenset((a, a) for a in range(1, alphabet_size + 1)))


def make_sigma() -> Subshift:
    return make_sigma_m(1)


def rotate(word: Word) -> Word:
    """One application of the shift to a periodic word."""
    return word[1:] + word[:1]


@dataclass(frozen=True)
class PeriodicOrbitSet:
    """All period-n points of a subshift, closed under rotation."""

    shift: Subshift
    period: int
    points: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points)))
        pts = set(self.points)
        if len(pts) != len(self.points):
            raise ValidationError("duplicate periodic words")
        offsets, forbidden = self.shift.offsets, self.shift.forbidden.__contains__
        for w in self.points:
            if len(w) != self.period:
                raise ValidationError(f"word {w} has wrong length")
            if not satisfies(w, offsets, forbidden):
                raise ValidationError(f"word {w} violates the window constraint")
            if rotate(w) not in pts:
                raise ValidationError(f"orbit of {w} not closed under rotation")

    def __len__(self):
        return len(self.points)

    def is_empty(self) -> bool:
        return not self.points

    def orbits(self) -> list[tuple[Word, ...]]:
        """Rotation orbits, each listed from its lexicographic minimum."""
        return cycles(self.points, rotate)

    def rotation_is_free(self) -> bool:
        return all(len(o) == self.period for o in self.orbits())


def periodic_points(shift: Subshift, n: int,
                    budget: int = DEFAULT_ENUM_BUDGET) -> PeriodicOrbitSet:
    """Complete enumeration of cyclic words of length n avoiding the
    forbidden pairs at the window offset taken mod n."""
    words = cyclic_words(range(1, shift.alphabet_size + 1), n, shift.offsets,
                         shift.forbidden.__contains__, budget)
    return PeriodicOrbitSet(shift, n, tuple(words))


def odd_period_witness(m: int) -> Word:
    """The explicit odd-period point of the adjacent-symbols-differ shift:
    l alternating pairs 1,2 followed by a single 3, for m = 2l + 1."""
    if m < 3 or m % 2 == 0:
        raise ValidationError(f"m={m} must be odd and >= 3")
    l = (m - 1) // 2
    word = (1, 2) * l + (3,)
    sigma = make_sigma()
    if not satisfies(word, sigma.offsets, sigma.forbidden.__contains__):
        raise ValidationError("constructed word failed the cyclic check")
    return word


def as_free_zp_complex(a: PeriodicOrbitSet) -> FreeZpComplex:
    """The periodic points as a discrete free Z_p-set (p = period prime)."""
    if a.is_empty():
        raise ValidationError("empty periodic-point set carries no free action")
    p = a.period
    if not is_prime(p):
        raise ValidationError(f"period {p} is not prime")
    if not a.rotation_is_free():
        raise ValidationError("rotation has fixed points; action is not free")
    index = {w: i for i, w in enumerate(a.points)}
    perm = tuple(index[rotate(w)] for w in a.points)
    cx = SimplicialComplex(len(a.points), [[(i,) for i in range(len(a.points))]])
    return FreeZpComplex(cx, ZpAction(p, perm))


def join_periodic_sets(a: PeriodicOrbitSet, b: PeriodicOrbitSet, p: int) -> FreeZpComplex:
    """Simplicial join of two discrete periodic-point sets of prime period p,
    with the simultaneous rotation action.  An empty side is the join unit."""
    if b.is_empty():
        return as_free_zp_complex(a)
    if a.is_empty():
        return as_free_zp_complex(b)
    if a.period != p or b.period != p:
        raise ValidationError(f"periods {a.period}, {b.period} must equal p={p}")
    return join(as_free_zp_complex(a), as_free_zp_complex(b))


def join_power(a: PeriodicOrbitSet, copies: int) -> FreeZpComplex:
    """Join of `copies` copies of the periodic-point set."""
    if copies < 1:
        raise ValidationError("need at least one copy")
    out = as_free_zp_complex(a)
    for _ in range(copies - 1):
        out = join(out, as_free_zp_complex(a))
    return out


def periodic_table(shift: Subshift, periods,
                   budget: int = DEFAULT_ENUM_BUDGET) -> list[tuple[int, int, int]]:
    """Rows (period, count, orbit_count) for the CSV interface."""
    rows = []
    for n in periods:
        pts = periodic_points(shift, n, budget)
        rows.append((n, len(pts), len(pts.orbits())))
    return rows
