"""Periodic points of window-constrained shifts, and their free Z_p-sets.

A period-n point of a shift is a cyclic word of length n; a window
constraint says that for no i is the window of symbols at i + o (mod n), o
in a fixed tuple of offsets, forbidden.  `cyclic_words` is the one
enumerator of such words, over any alphabet: it backtracks and tests each
window as soon as its last position is placed.  `satisfies` applies the
same test to a whole word, and `rotate` is the shift on periodic words and
cubical cells alike.  Such families are walked one shift orbit at a time by
`simplicial.shift_orbits` and joined by `simplicial.join_power`.  The cubical
models in `cubical` are the p-periodic words of this kind over the alphabet
of grid boxes.

The basic examples here are the three-symbol shifts forbidding equal symbols
at offset 1 (adjacent symbols differ) and at a general offset m.  Offsets
are read modulo n, which in particular makes the offset-m constraint at
period m a self-pair (so that shift has no m-periodic points at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq, itemgetter

from .errors import BudgetExceeded, ValidationError
from .fplinalg import is_prime
from .simplicial import FreeZpComplex, SimplicialComplex, ZpAction, shift_orbits

Word = tuple[int, ...]

DEFAULT_ENUM_BUDGET = 20_000_000


@dataclass(frozen=True)
class Subshift:
    """Symbols 1..alphabet_size; (a, b) in forbidden bans x_i = a, x_{i+window} = b."""

    alphabet_size: int
    window: int
    forbidden: frozenset[tuple[int, int]]

    def __post_init__(self):
        for name in ("alphabet_size", "window"):
            value = getattr(self, name)
            # type, not isinstance: bool is a subclass of int
            if type(value) is not int or value < 1:
                raise ValidationError(f"{name} {value!r} must be an integer >= 1")
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
    offsets.  The words are built by backtracking, and each window is tested
    as soon as its last position is placed.  Each position entered counts
    len(alphabet) against `budget`, and each word found counts its n symbols."""
    if n < 1:
        raise ValidationError("period must be >= 1")
    if len(offsets) < 2:
        raise ValidationError("a window needs two or more offsets")
    if budget < 0:
        raise ValidationError(f"budget {budget} must be nonnegative")
    closing: list[list[itemgetter]] = [[] for _ in range(n)]
    for i in range(n):
        window = [(i + o) % n for o in offsets]
        closing[max(window)].append(itemgetter(*window))
    symbols = tuple(alphabet)
    size = len(symbols)
    found: list[tuple] = []
    word = [None] * n
    tried = [0] * n  # tried[i]: how many symbols position i has taken so far
    i, nodes = 0, size
    while i >= 0:
        if nodes > budget:
            raise BudgetExceeded(
                f"enumeration of length-{n} words exceeded budget {budget}", count=nodes)
        k = tried[i]
        if k == size:
            i -= 1
            continue
        tried[i] = k + 1
        word[i] = symbols[k]
        for window in closing[i]:
            if forbidden(window(word)):
                break
        else:
            if i == n - 1:
                found.append(tuple(word))
                nodes += n
            else:
                i += 1
                tried[i] = 0
                nodes += size
    return found


def satisfies(word, offsets, forbidden) -> bool:
    """The window test of `cyclic_words` on a whole word."""
    n = len(word)
    return not any(map(forbidden, zip(*(word[o % n:] + word[:o % n] for o in offsets))))


def make_sigma_m(m: int, alphabet_size: int = 3) -> Subshift:
    """Forbid equal symbols at offset m (alphabet {1,2,3} by default)."""
    return Subshift(alphabet_size, m,
                    frozenset((a, a) for a in range(1, alphabet_size + 1)))


def rotate(word: Word, a: int = 1) -> Word:
    """The shift applied a times to a periodic word."""
    a %= len(word)
    return word[a:] + word[:a]


@dataclass(frozen=True)
class PeriodicOrbitSet:
    """All period-n points of a subshift, closed under rotation.

    Length and window constraint are rotation invariant (a rotated word has
    the same windows), so they are checked on the first word of each orbit,
    and `shift_orbits` checks that every word's rotation is a point; the
    orbits from that one walk are kept."""

    shift: Subshift
    period: int
    points: tuple[Word, ...]
    _orbits: tuple[tuple[Word, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.period) is not int or self.period < 1:
            raise ValidationError(f"period {self.period!r} must be an integer >= 1")
        points = tuple(sorted(self.points))
        object.__setattr__(self, "points", points)
        if any(map(eq, points, points[1:])):
            raise ValidationError("duplicate periodic words")
        offsets, forbidden = self.shift.offsets, self.shift.forbidden.__contains__

        def check(w):
            if len(w) != self.period:
                raise ValidationError(f"word {w} has wrong length")
            if not satisfies(w, offsets, forbidden):
                raise ValidationError(f"word {w} violates the window constraint")
        orbits = shift_orbits(points, rotate, check, "orbit of {} not closed under rotation")
        object.__setattr__(self, "_orbits", tuple(tuple(map(points.__getitem__, o)) for o in orbits))

    def __len__(self):
        return len(self.points)

    def is_empty(self) -> bool:
        return not self.points

    def orbits(self) -> list[tuple[Word, ...]]:
        """Rotation orbits, each listed from its lexicographic minimum."""
        return list(self._orbits)

    def rotation_is_free(self) -> bool:
        return all(len(o) == self.period for o in self._orbits)


def periodic_points(shift: Subshift, n: int,
                    budget: int = DEFAULT_ENUM_BUDGET) -> PeriodicOrbitSet:
    """Complete enumeration of cyclic words of length n avoiding the
    forbidden pairs at the window offset taken mod n."""
    words = cyclic_words(range(1, shift.alphabet_size + 1), n, shift.offsets,
                         shift.forbidden.__contains__, budget)
    return PeriodicOrbitSet(shift, n, tuple(words))


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


def periodic_table(shift: Subshift, periods,
                   budget: int = DEFAULT_ENUM_BUDGET) -> list[tuple[int, int, int]]:
    """Rows (period, count, orbit_count) for the CSV interface."""
    rows = []
    for n in periods:
        pts = periodic_points(shift, n, budget)
        rows.append((n, len(pts), len(pts.orbits())))
    return rows
