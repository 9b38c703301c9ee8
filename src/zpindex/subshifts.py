"""Periodic points of window-constrained shifts, and their free Z_p-sets.

A period-n point of a shift is a cyclic word of length n; a window
constraint says that for no i is the window of symbols at i + o (mod n), o
in a fixed tuple of offsets, forbidden.  `each_cyclic_word` is the one
enumerator of such words, over any alphabet, and every caller's entry: a
depth-first search in one loop, the same step at every position, whose
domains are bitsets over the alphabet, the AND of one cached table entry per
window closing at the position; `rotate` is the shift on periodic words.  A
shift's periodic points are the enumerator's words, and `as_free_zp_complex`
makes a prime-period list a discrete free Z_p-set, for `simplicial.join_power`
to join.  `periodic_table` counts them with no word built: a period-n point
is g = gcd(window, n) closed walks of the transfer matrix A of allowed pairs,
so there are tr(A^(n/g))^g (Lind & Marcus 1995, Prop. 2.2.12), with each
matrix product cut at a cap set by the budget on n * count, which keeps every
count below the cap exact.  The cubical models in `cubical` are the
p-periodic words of this kind over the indices of grid boxes.

The basic examples here are the three-symbol shifts forbidding equal symbols
at offset 1 (adjacent symbols differ) and at a general offset m.  Offsets
are read modulo n, which in particular makes the offset-m constraint at
period m a self-pair (so that shift has no m-periodic points at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress, repeat
from math import gcd, isqrt
from operator import add, and_, itemgetter

from .errors import BudgetExceeded, ValidationError, whole
from .fplinalg import cut_power, prime
from .simplicial import FreeZpComplex, SimplicialComplex, ZpAction

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
            whole(getattr(self, name), name, 1)
        for a, b in self.forbidden:
            if not (1 <= a <= self.alphabet_size and 1 <= b <= self.alphabet_size):
                raise ValidationError(f"forbidden pair ({a},{b}) outside alphabet")
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))

    @property
    def offsets(self) -> tuple[int, int]:
        return (0, self.window)


def each_cyclic_word(alphabet, n: int, offsets, forbidden, budget: int):
    """Yield every length-n word over the sequence `alphabet` none of whose
    windows, the tuples (word[(i + o) % n] for o in offsets) for each i, is
    forbidden(window), in the lexicographic order of `alphabet`.  A window
    spans two or more offsets.  The search is one depth-first loop over
    bitset domains, bit k standing for the k-th symbol, with the symbols each
    position has still to take on an explicit stack, so no period is too long
    for it.  A window closing at position i (its largest one) has a table from
    the symbols at its other positions to the bitset it allows at i: a cached
    function that judges an entry symbol by symbol when its key is first met.
    The domain of i is the AND of its windows' entries (all symbols if none
    closes there), taken lowest bit first, its symbols spelled out once per
    bitset.  Each symbol taken counts against `budget`: len(alphabet) below
    the last position, for the position it enters, and n at the last, for the
    word it completes.  The checks run when the first word is asked for."""
    whole(n, "period", 1)
    if len(offsets) < 2:
        raise ValidationError("a window needs two or more offsets")
    whole(budget, "budget")
    size = len(alphabet)
    exceeded = f"enumeration of length-{n} words exceeded budget {budget}"
    if size > budget:  # before the alphabet or any table is built
        raise BudgetExceeded(exceeded, count=size)
    symbols = tuple(alphabet)
    full, bits, singles = (1 << size) - 1, [1 << k for k in range(size)], [(s,) for s in symbols]

    def table(layout: tuple):
        """Earlier symbols -> allowed bitset; the window is key + (symbol,) in `layout` order."""
        arrange, single = itemgetter(*layout), max(layout) == 1
        return cache(lambda key: full - sum(compress(bits, map(forbidden, map(
            arrange, map(add, repeat((key,) if single else key, size), singles))))))

    closing: list[list[tuple]] = [[] for _ in range(n)]
    for i in range(n):
        window = [(i + o) % n for o in offsets]
        last = max(window)
        earlier = [q for q in window if q != last]  # none: a constant entry, key ()
        layout = tuple(earlier.index(q) if q != last else len(earlier) for q in window)
        closing[last].append((table(layout), itemgetter(*earlier) if earlier else lambda w: ()))
    spelled = cache(lambda mask: tuple(compress(symbols, map(and_, bits, repeat(mask)))))

    def domain(i: int) -> tuple:
        mask = full
        for entries, key_of in closing[i]:
            mask &= entries(key_of(word))
        return spelled(mask)

    word = [None] * n
    left = [iter(domain(0))] * n  # left[i]: the symbols position i has still to take
    i, nodes = 0, size
    while i >= 0:
        for word[i] in left[i]:
            nodes += n if i == n - 1 else size  # a word found, or position i + 1 entered
            if nodes > budget:
                raise BudgetExceeded(exceeded, count=nodes)
            if i == n - 1:
                yield tuple(word)
            else:
                i += 1
                left[i] = iter(domain(i))
                break
        else:
            i -= 1


def make_sigma_m(m: int, alphabet_size: int = 3) -> Subshift:
    """Forbid equal symbols at offset m (alphabet {1,2,3} by default)."""
    return Subshift(alphabet_size, m,
                    frozenset((a, a) for a in range(1, alphabet_size + 1)))


def rotate(word: Word, a: int = 1) -> Word:
    """The shift applied a times to a periodic word."""
    a %= len(word)
    return word[a:] + word[:a]


def periodic_points(shift: Subshift, n: int, budget: int = DEFAULT_ENUM_BUDGET) -> list[Word]:
    """The period-n points of the shift, in lexicographic order: the cyclic
    words of length n avoiding the forbidden pairs at the window offset
    taken mod n."""
    return list(each_cyclic_word(range(1, shift.alphabet_size + 1), n, shift.offsets,
                                 shift.forbidden.__contains__, budget))


def as_free_zp_complex(words) -> FreeZpComplex:
    """Distinct words of one prime length p, closed under `rotate`, as a
    discrete free Z_p-set: vertex i is the i-th word and T rotates it.
    `ZpAction` refuses a word that T fixes."""
    words = list(words)
    if not words:
        raise ValidationError("empty periodic-point set carries no free action")
    lengths = set(map(len, words))
    if len(lengths) != 1:
        raise ValidationError(f"words of lengths {sorted(lengths)}, not of one period")
    (p,) = lengths
    prime(p, "period")
    index = {w: i for i, w in enumerate(words)}
    if len(index) != len(words):
        raise ValidationError("duplicate periodic words")
    perm = tuple(map(index.get, map(rotate, words)))
    if None in perm:
        raise ValidationError(f"rotation of {words[perm.index(None)]} is not a word of the set")
    cx = SimplicialComplex(len(words), [[(i,) for i in range(len(words))]])
    return FreeZpComplex(cx, ZpAction(p, perm))


def periodic_table(shift: Subshift, periods,
                   budget: int = DEFAULT_ENUM_BUDGET) -> list[tuple[int, int, int]]:
    """Rows (period, count, orbit_count) for the CSV interface, counted with
    no word built.  With A[a][b] = 1 when (a, b) is not forbidden, the
    positions of a period-n point fall into g = gcd(window, n) cycles of
    length n/g, each a closed walk of A, so count = tr(A^(n/g))^g (Lind &
    Marcus, *An Introduction to Symbolic Dynamics and Coding*, 1995, Prop.
    2.2.12); when n divides the window every pair is a self-pair, and
    count = tr(A)^n.  The budget bounds the symbols counted, as the
    enumerator charged them: a period is refused when n * count > budget.
    So every product is cut to min(entry, cap), cap = budget // n + 1, which
    for nonnegative integer matrices is exactly min(true entry, cap): a cut
    factor times a nonzero one already reaches the cap.  A period costs
    O(k^3 log n) operations on integers below k * cap.

    orbit_count is, by Burnside's lemma, the mean over j in range(n) of the
    points fixed by T^j: the period-d points repeated, for d = gcd(j, n),
    since their pairs read mod n are those read mod d; phi(n/d) of the j
    have gcd d.  A period-d point is a period-n point, so below the cap the
    divisors' counts are exact.  Each n is checked and held to the budget
    before any divisor is counted."""
    whole(budget, "budget")
    symbols = range(1, shift.alphabet_size + 1)
    allowed = [[int((a, b) not in shift.forbidden) for b in symbols] for a in symbols]
    rows = []
    for n in periods:
        whole(n, "period", 1)
        cap = budget // n + 1
        points = _count(allowed, shift.window, n, cap)
        if n * points > budget:
            raise BudgetExceeded(f"counting length-{n} words exceeded budget {budget}",
                                 count=n * points)
        phi = _totients(n) if points else {}
        rows.append((n, points, sum(
            phi[n // d] * _count(allowed, shift.window, d, cap) for d in phi) // n))
    return rows


def _count(allowed: list[list[int]], window: int, n: int, cap: int) -> int:
    """min(cap, the period-n points) = min(cap, tr(A^(n/g))^g), g = gcd(window, n);
    the g-th power is that of a 1 x 1 matrix, so it is cut the same way."""
    g = gcd(window, n)
    walks = cut_power(allowed, n // g, cap)
    return cut_power([[sum(walks[i][i] for i in range(len(walks)))]], g, cap)[0][0]


def _totients(n: int) -> dict[int, int]:
    """phi(e) for the divisors e of n, by Gauss: the phi(f), f | e, sum to e."""
    phi: dict[int, int] = {}
    for e in sorted({e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)}):
        phi[e] = e - sum(phi[f] for f in phi if e % f == 0)
    return phi
