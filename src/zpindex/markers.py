"""Finite dynamical systems: marker checks, distance-profile embeddings into
cubes, trajectory maps into gap-constrained shift spaces, and the expected
stopping time of the backward random walk with a stopping weight.

All arithmetic is exact rational.  The defect set E of the stopping-time
function is defined by an equality test, which floating point would corrupt.
Euclidean distances are carried as exact squared rationals; comparisons
against thresholds are squared as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .simplicial import cycles


def _frac(value) -> Fraction:
    if isinstance(value, (Fraction, int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"expected exact rational, got {value!r}") from exc
    raise ValidationError(f"expected exact rational, got {value!r}")


class FiniteDynSys:
    """Finite metric space with a bijection acting on it."""

    __slots__ = ("n", "metric", "T", "T_inv")

    def __init__(self, metric, T):
        self.metric = tuple(tuple(_frac(v) for v in row) for row in metric)
        self.n = len(self.metric)
        self.T = tuple(T)
        if not all(isinstance(t, int) for t in self.T):
            raise ValidationError("T must hold integer point indices")
        if sorted(self.T) != list(range(self.n)):
            raise ValidationError("T is not a bijection on the points")
        inv = [0] * self.n
        for i, j in enumerate(self.T):
            inv[j] = i
        self.T_inv = tuple(inv)
        self._validate_metric()

    def _validate_metric(self):
        d = self.metric
        for i in range(self.n):
            if len(d[i]) != self.n:
                raise ValidationError("metric matrix is not square")
            if d[i][i] != 0:
                raise ValidationError(f"d({i},{i}) != 0")
            for j in range(self.n):
                if d[i][j] < 0:
                    raise ValidationError("negative distance")
                if i != j and d[i][j] == 0:
                    raise ValidationError(f"distinct points {i},{j} at distance 0")
                if d[i][j] != d[j][i]:
                    raise ValidationError("metric is not symmetric")
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if d[i][k] > d[i][j] + d[j][k]:
                        raise ValidationError(
                            f"triangle inequality fails at ({i},{j},{k})")

    def points(self) -> range:
        return range(self.n)

    def diameter(self) -> Fraction:
        return max((v for row in self.metric for v in row), default=Fraction(0))

    def orbits(self) -> list[tuple[int, ...]]:
        return cycles(range(self.n), self.T.__getitem__)

    def iterate(self, x: int, k: int) -> int:
        f = self.T if k >= 0 else self.T_inv
        for _ in range(abs(k)):
            x = f[x]
        return x

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteDynSys":
        try:
            n = data["points"]
            metric = data["metric"]
            T = data["T"]
            sizes_agree = len(metric) == n and len(T) == n
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed system JSON: {exc}") from exc
        if not sizes_agree:
            raise ValidationError("points count disagrees with metric/T size")
        return cls(metric, T)

    def to_json_dict(self) -> dict:
        return {"points": self.n,
                "metric": [[str(v) for v in row] for row in self.metric],
                "T": list(self.T)}


@dataclass(frozen=True)
class MarkerWitness:
    N: int
    U: frozenset[int]
    return_times_ok: bool
    covering_ok: bool


def check_marker(sys: FiniteDynSys, N: int, U) -> MarkerWitness:
    """Exact check of the two marker conditions: no return to U within N
    steps, and every orbit meets U."""
    U = frozenset(U)
    if any(not 0 <= x < sys.n for x in U):
        raise ValidationError("U contains points outside the system")
    return_ok = True
    for k in range(1, N + 1):
        preimage = {sys.iterate(x, -k) for x in U}
        if U & preimage:
            return_ok = False
            break
    covering = all(any(v in U for v in orbit) for orbit in sys.orbits())
    return MarkerWitness(N, U, return_ok, covering)


def sq_dist(u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(u, v))


@dataclass(frozen=True)
class EmbeddingResult:
    """Distance-profile map x -> (d(x, c_1), ..., d(x, c_N)).

    delta_sq is the exact squared modulus: any two points whose images are
    closer than sqrt(delta_sq) in Euclidean norm are closer than eps in the
    original metric.
    """

    eps: Fraction
    centers: tuple[int, ...]
    images: tuple[tuple[Fraction, ...], ...]
    delta_sq: Fraction

    @property
    def N(self) -> int:
        return len(self.centers)


def epsilon_embedding(sys: FiniteDynSys, eps) -> EmbeddingResult:
    """Map the system into [0,1]^N by distances to greedily chosen centers.

    One center suffices when eps exceeds the diameter (every fiber of a
    single distance profile has diameter at most diam < eps); otherwise
    centers are added farthest-point-first until open eps/2-balls cover.
    """
    eps = _frac(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if sys.n == 0:
        raise ValidationError("empty system")
    diam = sys.diameter()
    if diam > 1:
        raise ValidationError("diameter exceeds 1; rescale the metric first")
    centers = [0]
    if eps <= diam:
        half = eps / 2
        while True:
            best, best_d = None, None
            for x in sys.points():
                dx = min(sys.metric[x][c] for c in centers)
                if dx >= half and (best_d is None or dx > best_d):
                    best, best_d = x, dx
            if best is None:
                break
            centers.append(best)
    images = tuple(tuple(sys.metric[x][c] for c in centers) for x in sys.points())
    delta_sq = None
    for x in sys.points():
        for y in range(x + 1, sys.n):
            if sys.metric[x][y] >= eps:
                s = sq_dist(images[x], images[y])
                if delta_sq is None or s < delta_sq:
                    delta_sq = s
    if delta_sq is None:
        delta_sq = Fraction(1)
    if delta_sq <= 0:
        raise ValidationError("embedding failed: far points share an image")
    return EmbeddingResult(eps, tuple(centers), images, delta_sq)


@dataclass(frozen=True)
class UniversalityResult:
    """Trajectory map into the space of sequences whose consecutive
    coordinates differ by at least delta (carried as delta_sq, exact).

    Orbits of a bijection on a finite set are purely periodic, so each
    trajectory is stored as one periodic word of distance profiles.
    """

    embedding: EmbeddingResult
    delta_sq: Fraction
    trajectories: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def N(self) -> int:
        return self.embedding.N


def universality_map(sys: FiniteDynSys) -> UniversalityResult:
    """Embed, then send each point to the periodic word of images along its
    orbit; consecutive images stay >= delta apart, and the word of T(x) is
    the left rotation of the word of x."""
    eps = None
    for x in sys.points():
        step = sys.metric[x][sys.T[x]]
        if step == 0:
            raise ValidationError(f"fixed point {x}: no separation is possible")
        if eps is None or step < eps:
            eps = step
    emb = epsilon_embedding(sys, eps)
    delta_sq = None
    for x in sys.points():
        s = sq_dist(emb.images[x], emb.images[sys.T[x]])
        if delta_sq is None or s < delta_sq:
            delta_sq = s
    if delta_sq is None or delta_sq <= 0:
        raise ValidationError("consecutive trajectory images collide")
    trajectories = []
    for x in sys.points():
        word = []
        cur = x
        while True:
            word.append(emb.images[cur])
            cur = sys.T[cur]
            if cur == x:
                break
        trajectories.append(tuple(word))
    result = UniversalityResult(emb, delta_sq, tuple(trajectories))
    for x in sys.points():
        word = result.trajectories[x]
        k = len(word)
        for i in range(k):
            if sq_dist(word[i], word[(i + 1) % k]) < delta_sq:
                raise ValidationError("trajectory leaves the gap-constrained space")
        rotated = word[1:] + word[:1]
        if result.trajectories[sys.T[x]] != rotated:
            raise ValidationError("trajectory map is not equivariant")
    return result


@dataclass(frozen=True)
class StoppingTimeResult:
    """The expected-steps function of the backward walk, its defect set E,
    and the hypothesis checks that make E a small-return set."""

    M: int
    phi: tuple[Fraction, ...]
    E: frozenset[int]
    stop_mass: tuple[Fraction, ...]
    hypotheses: dict


def lindenstrauss_phi(sys: FiniteDynSys, w, M: int,
                      U=None, N: int | None = None) -> StoppingTimeResult:
    """phi(x) = sum_{n=1..M} n * prod_{k<n}(1 - w(T^{-k}x)) * w(T^{-n}x),
    the expected number of backward steps before the walk stops, with
    stopping probability w at each visited point.

    E is the exact defect set {x : phi(Tx) != phi(x) + 1}.  When U (and N)
    are supplied, the classical hypotheses and conclusions are each checked
    exactly and reported: w = 1 on K := {w = 1} with the T^n K covering X for
    0 <= n <= M, supp w inside U, no quick return of U, containment
    E within T^{-1} U, and no quick return of E.
    """
    if M < 1:
        raise ValidationError("M must be >= 1")
    wv = [_frac(w(x)) if callable(w) else _frac(w[x]) for x in sys.points()]
    for x, v in enumerate(wv):
        if not 0 <= v <= 1:
            raise ValidationError(f"w({x}) = {v} outside [0,1]")
    phi = []
    mass = []
    for x in sys.points():
        total = Fraction(0)
        surviving = Fraction(1)
        stopped = wv[x]
        cur = x
        for n in range(1, M + 1):
            surviving *= 1 - wv[cur]
            cur = sys.T_inv[cur]
            term = surviving * wv[cur]
            total += n * term
            stopped += term
        phi.append(total)
        mass.append(stopped)
    E = frozenset(x for x in sys.points() if phi[sys.T[x]] != phi[x] + 1)

    hypotheses: dict = {}
    K = frozenset(x for x in sys.points() if wv[x] == 1)
    covered = set()
    for n in range(M + 1):
        covered.update(sys.iterate(x, n) for x in K)
    hypotheses["K"] = K
    hypotheses["covering_ok"] = len(covered) == sys.n
    hypotheses["mass_ok"] = all(m == 1 for m in mass)
    if U is not None:
        U = frozenset(U)
        supp = frozenset(x for x in sys.points() if wv[x] > 0)
        hypotheses["supp_w_in_U"] = supp <= U
        hypotheses["E_in_TinvU"] = E <= frozenset(sys.T_inv[u] for u in U)
        if N is not None:
            hypotheses["U_no_return"] = check_marker(sys, N, U).return_times_ok
            e_ok = True
            for k in range(1, N + 1):
                if E & {sys.iterate(x, -k) for x in E}:
                    e_ok = False
                    break
            hypotheses["E_no_return"] = e_ok
    return StoppingTimeResult(M, tuple(phi), E, tuple(mass), hypotheses)


# ---------------------------------------------------------------------------
# Cross-space report: best certified coindex information per prime.

@dataclass(frozen=True)
class ObstructionRow:
    p: int
    x_coind_lower: int | None
    x_exhausted_at: int | None
    z_coind_upper: int | None
    z_exhausted_at: int | None
    gap_certified: bool
    verdict: str


def obstruction_report(p_list, x_certs, z_certs) -> list[ObstructionRow]:
    """Per prime: the best certified coindex lower bound on the offset-gap
    side, the best certified upper bound on the consecutive-pair side
    (through coind <= ind), and whether the strict gap lower > upper is
    certified at this discretization.

    x_certs and z_certs map primes to certificate lists.  Exhausted searches
    are reported but never used as bounds.
    """
    rows = []
    for p in p_list:
        xs = list(x_certs.get(p, ()))
        zs = list(z_certs.get(p, ()))
        if not xs or not zs:
            raise ValidationError(f"missing certificates for p={p}")
        x_low = _best(xs, "coind_lower", max)
        z_up = _best(zs, "ind_upper", min)
        x_ex = _max_attempted(xs, "coind_lower")
        z_ex = _max_attempted(zs, "coind_lower")
        gap = x_low is not None and z_up is not None and x_low >= z_up + 1
        verdict = ("gap certified: coind lower bound exceeds the other side"
                   if gap else "gap not certified at this resolution")
        rows.append(ObstructionRow(p, x_low, x_ex, z_up, z_ex, gap, verdict))
    return rows


def _best(certs, bound_type, pick):
    vals = [c.value for c in certs if c.established and c.bound_type == bound_type]
    return pick(vals) if vals else None


def _max_attempted(certs, bound_type):
    vals = [c.value for c in certs if c.kind == "exhaustion" and c.bound_type == bound_type]
    return max(vals) if vals else None
