"""Certified upper/lower bounds for the Z_p-index and coindex.

Every bound is carried by an IndexCertificate whose value is derived from its
evidence: an explicit equivariant simplicial map, an exhausted search trace,
or the parameters of the ambient-sphere formula.  Each (kind, bound type)
pair has one derivation, listed in DERIVE, and the constructor refuses a
certificate whose value the derivation does not reproduce.  Loading goes
through the constructor, so a certificate read from disk is derived again
before it is trusted.  Witness maps are checked by the
standalone verifier on construction, never trusted from the search alone.

Searches subdivide the source only (the simplicial-approximation direction),
and an exhausted search at finite depth is recorded as one-sided evidence:
it never certifies the nonexistence of a continuous equivariant map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .cubical import CubicalZpComplex, OffsetGapConstraint, cubical_to_simplicial
from .errors import ConsistencyError, ValidationError
from .fplinalg import is_prime
from .search import DEFAULT_BUDGET, find_equivariant_vertex_map
from .simplicial import (
    FreeZpComplex,
    barycentric_subdivide,
    complex_from_json_dict,
    complex_to_json_dict,
    content_key,
    e_n_zp,
)
from .simplicial import homology  # noqa: F401  perfbench/probes.py times homology here
from .verify import check_vertex_map


@dataclass(frozen=True)
class EquivariantMap:
    """Simplicial vertex map intertwining two free Z_p-actions.

    Validated on construction by the independent checker.
    """

    source: FreeZpComplex
    target: FreeZpComplex
    vertex_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", tuple(self.vertex_map))
        problems = check_vertex_map(self.source, self.target, self.vertex_map)
        if problems:
            raise ValidationError("invalid equivariant map: " + "; ".join(problems))


Evidence = Union[EquivariantMap, dict]


def _model_source(ev: EquivariantMap, depth: int) -> int:
    """coind >= n: the map's source is the standard n-model subdivided depth times."""
    n = ev.source.dim
    if ev.source != subdivide_times(e_n_zp(n, ev.source.p), depth):
        raise ValidationError(f"map source is not the {n}-model subdivided {depth} times")
    return n


def _model_target(ev: EquivariantMap, depth: int) -> int:
    """ind <= n: the map's target is the standard n-model."""
    n = ev.target.dim
    if ev.target != e_n_zp(n, ev.target.p):
        raise ValidationError(f"map target is not the {n}-model")
    return n


def _ambient(ev: dict, depth: int) -> int:
    """ind <= N*p - N - 1: coordinates at an offset prime to p never all
    agree, so the p-tuples avoid the diagonal of ([0,1]^N)^p, whose
    complement retracts equivariantly onto a (Np-N-1)-sphere carrying a
    standard free action."""
    N, p, offset = ev["N"], ev["p"], ev["offset"]
    if N < 1 or not is_prime(p):
        raise ValidationError(f"ambient bound needs N >= 1 and a prime p, got N={N}, p={p}")
    if offset % p == 0:
        raise ValidationError("offset divisible by p never avoids the diagonal")
    return N * p - N - 1


# (kind, bound type) -> derive(evidence, depth) -> value.  Exhaustion records
# the target of a search that found nothing; it is never established.
DERIVE = {
    ("map_witness", "coind_lower"): _model_source,
    ("map_witness", "ind_upper"): _model_target,
    ("exhaustion", "coind_lower"): lambda ev, depth: ev["attempted"],
    ("exhaustion", "ind_upper"): lambda ev, depth: ev["attempted"],
    ("ambient_bound", "ind_upper"): _ambient,
}


@dataclass(frozen=True)
class IndexCertificate:
    kind: str
    bound_type: str
    value: int
    evidence: Evidence
    subdivision_depth: int = 0
    space: str = ""

    def __post_init__(self):
        derive = DERIVE.get((self.kind, self.bound_type))
        if derive is None:
            raise ValidationError(f"no {self.kind!r} certificate of type {self.bound_type!r}")
        try:
            derived = derive(self.evidence, self.subdivision_depth)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValidationError(f"malformed {self.kind} evidence: {exc!r}") from exc
        if derived != self.value:
            raise ValidationError(
                f"{self.kind} evidence derives {derived}, not the claimed {self.value!r}")

    @property
    def established(self) -> bool:
        return self.kind != "exhaustion"

    def describe(self) -> str:
        rel = {"ind_upper": "ind <=", "coind_lower": "coind >="}[self.bound_type]
        status = "" if self.established else " [inconclusive: exhausted search, not a disproof]"
        return f"[{self.kind}] {rel} {self.value} on {self.space} (depth {self.subdivision_depth}){status}"


def subdivide_times(x: FreeZpComplex, depth: int) -> FreeZpComplex:
    if depth < 0:
        raise ValidationError(f"subdivision depth {depth} must be nonnegative")
    for _ in range(depth):
        x = barycentric_subdivide(x)
    return x


def _search(source: FreeZpComplex, target: FreeZpComplex, subdivision_depth: int,
            budget: int) -> tuple[Optional[EquivariantMap], int]:
    """Subdivide the source and search it into the target: the witness map
    (None only after full exhaustion) and the number of nodes visited."""
    src = subdivide_times(source, subdivision_depth)
    vm, nodes = find_equivariant_vertex_map(src, target, budget)
    return (None if vm is None else EquivariantMap(src, target, vm)), nodes


def search_equivariant_map(
    source: FreeZpComplex,
    target: FreeZpComplex,
    subdivision_depth: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> Optional[EquivariantMap]:
    """Search source (subdivided) -> target; None only after full exhaustion."""
    return _search(source, target, subdivision_depth, budget)[0]


def _model_bound(bound_type: str, x: FreeZpComplex, n: int, subdivision_depth: int,
                 budget: int, space: str | None) -> IndexCertificate:
    """Search for the map between x and the standard n-model that witnesses
    the bound: the model into x for coind_lower, x into the model for
    ind_upper.  The map's source is subdivided."""
    if n < 0:
        raise ValidationError(f"target n={n} must be nonnegative")
    space = space or content_key(x)
    model = e_n_zp(n, x.p)
    source, target = (model, x) if bound_type == "coind_lower" else (x, model)
    found, nodes = _search(source, target, subdivision_depth, budget)
    if found is None:
        return IndexCertificate(
            "exhaustion", bound_type, n,
            {"nodes": nodes, "attempted": n,
             "note": "no equivariant simplicial map at this depth; not a disproof"},
            subdivision_depth, space)
    return IndexCertificate("map_witness", bound_type, n, found, subdivision_depth, space)


def coindex_lower(
    x: FreeZpComplex,
    n: int,
    subdivision_depth: int = 0,
    budget: int = DEFAULT_BUDGET,
    space: str | None = None,
) -> IndexCertificate:
    """Try to witness coind >= n by mapping the standard n-model into x."""
    return _model_bound("coind_lower", x, n, subdivision_depth, budget, space)


def index_upper(
    x: FreeZpComplex,
    n: int,
    subdivision_depth: int = 0,
    budget: int = DEFAULT_BUDGET,
    space: str | None = None,
) -> IndexCertificate:
    """Try to witness ind <= n by mapping x (subdivided) into the n-model."""
    return _model_bound("ind_upper", x, n, subdivision_depth, budget, space)


def ambient_sphere_bound(cx: CubicalZpComplex, space: str | None = None) -> IndexCertificate:
    """ind <= N*p - N - 1 on an offset-gap complex of p-tuples in [0,1]^N.

    The space label defaults to the content key of the triangulation.
    Circle-valued grids are refused: their tuples may lie on the diagonal."""
    if cx.grid.circle_valued:
        raise ValidationError("the ambient bound needs tuples in a cube, not on a circle")
    if not isinstance(cx.constraint, OffsetGapConstraint):
        raise ValidationError("the ambient bound needs an offset-gap constraint")
    evidence = {"N": cx.grid.N, "p": cx.p, "offset": cx.constraint.offset}
    return IndexCertificate("ambient_bound", "ind_upper", _ambient(evidence, 0), evidence, 0,
                            space or content_key(cubical_to_simplicial(cx)))


def assert_coindex_le_index(certs):
    """Raise ConsistencyError unless every established coind lower bound is
    <= every established ind upper bound.  All certificates must concern one
    space."""
    certs = list(certs)
    spaces = {c.space for c in certs}
    if len(spaces) > 1:
        raise ValidationError(f"certificates reference different spaces: {sorted(spaces)}")
    lows = [c.value for c in certs if c.established and c.bound_type == "coind_lower"]
    ups = [c.value for c in certs if c.established and c.bound_type == "ind_upper"]
    if any(lo > up for lo in lows for up in ups):
        raise ConsistencyError(
            "coindex lower bound exceeds index upper bound on "
            f"{certs[0].space}: " + "; ".join(c.describe() for c in certs))


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


# ---------------------------------------------------------------------------
# Serialization.  Keys: {"kind", "bound_type", "value", "depth", "evidence"}.

def _encode_evidence(ev):
    if isinstance(ev, EquivariantMap):
        return {"type": "map",
                "vertex_map": list(ev.vertex_map),
                "source": complex_to_json_dict(ev.source),
                "target": complex_to_json_dict(ev.target)}
    if isinstance(ev, dict):
        return {"type": "note", "fields": dict(sorted(ev.items()))}
    return ev


def _decode_evidence(data):
    if not isinstance(data, dict):
        return data
    t = data.get("type")
    if t == "map":
        return EquivariantMap(
            complex_from_json_dict(data["source"]),
            complex_from_json_dict(data["target"]),
            tuple(data["vertex_map"]))
    if t == "note":
        fields = data["fields"]
        if not isinstance(fields, dict):
            raise ValidationError(f"note fields must be a JSON object, got {fields!r}")
        return dict(fields)
    return data


def certificate_to_json_dict(cert: IndexCertificate) -> dict:
    return {
        "kind": cert.kind,
        "bound_type": cert.bound_type,
        "value": cert.value,
        "depth": cert.subdivision_depth,
        "evidence": _encode_evidence(cert.evidence),
        "space": cert.space,
    }


def certificate_from_json_dict(data: dict) -> IndexCertificate:
    """Rebuild a certificate; construction checks embedded maps and derives
    the value again from the evidence."""
    try:
        return IndexCertificate(
            data["kind"], data["bound_type"], data["value"],
            _decode_evidence(data["evidence"]),
            data["depth"], data.get("space", ""))
    except KeyError as exc:
        raise ValidationError(f"malformed certificate JSON: missing {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed certificate JSON: {exc}") from exc
