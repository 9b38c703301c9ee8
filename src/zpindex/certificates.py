"""Certified upper/lower bounds for the Z_p-index and coindex.

Every bound is carried by an IndexCertificate whose evidence can be
re-validated: an explicit equivariant simplicial map, a homology profile, an
exhausted search trace, the ambient-sphere formula, or a combination rule
applied to child certificates.  Witness maps are checked by the standalone
verifier on construction, never trusted from the search alone.

Searches subdivide the source only (the simplicial-approximation direction),
and an exhausted search at finite depth is recorded as one-sided evidence:
it never certifies the nonexistence of a continuous equivariant map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import BudgetExceeded, ConsistencyError, ValidationError
from .search import DEFAULT_BUDGET, find_equivariant_vertex_map
from .simplicial import (
    EMPTY_CONNECTIVITY,
    INFINITE_CONNECTIVITY,
    FreeZpComplex,
    HomologyProfile,
    ZpAction,
    barycentric_subdivide,
    complex_from_json_dict,
    complex_to_json_dict,
    content_key,
    e_n_zp,
    homology,
    join,
)
from .verify import check_vertex_map

KINDS = ("map_witness", "exhaustion", "connectivity_bound", "dimension_bound",
         "ambient_bound", "combined")
BOUND_TYPES = ("ind_upper", "ind_lower", "coind_lower", "coind_upper")

# Kinds whose value may be used as an actual bound.  Exhaustion is excluded:
# it only records that a search at some depth found nothing.
ESTABLISHED_KINDS = frozenset(k for k in KINDS if k != "exhaustion")


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


Evidence = Union[EquivariantMap, HomologyProfile, dict, None]


@dataclass(frozen=True)
class IndexCertificate:
    kind: str
    bound_type: str
    value: int
    evidence: Evidence
    subdivision_depth: int = 0
    space: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown certificate kind {self.kind!r}")
        if self.bound_type not in BOUND_TYPES:
            raise ValidationError(f"unknown bound type {self.bound_type!r}")

    @property
    def established(self) -> bool:
        return self.kind in ESTABLISHED_KINDS

    def describe(self) -> str:
        rel = {"ind_upper": "ind <=", "ind_lower": "ind >=",
               "coind_lower": "coind >=", "coind_upper": "coind <="}[self.bound_type]
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


def index_lower_from_connectivity(
    x: FreeZpComplex,
    coefficients: int | None = None,
    assert_simply_connected: bool = False,
    space: str | None = None,
) -> IndexCertificate:
    """ind >= homological connectivity + 1.

    The caveat flag records whether the homological connectivity provably
    agrees with homotopy connectivity (Hurewicz needs simple connectivity,
    which we only certify for joins of connected factors or by caller
    assertion).
    """
    p_coeff = coefficients if coefficients is not None else x.p
    prof = homology(x.complex, p_coeff, reduced=True)
    conn = prof.homological_connectivity
    if conn == EMPTY_CONNECTIVITY:
        value = -1
    elif conn == INFINITE_CONNECTIVITY:
        # A free simplicial Z_p-complex has Euler characteristic divisible
        # by p, so it cannot be F_p-acyclic.
        raise ValidationError("free complex reported acyclic; invariant violated")
    else:
        value = int(conn) + 1
    return IndexCertificate(
        "connectivity_bound", "ind_lower", value,
        {"homology": prof,
         "coefficients": p_coeff,
         "simply_connected_verified": bool(x.simply_connected_verified or assert_simply_connected),
         "caveat": "homological connectivity; equals homotopy connectivity "
                   "only when the space is simply connected (Hurewicz)"},
        0, space or content_key(x))


def index_upper_from_dimension(x: FreeZpComplex, space: str | None = None) -> IndexCertificate:
    """ind <= dim: an n-dimensional free complex maps equivariantly into the
    n-dimensional (n-1)-connected standard model by skeleton induction."""
    return IndexCertificate(
        "dimension_bound", "ind_upper", x.dim,
        {"dim": x.dim}, 0, space or content_key(x))


def ambient_sphere_bound(N: int, p: int, space: str = "generic", m: int = 1) -> IndexCertificate:
    """ind <= N*p - N - 1 for any space of p-tuples in [0,1]^N avoiding the
    diagonal: the complement of the diagonal retracts equivariantly onto a
    (Np-N-1)-sphere carrying a standard free action."""
    if N < 1:
        raise ValidationError(f"N={N} must be >= 1")
    if m % p == 0:
        raise ValidationError("offset divisible by p never avoids the diagonal")
    return IndexCertificate(
        "ambient_bound", "ind_upper", N * p - N - 1,
        {"N": N, "p": p, "offset": m, "formula": "N*p - N - 1"},
        0, space)


def coindex_le_index_check(certs) -> bool:
    """True iff every established coind lower bound is <= every established
    ind upper bound.  All certificates must concern one space."""
    certs = list(certs)
    if not certs:
        return True
    spaces = {c.space for c in certs}
    if len(spaces) > 1:
        raise ValidationError(f"certificates reference different spaces: {sorted(spaces)}")
    lows = [c.value for c in certs if c.established and c.bound_type == "coind_lower"]
    ups = [c.value for c in certs if c.established and c.bound_type == "ind_upper"]
    return all(lo <= up for lo in lows for up in ups)


def assert_coindex_le_index(certs):
    if not coindex_le_index_check(certs):
        certs = list(certs)
        raise ConsistencyError(
            "coindex lower bound exceeds index upper bound on "
            f"{certs[0].space}: " + "; ".join(c.describe() for c in certs))


def inclusion_of_standard_models(m: int, n: int, p: int) -> EquivariantMap:
    """The first m+1 join factors of the n-model: the canonical inclusion."""
    if m > n:
        raise ValidationError(f"no inclusion of model {m} into smaller model {n}")
    em, en = e_n_zp(m, p), e_n_zp(n, p)
    return EquivariantMap(em, en, tuple(range((m + 1) * p)))


def product_coindex_certificate(cx: IndexCertificate, cy: IndexCertificate) -> IndexCertificate:
    """coind(X x Y) >= min(m, n) from witnesses of coind X >= m, coind Y >= n.

    The product complex is never built: the evidence bundles the two factor
    maps plus the inclusion of the smaller standard model into the larger,
    which is exactly the data the product map u -> (f(u), g(h(u))) needs.
    The matching upper bound (projections give <= min) is recorded as a note.
    """
    for c in (cx, cy):
        if c.kind != "map_witness" or c.bound_type != "coind_lower":
            raise ValidationError("product rule needs coind_lower map witnesses")
    fmap: EquivariantMap = cx.evidence
    gmap: EquivariantMap = cy.evidence
    if fmap.source.p != gmap.source.p:
        raise ValidationError("product rule needs matching primes")
    m, n = cx.value, cy.value
    lo, hi = min(m, n), max(m, n)
    incl = inclusion_of_standard_models(lo, hi, fmap.source.p)
    return IndexCertificate(
        "combined", "coind_lower", lo,
        {"rule": "product: coind(X x Y) = min(coind X, coind Y)",
         "left": cx, "right": cy, "inclusion": incl,
         "upper_note": "projections onto each factor give coind <= min symbolically"},
        max(cx.subdivision_depth, cy.subdivision_depth),
        f"product({cx.space},{cy.space})")


def empty_space_certificate(p: int) -> IndexCertificate:
    """The empty space has coindex -1 by convention."""
    return IndexCertificate(
        "combined", "coind_lower", -1,
        {"rule": "empty-space convention: coind = -1", "children": []},
        0, "empty")


def join_coindex_certificate(
    cx: IndexCertificate,
    cy: IndexCertificate,
    budget: int = DEFAULT_BUDGET,
) -> IndexCertificate:
    """coind(X * Y) >= m + n + 1 via the join of the two witness maps.

    For depth-0 witnesses the join of the standard m- and n-models is
    literally the standard (m+n+1)-model, so the result is again a plain
    map witness.  An empty side follows the join convention X * empty = X.
    """
    if cy.space == "empty" and cy.value == -1:
        return IndexCertificate(cx.kind, cx.bound_type, cx.value, cx.evidence,
                                cx.subdivision_depth, cx.space)
    if cx.space == "empty" and cx.value == -1:
        return IndexCertificate(cy.kind, cy.bound_type, cy.value, cy.evidence,
                                cy.subdivision_depth, cy.space)
    for c in (cx, cy):
        if c.kind != "map_witness" or c.bound_type != "coind_lower":
            raise ValidationError("join rule needs coind_lower map witnesses")
    fmap: EquivariantMap = cx.evidence
    gmap: EquivariantMap = cy.evidence
    if fmap.source.p != gmap.source.p:
        raise ValidationError("join rule needs matching primes")
    x, y = fmap.target, gmap.target
    est = (len(list(x.complex.simplices())) + 1) * (len(list(y.complex.simplices())) + 1)
    if est > budget:
        raise BudgetExceeded(
            f"join would hold about {est} simplices, over budget {budget}", count=est)
    joined = join(x, y)
    src = join(fmap.source, gmap.source)
    a = fmap.source.complex.vertex_count
    nx = x.complex.vertex_count
    vm = tuple(fmap.vertex_map) + tuple(nx + t for t in gmap.vertex_map)
    assert len(vm) == src.complex.vertex_count == a + gmap.source.complex.vertex_count
    witness = EquivariantMap(src, joined, vm)
    return IndexCertificate(
        "map_witness", "coind_lower", cx.value + cy.value + 1, witness,
        max(cx.subdivision_depth, cy.subdivision_depth), content_key(joined))


def iterate_action_coindex(cert: IndexCertificate, a: int) -> IndexCertificate:
    """Transport a coind witness for (X, T) to one for (X, T^a).

    The identical vertex map intertwines the a-th powers on both sides; the
    round trip through b with a*b = 1 mod p is revalidated so the best known
    bounds agree in both directions.
    """
    if cert.kind != "map_witness" or cert.bound_type != "coind_lower":
        raise ValidationError("action-power transport needs a coind_lower map witness")
    wit: EquivariantMap = cert.evidence
    p = wit.source.p
    if not 1 <= a <= p - 1:
        raise ValidationError(f"power a={a} outside 1..p-1")
    src_a = FreeZpComplex(wit.source.complex, ZpAction(p, wit.source.action.power(a)))
    tgt_a = FreeZpComplex(wit.target.complex, ZpAction(p, wit.target.action.power(a)))
    transported = EquivariantMap(src_a, tgt_a, wit.vertex_map)
    b = pow(a, -1, p)
    src_back = FreeZpComplex(src_a.complex, ZpAction(p, src_a.action.power(b)))
    tgt_back = FreeZpComplex(tgt_a.complex, ZpAction(p, tgt_a.action.power(b)))
    EquivariantMap(src_back, tgt_back, wit.vertex_map)  # round trip revalidates
    return IndexCertificate(
        "map_witness", "coind_lower", cert.value, transported,
        cert.subdivision_depth, content_key(tgt_a))


def restrict_coindex_witness(cert: IndexCertificate, m: int) -> IndexCertificate:
    """Monotonicity, constructively: a depth-0 witness from the n-model
    restricts along the first m+1 join factors to a witness from the m-model."""
    if cert.kind != "map_witness" or cert.bound_type != "coind_lower":
        raise ValidationError("restriction needs a coind_lower map witness")
    if cert.subdivision_depth != 0:
        raise ValidationError("restriction implemented for depth-0 witnesses only")
    wit: EquivariantMap = cert.evidence
    p = wit.source.p
    n = cert.value
    if not 0 <= m <= n:
        raise ValidationError(f"m={m} outside 0..{n}")
    if wit.source != e_n_zp(n, p):
        raise ValidationError("witness source is not the standard n-model")
    em = e_n_zp(m, p)
    restricted = EquivariantMap(em, wit.target, wit.vertex_map[: (m + 1) * p])
    return IndexCertificate("map_witness", "coind_lower", m, restricted, 0, cert.space)


class CertStore:
    """Accumulates certificates, grouped by space label."""

    def __init__(self):
        self._by_space: dict[str, list[IndexCertificate]] = {}

    def add(self, cert: IndexCertificate) -> IndexCertificate:
        self._by_space.setdefault(cert.space, []).append(cert)
        return cert

    def spaces(self) -> list[str]:
        return sorted(self._by_space)

    def all(self) -> list[IndexCertificate]:
        return [c for space in self.spaces() for c in self._by_space[space]]

    def best_coind_lower(self, space: str):
        vals = [c.value for c in self._by_space.get(space, [])
                if c.established and c.bound_type == "coind_lower"]
        return max(vals) if vals else None

    def best_ind_upper(self, space: str):
        vals = [c.value for c in self._by_space.get(space, [])
                if c.established and c.bound_type == "ind_upper"]
        return min(vals) if vals else None

    def check_consistency(self) -> bool:
        return all(coindex_le_index_check(certs) for certs in self._by_space.values())

    def assert_consistent(self):
        for certs in self._by_space.values():
            assert_coindex_le_index(certs)


# ---------------------------------------------------------------------------
# Serialization.  Keys: {"kind", "bound_type", "value", "depth", "evidence"}.

def _encode_evidence(ev):
    if ev is None:
        return None
    if isinstance(ev, EquivariantMap):
        return {"type": "map",
                "vertex_map": list(ev.vertex_map),
                "source": complex_to_json_dict(ev.source),
                "target": complex_to_json_dict(ev.target)}
    if isinstance(ev, HomologyProfile):
        conn = ev.homological_connectivity
        return {"type": "homology", "p": ev.p, "betti": list(ev.betti),
                "reduced": ev.reduced,
                "connectivity": "inf" if conn == INFINITE_CONNECTIVITY else conn}
    if isinstance(ev, IndexCertificate):
        return {"type": "certificate", **certificate_to_json_dict(ev)}
    if isinstance(ev, dict):
        return {"type": "note", "fields": {k: _encode_evidence(v) if isinstance(
            v, (EquivariantMap, HomologyProfile, IndexCertificate, dict)) else v
            for k, v in sorted(ev.items())}}
    return ev


def _decode_evidence(data):
    if data is None or not isinstance(data, dict):
        return data
    t = data.get("type")
    if t == "map":
        return EquivariantMap(
            complex_from_json_dict(data["source"]),
            complex_from_json_dict(data["target"]),
            tuple(data["vertex_map"]))
    if t == "homology":
        conn = data["connectivity"]
        conn = INFINITE_CONNECTIVITY if conn == "inf" else conn
        return HomologyProfile(data["p"], tuple(data["betti"]), data["reduced"], conn)
    if t == "certificate":
        return certificate_from_json_dict(data)
    if t == "note":
        return {k: _decode_evidence(v) for k, v in data["fields"].items()}
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
    """Rebuild a certificate; embedded maps re-validate on construction."""
    try:
        return IndexCertificate(
            data["kind"], data["bound_type"], data["value"],
            _decode_evidence(data["evidence"]),
            data["depth"], data.get("space", ""))
    except KeyError as exc:
        raise ValidationError(f"malformed certificate JSON: missing {exc}") from exc
