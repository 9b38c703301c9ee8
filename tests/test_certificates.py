import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zpindex.certificates
from oracles import AnyCell
from zpindex.certificates import (
    DERIVE,
    EquivariantMap,
    IndexCertificate,
    ambient_sphere_bound,
    assert_coindex_le_index,
    certificate_from_json_dict,
    certificate_to_json_dict,
    coindex_lower,
    index_upper,
    obstruction_report,
    search_equivariant_map,
    subdivide_times,
)
from zpindex.cubical import (
    CubicalZpComplex,
    GridSpec,
    build_pp_xm,
    build_pp_yz,
    cubical_to_simplicial,
    encode,
)
from zpindex.errors import BudgetExceeded, ConsistencyError, ValidationError
from zpindex.search import find_equivariant_vertex_map
from zpindex.simplicial import (
    FreeZpComplex,
    SimplicialComplex,
    ZpAction,
    barycentric_subdivide,
    content_key,
    e_n_zp,
    homology,
    join,
    join_power,
    make_discrete_zp,
)
from zpindex.subshifts import as_free_zp_complex, make_sigma_m, periodic_points
from zpindex.verify import check_vertex_map


def two_orbit_discrete():
    cx = SimplicialComplex.from_simplices(4, [(0,), (1,), (2,), (3,)])
    return FreeZpComplex(cx, ZpAction(2, (1, 0, 3, 2)))


class TestSearch:
    def test_point_into_circle(self):
        found, _ = search_equivariant_map(e_n_zp(0, 2), e_n_zp(1, 2))
        assert found is not None
        assert check_vertex_map(found.source, found.target, found.vertex_map) == []

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_circle_into_points_impossible(self, depth):
        assert search_equivariant_map(e_n_zp(1, 2), e_n_zp(0, 2), depth)[0] is None

    def test_identity_exists(self):
        x = join(make_discrete_zp(3), make_discrete_zp(3))
        found, _ = search_equivariant_map(e_n_zp(1, 3), x)
        assert found is not None

    def test_mismatched_primes(self):
        with pytest.raises(ValidationError):
            search_equivariant_map(e_n_zp(0, 2), e_n_zp(0, 3))

    def test_budget_raises_not_none(self):
        with pytest.raises(BudgetExceeded):
            search_equivariant_map(e_n_zp(2, 3), e_n_zp(2, 3), budget=5)

    def test_exhaustive_over_orbit_assignments(self):
        # brute-force oracle: all 2^2 orbit-representative assignments of the
        # two-orbit discrete space into the one-orbit model are valid maps
        x = two_orbit_discrete()
        tgt = make_discrete_zp(2)
        valid = []
        for t0, t1 in itertools.product(range(2), repeat=2):
            vm = (t0, 1 - t0, t1, 1 - t1)
            if check_vertex_map(x, tgt, vm) == []:
                valid.append(vm)
        assert len(valid) == 4
        found, _ = search_equivariant_map(x, tgt)
        assert found is not None and found.vertex_map in valid

    @pytest.mark.parametrize("source,target,depth", [
        (e_n_zp(1, 2), e_n_zp(0, 2), 2), (e_n_zp(2, 2), e_n_zp(1, 2), 1),
        (e_n_zp(1, 3), e_n_zp(1, 3), 1), (e_n_zp(0, 2), e_n_zp(1, 2), 0),
    ], ids=["exhausted-depth-2", "exhausted-depth-1", "found-depth-1", "found-depth-0"])
    def test_nodes_are_those_of_the_subdivided_search(self, source, target, depth):
        found, nodes = search_equivariant_map(source, target, depth)
        sd = source
        for _ in range(depth):
            sd = barycentric_subdivide(sd)
        vertex_map, expected = find_equivariant_vertex_map(sd, target)
        assert nodes == expected
        assert (None if found is None else found.vertex_map) == vertex_map


class TestSubdivideTimes:
    def test_dimension_0_subdivided_at_most_once(self, monkeypatch):
        """The first subdivision of three points on the labels {0, 2, 4} of 6
        renumbers them 0..2; each later one returns its input, so a depth of
        10^9 subdivides once."""
        x = FreeZpComplex(SimplicialComplex.from_simplices(6, [(0,), (2,), (4,)]),
                          ZpAction(3, (2, 3, 4, 5, 0, 1)))
        once = barycentric_subdivide(x)
        assert once.complex.vertex_count == 3 and barycentric_subdivide(once) == once
        calls = []

        def only_once(y):
            assert not calls, "a 0-dimensional complex subdivided twice"
            calls.append(y)
            return barycentric_subdivide(y)
        monkeypatch.setattr(zpindex.certificates, "barycentric_subdivide", only_once)
        assert subdivide_times(x, 0) is x
        assert subdivide_times(x, 10 ** 9) == once and calls == [x]


class TestCoindexLower:
    def test_model_witness(self):
        cert = coindex_lower(e_n_zp(2, 2), 2)
        assert cert.kind == "map_witness" and cert.value == 2
        wit = cert.evidence
        assert check_vertex_map(wit.source, wit.target, wit.vertex_map) == []

    def test_dimension_obstruction_exhausts(self):
        x = make_discrete_zp(3)
        for depth in (0, 1):
            cert = coindex_lower(x, 1, subdivision_depth=depth)
            assert cert.kind == "exhaustion"
            assert not cert.established
        assert coindex_lower(x, 0).kind == "map_witness"

    def test_periodic_orbit_space_has_coindex_zero(self):
        x = as_free_zp_complex(periodic_points(make_sigma_m(1), 3))
        lo = coindex_lower(x, 0)
        up = index_upper(x, 0, space=lo.space)
        assert lo.kind == "map_witness" and lo.value == 0
        assert up.kind == "map_witness" and up.value == 0
        assert_coindex_le_index([lo, up])


class TestIndexUpper:
    def test_identity_witness(self):
        cert = index_upper(e_n_zp(1, 2), 1)
        assert cert.kind == "map_witness" and cert.value == 1

    def test_circle_needs_dimension_one(self):
        cert = index_upper(e_n_zp(1, 2), 0)
        assert cert.kind == "exhaustion"

    def test_two_orbits_map_down(self):
        cert = index_upper(two_orbit_discrete(), 0)
        assert cert.kind == "map_witness" and cert.value == 0


class TestConsistency:
    def test_consistent_pair(self):
        x = e_n_zp(2, 2)
        lo = coindex_lower(x, 2)
        up = index_upper(x, 2, space=lo.space)
        assert up.kind == "map_witness"
        assert_coindex_le_index([lo, up])

    def test_contradiction_detected(self):
        lo = coindex_lower(e_n_zp(1, 2), 1)
        assert lo.kind == "map_witness"
        # Derivable from its own evidence, the parameters of X_m(N=1, p=2),
        # but filed under the circle's label: the derivation does not check
        # that the labelled space is an offset-gap space with these parameters.
        bad_up = IndexCertificate("ambient_bound", "ind_upper", 0,
                                  {"N": 1, "p": 2, "offset": 1}, 0, lo.space)
        with pytest.raises(ConsistencyError):
            assert_coindex_le_index([lo, bad_up])

    def test_empty_is_vacuous(self):
        assert_coindex_le_index([])

    def test_exhaustion_never_counts_as_bound(self):
        x = make_discrete_zp(3)
        lo = coindex_lower(x, 0)
        fake_tight = coindex_lower(x, 5)  # exhausts
        assert fake_tight.kind == "exhaustion"
        up = index_upper(x, 0, space=lo.space)
        assert up.kind == "map_witness"
        certs = [lo, IndexCertificate(fake_tight.kind, fake_tight.bound_type,
                                      fake_tight.value, fake_tight.evidence,
                                      0, lo.space), up]
        assert_coindex_le_index(certs)

    def test_mixed_spaces_rejected(self):
        a = coindex_lower(make_discrete_zp(2), 0)
        b = coindex_lower(make_discrete_zp(3), 0)
        with pytest.raises(ValidationError):
            assert_coindex_le_index([a, b])


class TestJoinRule:
    """coind(X * Y) >= coind X + coind Y + 1, checked by direct search."""

    def test_two_points_make_circle(self):
        joined = join(make_discrete_zp(2), make_discrete_zp(2))
        assert joined == e_n_zp(1, 2)
        lo = coindex_lower(joined, 1)
        assert lo.value == 1 and lo.kind == "map_witness"
        up = index_upper(joined, 1, space=lo.space)
        assert up.kind == "map_witness"
        assert_coindex_le_index([lo, up])

    def test_empty_side_convention(self):
        empty = FreeZpComplex(SimplicialComplex(0, ()), ZpAction(2, ()))
        x = e_n_zp(1, 2)
        assert join(x, empty) == x and join(empty, x) == x
        assert coindex_lower(join(x, empty), 1).kind == "map_witness"

    def test_sigma_orbits_join(self):
        pts = periodic_points(make_sigma_m(1), 3)
        c = coindex_lower(as_free_zp_complex(pts), 0)
        assert c.kind == "map_witness" and c.value == 0
        direct = coindex_lower(join_power(as_free_zp_complex(pts), 2), 1)
        assert direct.kind == "map_witness"


class TestMonotonicity:
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
    def test_restriction_gives_all_lower_targets(self, n, p):
        cert = coindex_lower(e_n_zp(n, p), n)
        wit = cert.evidence
        for m in range(n + 1):
            # the first m+1 join factors of the n-model are the m-model
            restricted = EquivariantMap(e_n_zp(m, p), wit.target, wit.vertex_map[: (m + 1) * p])
            back = IndexCertificate("map_witness", "coind_lower", m, restricted, 0, cert.space)
            assert back.value == m
            with pytest.raises(ValidationError):
                IndexCertificate("map_witness", "coind_lower", m + 1, restricted, 0, cert.space)

    def test_inclusion_maps_validate(self):
        for m, n, p in [(0, 2, 2), (1, 3, 3)]:
            incl = EquivariantMap(e_n_zp(m, p), e_n_zp(n, p), tuple(range((m + 1) * p)))
            assert check_vertex_map(incl.source, incl.target, incl.vertex_map) == []
            space = content_key(e_n_zp(n, p))
            assert IndexCertificate("map_witness", "coind_lower", m, incl, 0, space).established
            assert IndexCertificate("map_witness", "ind_upper", n, incl, 0, space).established


def offset_gap(N, p, m=1):
    return build_pp_xm(N, Fraction(1, 2), m, p, GridSpec(N, 2))


class TestObstructionReport:
    """For each prime p, the certified lower bound on the coindex of the
    periodic points of X against the certified upper bound on that of Z: the
    gap that rules out an equivariant map and so the marker property."""

    def _certs(self):
        x2 = cubical_to_simplicial(build_pp_xm(1, Fraction(3, 5), 1, 2, GridSpec(1, 4)))
        z2 = cubical_to_simplicial(build_pp_yz("Z", 2, GridSpec(1, 4, circle_valued=True)))
        x_lo = coindex_lower(x2, 0)
        z_up = index_upper(z2, 2)
        z_lo = coindex_lower(z2, 0)
        return [x_lo], [z_up, z_lo]

    def test_rows(self):
        x_certs, z_certs = self._certs()
        assert z_certs[0].kind == "map_witness"
        assert {cert.p for cert in x_certs + z_certs} == {2}
        rows = obstruction_report([2], x_certs, z_certs)
        assert rows[0].p == 2
        assert rows[0].x_coind_lower == 0
        assert rows[0].z_coind_upper == 2  # a map of the triangulated Z into E_2
        assert not rows[0].gap_certified
        assert "not certified" in rows[0].verdict

    def test_ambient_bound_refuses_z(self):
        # Z(p=2, G=4) has coind >= 1 (depth-1 witness), so the ambient
        # formula's 0 would contradict it; the circle-valued grid is refused.
        z = build_pp_yz("Z", 2, GridSpec(1, 4, circle_valued=True))
        assert coindex_lower(cubical_to_simplicial(z), 1, subdivision_depth=1).kind == "map_witness"
        with pytest.raises(ValidationError, match="circle"):
            ambient_sphere_bound(z)

    def test_missing_prime_rejected(self):
        x_certs, z_certs = self._certs()
        with pytest.raises(ValidationError):
            obstruction_report([2, 3], x_certs, z_certs)

    def test_empty_store_rejected(self):
        with pytest.raises(ValidationError):
            obstruction_report([2], {}, {})

    def test_filed_under_the_prime_of_the_evidence(self):
        """An exhausted coind >= 2 search on E_1(Z_3) is filed under p = 3,
        its note's prime, and never in the p = 2 row."""
        x3 = coindex_lower(e_n_zp(1, 3), 2)
        assert (x3.kind, x3.p, x3.evidence["p"]) == ("exhaustion", 3, 3)
        _, z_certs = self._certs()
        with pytest.raises(ValidationError, match="p=2"):
            obstruction_report([2], [x3], z_certs)

    def test_contradiction_raises_before_any_row(self):
        """coind >= 1 on E_1(Z_2) against an ambient ind <= 0 filed under
        the same space label."""
        x = coindex_lower(e_n_zp(1, 2), 1)
        z = ambient_sphere_bound(offset_gap(1, 2), space=x.space)
        assert (x.kind, x.value, z.value, z.p) == ("map_witness", 1, 0, 2)
        with pytest.raises(ConsistencyError):
            obstruction_report([2], [x], [z])


class TestAmbientBound:
    @pytest.mark.parametrize("N,p,expected", [(1, 3, 1), (2, 2, 1), (1, 2, 0), (1, 5, 3)])
    def test_formula(self, N, p, expected):
        cert = ambient_sphere_bound(offset_gap(N, p))
        assert cert.value == expected
        assert cert.kind == "ambient_bound" and cert.bound_type == "ind_upper"
        assert cert.evidence == {"N": N, "p": p, "offset": 1}

    def test_offset_divisible_by_p_rejected(self):
        with pytest.raises(ValidationError):
            ambient_sphere_bound(offset_gap(1, 3, m=3))

    def test_other_constraint_rejected(self):
        cell = (((0, 0),), ((1, 0),))
        grid = GridSpec(1, 1)
        cx = CubicalZpComplex(2, grid, AnyCell(), [encode(cell, grid), encode(cell[::-1], grid)])
        with pytest.raises(ValidationError, match="offset-gap"):
            ambient_sphere_bound(cx)

    def test_space_defaults_to_triangulation(self):
        cx = offset_gap(1, 3)
        lo = coindex_lower(cubical_to_simplicial(cx), 0)
        assert ambient_sphere_bound(cx).space == lo.space


class TestSerialization:
    def test_witness_round_trip_revalidates(self):
        cert = coindex_lower(e_n_zp(1, 3), 1)
        data = certificate_to_json_dict(cert)
        assert set(data) == {"kind", "bound_type", "value", "depth", "evidence", "space"}
        back = certificate_from_json_dict(data)
        assert back.value == cert.value
        assert back.evidence.vertex_map == cert.evidence.vertex_map

    def test_tampered_map_rejected_on_load(self):
        cert = coindex_lower(e_n_zp(1, 2), 1)
        data = certificate_to_json_dict(cert)
        data["evidence"]["vertex_map"][0] = 1  # breaks equivariance/simpliciality
        with pytest.raises(ValidationError):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize("edit", [
        lambda ev: ev.update(vertex_map=[False, True, 2, 3]),
        lambda ev: ev["source"].update(simplices=[[False, 2], [False, 3], [True, 2], [True, 3]]),
        lambda ev: ev["target"].update(perm=[True, False, 3, 2]),
    ], ids=["map", "source-simplices", "target-perm"])
    def test_json_booleans_refused_on_load(self, edit):
        data = json.loads(json.dumps(certificate_to_json_dict(index_upper(e_n_zp(1, 2), 1))))
        assert data["evidence"]["vertex_map"] == [0, 1, 2, 3]
        assert data["evidence"]["source"]["simplices"] == [[0, 2], [0, 3], [1, 2], [1, 3]]
        certificate_from_json_dict(data)
        edit(data["evidence"])
        with pytest.raises(ValidationError):
            certificate_from_json_dict(data)

    def test_evidence_free_combined_refused(self):
        forged = {"kind": "combined", "bound_type": "coind_lower", "value": 99,
                  "depth": 0, "evidence": None, "space": "s"}
        with pytest.raises(ValidationError):
            certificate_from_json_dict(forged)
        with pytest.raises(ValidationError):
            IndexCertificate("combined", "coind_lower", 99, None, 0, "s")


def set_field(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


def unwrap(data):
    """Take the evidence out of its note wrapper."""
    data["evidence"] = data["evidence"]["fields"]


# (builder, edit of the JSON form): one derivable certificate per DERIVE
# entry, each edited after encoding so that its evidence no longer derives it;
# then evidence holding a float or a bool where an int belongs (each derives
# the same value as the int), evidence not in the form it is written in, and
# a certificate without its space or with one that is not a string, and
# notes without their prime or with a field their derivation does not read.
FORGERIES = {
    "witness-coind-value": (lambda: coindex_lower(e_n_zp(1, 3), 1), set_field(["value"], 2)),
    "witness-coind-depth": (lambda: coindex_lower(e_n_zp(1, 3), 1), set_field(["depth"], 1)),
    "witness-coind-bound-type": (
        lambda: coindex_lower(as_free_zp_complex(periodic_points(make_sigma_m(1), 3)), 0),
        set_field(["bound_type"], "ind_upper")),
    "witness-ind-value": (lambda: index_upper(e_n_zp(1, 2), 1), set_field(["value"], 0)),
    "witness-ind-bound-type": (
        lambda: index_upper(FreeZpComplex(SimplicialComplex(4, [[(0,), (1,), (2,), (3,)]]),
                                          ZpAction(2, (1, 0, 3, 2))), 0),
        set_field(["bound_type"], "coind_lower")),
    "exhaustion-coind-value": (lambda: coindex_lower(make_discrete_zp(3), 1),
                               set_field(["value"], 0)),
    "exhaustion-ind-value": (lambda: index_upper(e_n_zp(1, 2), 0), set_field(["value"], 1)),
    "ambient-value": (lambda: ambient_sphere_bound(offset_gap(1, 3)), set_field(["value"], 0)),
    "ambient-offset": (lambda: ambient_sphere_bound(offset_gap(1, 3)),
                       set_field(["evidence", "fields", "offset"], 3)),
    "ambient-float-p": (lambda: ambient_sphere_bound(offset_gap(1, 3)),
                        set_field(["evidence", "fields", "p"], 3.0)),
    "ambient-float-N": (lambda: ambient_sphere_bound(offset_gap(1, 3)),
                        set_field(["evidence", "fields", "N"], 1.0)),
    "ambient-bool-N": (lambda: ambient_sphere_bound(offset_gap(1, 3)),
                       set_field(["evidence", "fields", "N"], True)),
    "ambient-bool-offset": (lambda: ambient_sphere_bound(offset_gap(1, 3)),
                            set_field(["evidence", "fields", "offset"], True)),
    "ambient-unwrapped": (lambda: ambient_sphere_bound(offset_gap(1, 3)), unwrap),
    "ambient-other-type": (
        lambda: ambient_sphere_bound(offset_gap(1, 3)),
        lambda data: data.update(evidence={"type": "homology", **data["evidence"]["fields"]})),
    "exhaustion-unwrapped": (lambda: coindex_lower(make_discrete_zp(3), 1), unwrap),
    "exhaustion-without-p": (lambda: coindex_lower(make_discrete_zp(3), 1),
                             lambda data: data["evidence"]["fields"].pop("p")),
    "exhaustion-scope-for-note": (
        lambda: coindex_lower(make_discrete_zp(3), 1),
        lambda data: data["evidence"]["fields"].update(
            scope=data["evidence"]["fields"].pop("note"))),
    "ambient-extra-scope": (lambda: ambient_sphere_bound(offset_gap(1, 3)),
                            set_field(["evidence", "fields", "scope"], "true")),
    "witness-without-space": (lambda: index_upper(e_n_zp(1, 2), 1), lambda data: data.pop("space")),
    "witness-list-space": (lambda: index_upper(e_n_zp(1, 2), 1), set_field(["space"], [])),
}


# The exhaustion certificate of coind >= 1 on three points, edited after encoding.
NON_INTEGERS = {
    "all-at-once": {"value": 1.5, "depth": -3, "attempted": 1.5, "nodes": "x"},
    "value-float": {"value": 1.0},
    "value-bool": {"value": True},
    "depth-negative": {"depth": -1},
    "depth-float": {"depth": 0.0},
    "attempted-float": {"value": 1.5, "attempted": 1.5},
    "attempted-negative": {"value": -1, "attempted": -1},
    "nodes-string": {"nodes": "x"},
    "nodes-bool": {"nodes": False},
    "nodes-negative": {"nodes": -2},
    "p-float": {"p": 3.0},
    "p-bool": {"p": True},
    "p-not-prime": {"p": 4},
    "p-null": {"p": None},
}


class TestForgeries:
    @pytest.mark.parametrize("name", NON_INTEGERS)
    def test_non_integer_exhaustion_refused(self, name):
        data = json.loads(json.dumps(certificate_to_json_dict(
            coindex_lower(make_discrete_zp(3), 1))))
        assert (data["kind"], data["value"], data["depth"]) == ("exhaustion", 1, 0)
        assert certificate_from_json_dict(data).describe().startswith("[exhaustion] coind >= 1")
        for key, value in NON_INTEGERS[name].items():
            fields = data["evidence"]["fields"]
            (fields if key in fields else data)[key] = value
        with pytest.raises(ValidationError):
            certificate_from_json_dict(data)

    def test_non_integer_value_refused_on_construction(self):
        evidence = {"attempted": 1, "nodes": 4, "note": "", "p": 3}
        assert IndexCertificate("exhaustion", "coind_lower", 1, evidence).value == 1
        for value, depth in [(1.0, 0), (True, 0), (1, -1), (1, 1.0), (1, False)]:
            with pytest.raises(ValidationError):
                IndexCertificate("exhaustion", "coind_lower", value, evidence, depth)


    def test_every_derivation_is_covered(self):
        kinds = set()
        for builder, _ in FORGERIES.values():
            cert = builder()
            kinds.add((cert.kind, cert.bound_type))
        assert kinds == set(DERIVE)

    @pytest.mark.parametrize("name", FORGERIES)
    def test_edited_certificate_refused_on_load(self, name):
        builder, edit = FORGERIES[name]
        data = certificate_to_json_dict(builder())
        certificate_from_json_dict(json.loads(json.dumps(data)))
        edit(data)
        with pytest.raises(ValidationError):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize("depth", [1, 40])
    def test_raised_depth_refused_before_a_subdivision(self, depth, monkeypatch):
        """The model's first subdivision would outgrow the 15 simplices of
        the source, E_1(Z_3) at depth 0, so the certificate is refused before
        any is built; at depth 40 the model was subdivided until the cell
        budget stopped it."""
        data = certificate_to_json_dict(coindex_lower(e_n_zp(1, 3), 1))
        data["depth"] = depth
        monkeypatch.setattr(zpindex.certificates, "barycentric_subdivide", pytest.fail)
        with pytest.raises(ValidationError, match=f"not the 1-model subdivided {depth} times"):
            certificate_from_json_dict(data)

    def test_0_model_at_any_depth_derived_without_subdividing(self, monkeypatch):
        # a 0-dimensional complex is its own subdivision
        data = certificate_to_json_dict(coindex_lower(e_n_zp(1, 3), 0, subdivision_depth=2))
        data["depth"] = 10 ** 9
        monkeypatch.setattr(zpindex.certificates, "barycentric_subdivide", pytest.fail)
        assert certificate_from_json_dict(data).value == 0

    @pytest.mark.parametrize("value,betti", [(0, [2]), (5, [0, 0, 0, 0, 0, 1])],
                             ids=["true-ind-0", "forged-ind-5"])
    def test_connectivity_bound_refused(self, value, betti):
        """The JSON form of the deleted connectivity bound on three points,
        whose index is 0, is no certificate kind: neither its true ind >= 0
        nor the ind >= 5 of Betti numbers edited to match."""
        data = {"kind": "connectivity_bound", "bound_type": "ind_lower", "value": value,
                "depth": 0, "space": content_key(make_discrete_zp(3)),
                "evidence": {"type": "note", "fields": {
                    "caveat": "homological connectivity; equals homotopy connectivity "
                              "only when the space is simply connected (Hurewicz)",
                    "coefficients": 3,
                    "homology": {"type": "homology", "p": 3, "betti": betti, "reduced": True,
                                 "connectivity": value - 1},
                    "simply_connected_verified": False}}}
        with pytest.raises(ValidationError, match="no 'connectivity_bound' certificate"):
            certificate_from_json_dict(data)


FACTORS = {
    "discrete": make_discrete_zp,
    "periodic": lambda p: as_free_zp_complex(periodic_points(make_sigma_m(1), p)),
}


@st.composite
def small_free_complexes(draw):
    """Joins of 1-3 discrete or periodic-orbit factors, maybe subdivided once."""
    p = draw(st.sampled_from([2, 3]))
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3))
    x = FACTORS[names[0]](p)
    for name in names[1:]:
        x = join(x, FACTORS[name](p))
    return barycentric_subdivide(x) if draw(st.booleans()) else x


class TestSoundnessProperties:
    @settings(max_examples=25)
    @given(small_free_complexes())
    def test_established_bounds_agree_and_survive_json(self, x):
        certs = []
        space = content_key(x)
        for n in range(x.dim + 1):
            for bound in (coindex_lower, index_upper):
                try:
                    certs.append(bound(x, n, budget=20_000, space=space))
                except BudgetExceeded:
                    pass
        assert_coindex_le_index(certs)
        for cert in certs:
            back = certificate_from_json_dict(json.loads(json.dumps(certificate_to_json_dict(cert))))
            assert ((back.kind, back.bound_type, back.value, back.subdivision_depth, back.space)
                    == (cert.kind, cert.bound_type, cert.value, cert.subdivision_depth, cert.space))

    @settings(max_examples=25)
    @given(small_free_complexes())
    def test_subdivision_keeps_homology(self, x):
        assert homology(barycentric_subdivide(x).complex, x.p) == homology(x.complex, x.p)
