import random
from fractions import Fraction as F

import pytest

from zpindex.errors import ValidationError
from zpindex.markers import (
    FiniteDynSys,
    check_marker,
    epsilon_embedding,
    lindenstrauss_phi,
    obstruction_report,
    sq_dist,
    universality_map,
)


def cycle_system(n):
    """Rotation of a discrete n-cycle, graph metric scaled to diameter 1."""
    half = n // 2
    metric = [[F(min(abs(i - j), n - abs(i - j)), half) for j in range(n)]
              for i in range(n)]
    return FiniteDynSys(metric, [(i + 1) % n for i in range(n)])


def two_point_swap():
    return FiniteDynSys([[F(0), F(1)], [F(1), F(0)]], [1, 0])


class TestFiniteDynSys:
    def test_metric_axioms_enforced(self):
        with pytest.raises(ValidationError):
            FiniteDynSys([[F(0), F(1)], [F(2), F(0)]], [1, 0])  # asymmetric
        with pytest.raises(ValidationError):
            FiniteDynSys([[F(0), F(0)], [F(0), F(0)]], [1, 0])  # indiscernible
        with pytest.raises(ValidationError):
            # triangle inequality: d(0,2) > d(0,1) + d(1,2)
            FiniteDynSys([[F(0), F(1, 10), F(1)],
                          [F(1, 10), F(0), F(1, 10)],
                          [F(1), F(1, 10), F(0)]], [1, 2, 0])

    def test_bijection_enforced(self):
        with pytest.raises(ValidationError):
            FiniteDynSys([[F(0), F(1)], [F(1), F(0)]], [0, 0])

    def test_json_round_trip(self):
        sys_ = cycle_system(6)
        back = FiniteDynSys.from_json_dict(sys_.to_json_dict())
        assert back.metric == sys_.metric and back.T == sys_.T


class TestCheckMarker:
    def test_z10_small_horizon(self):
        w = check_marker(cycle_system(10), 3, {0})
        assert w.return_times_ok and w.covering_ok

    def test_z10_full_horizon_fails(self):
        w = check_marker(cycle_system(10), 10, {0})
        assert not w.return_times_ok
        assert w.covering_ok

    def test_empty_u(self):
        w = check_marker(cycle_system(10), 3, set())
        assert w.return_times_ok and not w.covering_ok

    def test_direct_set_arithmetic_oracle(self):
        sys_ = cycle_system(10)
        U = {0, 5}
        for N in range(1, 11):
            expected = all(
                not (U & {(u - n) % 10 for u in U}) for n in range(1, N + 1))
            assert check_marker(sys_, N, U).return_times_ok == expected

    def test_periodic_orbit_obstruction(self):
        # any U meeting an orbit of length <= N forces a quick return
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 6)
            sys_ = cycle_system(n)
            U = {rng.randrange(n)}
            w = check_marker(sys_, n, U)
            assert not w.return_times_ok


class TestEpsilonEmbedding:
    def test_two_points(self):
        emb = epsilon_embedding(two_point_swap(), F(1, 2))
        assert emb.N == 2
        assert emb.images[0] != emb.images[1]

    def test_large_eps_single_center(self):
        emb = epsilon_embedding(cycle_system(5), F(3, 2))
        assert emb.N == 1

    def test_five_cycle_fiber_condition(self):
        sys_ = cycle_system(5)
        eps = F(2, 5)
        emb = epsilon_embedding(sys_, eps)
        # oracle: all-pairs check of the fiber-diameter condition
        for x in sys_.points():
            for y in sys_.points():
                if emb.images[x] == emb.images[y]:
                    assert sys_.metric[x][y] < eps

    def test_modulus_property_all_pairs(self):
        sys_ = cycle_system(6)
        eps = F(1, 3)
        emb = epsilon_embedding(sys_, eps)
        for x in sys_.points():
            for y in sys_.points():
                if sq_dist(emb.images[x], emb.images[y]) < emb.delta_sq:
                    assert sys_.metric[x][y] < eps

    def test_rejects_bad_eps_and_diameter(self):
        with pytest.raises(ValidationError):
            epsilon_embedding(two_point_swap(), F(0))
        big = FiniteDynSys([[F(0), F(2)], [F(2), F(0)]], [1, 0])
        with pytest.raises(ValidationError):
            epsilon_embedding(big, F(1, 2))


class TestUniversality:
    def test_z6_rotation(self):
        sys_ = cycle_system(6)
        res = universality_map(sys_)
        assert len(res.trajectories) == 6
        # oracle: per-coordinate distance checks on every consecutive pair
        for word in res.trajectories:
            k = len(word)
            assert k == 6
            for i in range(k):
                assert sq_dist(word[i], word[(i + 1) % k]) >= res.delta_sq

    def test_two_point_swap(self):
        res = universality_map(two_point_swap())
        assert res.delta_sq == min(
            sq_dist(res.embedding.images[x],
                    res.embedding.images[(x + 1) % 2]) for x in range(2))

    def test_equivariance_is_rotation(self):
        sys_ = cycle_system(4)
        res = universality_map(sys_)
        for x in sys_.points():
            w = res.trajectories[x]
            assert res.trajectories[sys_.T[x]] == w[1:] + w[:1]

    def test_fixed_point_rejected(self):
        metric = [[F(0), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(0)]]
        sys_ = FiniteDynSys(metric, [0, 2, 1])  # 0 is fixed
        with pytest.raises(ValidationError):
            universality_map(sys_)


class TestStoppingTime:
    def test_m1_closed_form(self):
        # the M=1 identity phi = 1 - w needs the walk to stop within one
        # step: w = 1 on K with X = K u TK
        rng = random.Random(3)
        sys_ = cycle_system(4)
        w = [F(1), F(rng.randint(0, 4), 4), F(1), F(rng.randint(0, 4), 4)]
        res = lindenstrauss_phi(sys_, w, 1)
        assert res.hypotheses["covering_ok"]
        for x in sys_.points():
            assert res.phi[x] == 1 - w[x]

    def test_m2_closed_form(self):
        rng = random.Random(4)
        sys_ = cycle_system(6)
        w = [F(rng.randint(0, 6), 6) for _ in range(6)]
        res = lindenstrauss_phi(sys_, w, 2)
        for x in sys_.points():
            x1 = sys_.T_inv[x]
            x2 = sys_.T_inv[x1]
            expected = (1 - w[x]) * w[x1] + 2 * (1 - w[x]) * (1 - w[x1]) * w[x2]
            assert res.phi[x] == expected

    def test_z12_marker_example(self):
        sys_ = cycle_system(12)
        w = [F(1) if x == 0 else F(0) for x in range(12)]
        res = lindenstrauss_phi(sys_, w, 11, U={0, 1}, N=2)
        assert res.phi == tuple(F(j) for j in range(12))
        assert res.E == frozenset({11})
        assert res.hypotheses["E_in_TinvU"]
        assert res.hypotheses["E_no_return"]
        assert res.hypotheses["covering_ok"]
        assert res.hypotheses["mass_ok"]
        assert res.hypotheses["supp_w_in_U"]

    def test_e_returning_within_n(self):
        # w = 1 on K = {0, 4} of Z_12: E = T^{-1}K = {3, 11}, and T^4(11) = 3
        sys_ = cycle_system(12)
        w = [F(1) if x in (0, 4) else F(0) for x in range(12)]
        for N, no_return in ((3, True), (4, False)):
            res = lindenstrauss_phi(sys_, w, 11, U={0, 4}, N=N)
            assert res.E == frozenset({3, 11})
            assert res.hypotheses["E_no_return"] is no_return

    def test_additivity_off_E(self):
        rng = random.Random(5)
        for trial in range(10):
            n = rng.randint(3, 8)
            sys_ = cycle_system(n)
            w = [F(rng.randint(0, 3), 3) for _ in range(n)]
            if all(v < 1 for v in w):
                w[rng.randrange(n)] = F(1)
            res = lindenstrauss_phi(sys_, w, n)
            for x in sys_.points():
                if x not in res.E:
                    assert res.phi[sys_.T[x]] == res.phi[x] + 1

    def test_mass_sums_to_one_under_covering(self):
        sys_ = cycle_system(9)
        w = [F(1) if x in (0, 4) else F(0) for x in range(9)]
        res = lindenstrauss_phi(sys_, w, 8)
        assert res.hypotheses["covering_ok"]
        assert all(m == 1 for m in res.stop_mass)

    def test_w_out_of_range_rejected(self):
        sys_ = cycle_system(3)
        with pytest.raises(ValidationError):
            lindenstrauss_phi(sys_, [F(2), F(0), F(0)], 1)

    def test_exactness_matters(self):
        # thirds stay exact: no spurious E membership from rounding
        sys_ = cycle_system(6)
        w = [F(1), F(1, 3), F(0), F(0), F(0), F(0)]
        res = lindenstrauss_phi(sys_, w, 6)
        assert all(isinstance(v, F) for v in res.phi)


class TestObstructionReport:
    def _certs(self):
        from zpindex.certificates import coindex_lower, index_upper_from_dimension
        from zpindex.cubical import GridSpec, build_pp_xm, build_pp_yz, cubical_to_simplicial
        x2 = cubical_to_simplicial(build_pp_xm(1, F(3, 5), 1, 2, GridSpec(1, 4)))
        z2 = cubical_to_simplicial(build_pp_yz("Z", 2, GridSpec(1, 4, circle_valued=True)))
        x_lo = coindex_lower(x2, 0)
        z_up = index_upper_from_dimension(z2)
        z_lo = coindex_lower(z2, 0)
        return {2: [x_lo]}, {2: [z_up, z_lo]}

    def test_rows(self):
        x_certs, z_certs = self._certs()
        rows = obstruction_report([2], x_certs, z_certs)
        assert rows[0].p == 2
        assert rows[0].x_coind_lower == 0
        assert rows[0].z_coind_upper == 2  # the dimension of the triangulated Z
        assert not rows[0].gap_certified
        assert "not certified" in rows[0].verdict

    def test_ambient_bound_refuses_z(self):
        # Z(p=2, G=4) has coind >= 1 (depth-1 witness), so the ambient
        # formula's 0 would contradict it; the circle-valued grid is refused.
        from zpindex.certificates import ambient_sphere_bound, coindex_lower
        from zpindex.cubical import GridSpec, build_pp_yz, cubical_to_simplicial
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
