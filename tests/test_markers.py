"""The obstruction report: for each prime p, the certified lower bound on
the Z_p-coindex of the periodic points of X set against the certified upper
bound on that of Z, the gap that rules out an equivariant map and so the
marker property."""
from fractions import Fraction

import pytest

from zpindex.certificates import (
    ambient_sphere_bound,
    coindex_lower,
    index_upper,
    obstruction_report,
)
from zpindex.cubical import GridSpec, build_pp_xm, build_pp_yz, cubical_to_simplicial
from zpindex.errors import ValidationError


class TestObstructionReport:
    def _certs(self):
        x2 = cubical_to_simplicial(build_pp_xm(1, Fraction(3, 5), 1, 2, GridSpec(1, 4)))
        z2 = cubical_to_simplicial(build_pp_yz("Z", 2, GridSpec(1, 4, circle_valued=True)))
        x_lo = coindex_lower(x2, 0)
        z_up = index_upper(z2, 2)
        z_lo = coindex_lower(z2, 0)
        return {2: [x_lo]}, {2: [z_up, z_lo]}

    def test_rows(self):
        x_certs, z_certs = self._certs()
        assert z_certs[2][0].kind == "map_witness"
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
