"""Free Z_p-complexes, certified index/coindex bounds, periodic points of
window-constrained subshifts, and cubical models of periodic-point spaces."""

__version__ = "0.1.0"

from .certificates import (
    EquivariantMap,
    IndexCertificate,
    ambient_sphere_bound,
    assert_coindex_le_index,
    coindex_lower,
    index_upper,
    obstruction_report,
    search_equivariant_map,
)
from .cubical import (
    CubicalZpComplex,
    GridSpec,
    build_pp_xm,
    build_pp_yz,
    cubical_homology,
    cubical_to_simplicial,
)
from .errors import BudgetExceeded, ConsistencyError, ValidationError
from .simplicial import (
    FreeZpComplex,
    HomologyProfile,
    SimplicialComplex,
    ZpAction,
    barycentric_subdivide,
    e_n_zp,
    homology,
    join,
    join_power,
    make_discrete_zp,
)
from .subshifts import (
    Subshift,
    as_free_zp_complex,
    make_sigma_m,
    periodic_points,
)
