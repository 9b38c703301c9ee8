"""Free Z_p-complexes, certified index/coindex bounds, periodic points of
window-constrained subshifts, cubical models of periodic-point spaces, and
marker-function experiments on finite dynamical systems."""

__version__ = "0.1.0"

from .certificates import (
    EquivariantMap,
    IndexCertificate,
    ambient_sphere_bound,
    assert_coindex_le_index,
    coindex_le_index_check,
    coindex_lower,
    index_lower_from_connectivity,
    index_upper,
    index_upper_from_dimension,
    search_equivariant_map,
)
from .cubical import (
    CubicalZpComplex,
    GridSpec,
    build_pp_xm,
    build_pp_yz,
    cubical_homology,
    cubical_to_simplicial,
    relabel_isomorphism,
)
from .errors import BudgetExceeded, ConsistencyError, ValidationError
from .markers import (
    FiniteDynSys,
    MarkerWitness,
    check_marker,
    epsilon_embedding,
    lindenstrauss_phi,
    obstruction_report,
    universality_map,
)
from .simplicial import (
    FreeZpComplex,
    HomologyProfile,
    SimplicialComplex,
    ZpAction,
    barycentric_subdivide,
    e_n_zp,
    homology,
    join,
    make_discrete_zp,
)
from .subshifts import (
    PeriodicOrbitSet,
    Subshift,
    as_free_zp_complex,
    join_periodic_sets,
    join_power,
    make_sigma,
    make_sigma_m,
    odd_period_witness,
    periodic_points,
)
