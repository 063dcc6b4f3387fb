"""Exact-arithmetic computations with adjoint orbits of semisimple Lie algebras."""

from .minorbit import MinOrbitReport, min_orbit_report, type_a_flag_check
from .orbits import (
    OrbitPoset,
    Partition,
    closure_leq_rank,
    dominance_leq,
    hasse_diagram,
    jordan_matrix,
    minimal_orbit,
    orbit_dim_partition,
    partitions,
    regular_orbit,
    transpose,
)
from .rootsys import (
    CartanType,
    ParabolicData,
    ReducedWord,
    Root,
    RootSystem,
    build_root_system,
    coroot_pairing,
    dual_subset,
    longest_element,
    maximal_root,
    parabolic_data,
    weight_leq,
)
from .sln import (
    IrrationalSpectrumError,
    JordanPair,
    SlnElement,
    ad_matrix,
    bracket,
    centralizer_dim,
    invariants_phi,
    is_nilpotent,
    is_semisimple,
    jordan_chevalley,
    killing,
    kks_form,
    orbit_dim,
    same_orbit,
    trace_power,
)
from .ssorbits import (
    FundamentalDomainError,
    GaussianRational,
    TorusElement,
    compactification_dims,
    dominant_representative,
    in_fundamental_domain,
    is_regular_semisimple,
    pi_of_h,
    ss_orbit_dim,
    verify_dual_parabolic,
)
from .topology import ExponentData, exponents, poincare_polynomial
from .triples import (
    AbstractPrincipalTriple,
    CorootVector,
    MatrixTriple,
    jacobson_morozov_sln,
    kostant_principal,
    principal_triple_sln,
    verify_matrix_triple,
)

__version__ = "0.1.0"
