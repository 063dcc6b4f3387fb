"""Exact-arithmetic computations with adjoint orbits of semisimple Lie algebras.

The namespace is lazy (PEP 562): ``import lieorbits`` loads no submodule,
and each exported name or submodule is imported on first access, so a CLI
call compiles only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "minorbit": ("MinOrbitReport", "min_orbit_report"),
    "orbits": (
        "OrbitPoset",
        "Partition",
        "closure_leq_rank",
        "dominance_leq",
        "hasse_diagram",
        "jordan_matrix",
        "minimal_orbit",
        "orbit_dim_partition",
        "partitions",
        "regular_orbit",
        "transpose",
    ),
    "rootsys": (
        "CartanType",
        "ParabolicData",
        "ReducedWord",
        "Root",
        "RootSystem",
        "build_root_system",
        "coroot_pairing",
        "dual_subset",
        "longest_element",
        "maximal_root",
        "parabolic_data",
        "weight_leq",
    ),
    "sln": (
        "IrrationalSpectrumError",
        "JordanPair",
        "SlnElement",
        "ad_matrix",
        "bracket",
        "centralizer_dim",
        "invariants_phi",
        "is_nilpotent",
        "is_semisimple",
        "jordan_chevalley",
        "killing",
        "kks_form",
        "orbit_dim",
        "same_orbit",
        "trace_power",
    ),
    "ssorbits": (
        "FundamentalDomainError",
        "GaussianRational",
        "TorusElement",
        "compactification_dims",
        "dominant_representative",
        "in_fundamental_domain",
        "is_regular_semisimple",
        "pi_of_h",
        "ss_orbit_dim",
        "verify_dual_parabolic",
    ),
    "topology": ("ExponentData", "exponents", "poincare_polynomial"),
    "triples": (
        "AbstractPrincipalTriple",
        "CorootVector",
        "MatrixTriple",
        "jacobson_morozov_sln",
        "kostant_principal",
        "principal_triple_sln",
        "verify_matrix_triple",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("linalg", *_EXPORTS)

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
