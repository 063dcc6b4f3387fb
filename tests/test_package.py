"""The lazy package namespace and the modules each CLI subcommand loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieorbits

SRC = str(Path(lieorbits.__file__).resolve().parent.parent)

# the names the package exported when its __init__ imported every module
PUBLIC = {
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
SUBMODULES = ("linalg", "minorbit", "orbits", "rootsys", "sln", "ssorbits", "topology", "triples")


def fresh(code, *argv):
    """Run code in a new interpreter that imports lieorbits from this checkout; return its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_resolve_to_their_home_objects():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"lieorbits.{module}")
        for name in names:
            assert getattr(lieorbits, name) is getattr(home, name), name
    listed = set(dir(lieorbits))
    assert {name for names in PUBLIC.values() for name in names} <= listed
    assert set(SUBMODULES) <= listed
    with pytest.raises(AttributeError, match="no_such_name"):
        lieorbits.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from lieorbits import no_such_name  # noqa: F401


def test_plain_import_is_lazy_and_submodules_load_on_access():
    code = """
import sys
import lieorbits
loaded = lambda: sorted(m for m in sys.modules if m.startswith("lieorbits."))
print(loaded())
sln = lieorbits.sln
print(sln is sys.modules["lieorbits.sln"], loaded())
from lieorbits import TorusElement
print(TorusElement.__module__, loaded())
"""
    lines = fresh(code).splitlines()
    assert lines == [
        "[]",
        "True ['lieorbits.linalg', 'lieorbits.sln']",
        "lieorbits.ssorbits ['lieorbits.linalg', 'lieorbits.rootsys', 'lieorbits.sln', 'lieorbits.ssorbits']",
    ]


RUN_MAIN = """
import contextlib, io, json, sys
from lieorbits.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("lieorbits.")), "dataclasses" in sys.modules]))
"""

TYPE_RANK = ["--type", "D", "--rank", "4"]
ROOTSYS = {"cli", "rootsys"}
MATRIX = {"cli", "linalg", "sln"}
CASES = [
    (["roots", *TYPE_RANK], 0, ROOTSYS),
    (["maxroot", *TYPE_RANK], 0, ROOTSYS),
    (["parabolic", *TYPE_RANK, "--subset", "1,3"], 0, ROOTSYS),
    (["w0", *TYPE_RANK], 0, ROOTSYS),
    (["poincare", *TYPE_RANK], 0, ROOTSYS | {"topology"}),
    (["minorbit", *TYPE_RANK], 0, ROOTSYS | {"minorbit"}),
    (["ssorbit", *TYPE_RANK, "--h", "1,0,1+1/2 i,2"], 0, ROOTSYS | {"ssorbits"}),
    (["killing", "--matrix", "{x}", "--other", "{x}"], 0, MATRIX),
    (["jordan", "--matrix", "{x}"], 0, MATRIX),
    (["phi", "--matrix", "{x}"], 0, MATRIX),
    (["orbit-dim", "--matrix", "{x}"], 0, MATRIX),
    (["same-orbit", "--matrix", "{x}", "--other", "{x}"], 0, MATRIX),
    (["poset", "--n", "5"], 0, {"cli", "orbits"}),
    # the rank oracle ranks 0/1 int rows, with no SlnElement
    (["closure", "--n", "4", "--lower", "2,2", "--upper", "3,1"], 0, {"cli", "orbits", "linalg"}),
    (["triple", *TYPE_RANK], 0, ROOTSYS | MATRIX | {"triples"}),
    (["jm", "--matrix", "{x}"], 0, MATRIX | {"triples"}),
    (["roots", *TYPE_RANK, "--bogus"], 2, {"cli"}),
    (["phi", "--matrix", "{missing}"], 2, {"cli"}),
]


@pytest.mark.parametrize("argv,code,modules", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_subcommand_loads_only_its_modules(tmp_path, argv, code, modules):
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"n": 2, "entries": [["0", "1"], ["0", "0"]]}))
    argv = [a.format(x=x, missing=tmp_path / "missing.json") for a in argv]
    got_code, loaded, dataclasses_loaded = json.loads(fresh(RUN_MAIN, *argv))
    assert got_code == code
    assert set(loaded) == {f"lieorbits.{m}" for m in modules}
    # importing dataclasses pulls in inspect, dis, tokenize and ast on every call
    assert not dataclasses_loaded
