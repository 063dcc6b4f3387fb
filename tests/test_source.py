import ast
import importlib
from pathlib import Path

import lieorbits


def test_no_assert_in_src():
    # -O strips assert statements, so checks in the package must raise
    offenders = []
    for path in sorted(Path(lieorbits.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_no_dataclasses_import_in_src():
    # importing dataclasses costs more than the library code a CLI call
    # compiles, so value classes are namedtuple subclasses
    offenders = []
    for path in sorted(Path(lieorbits.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if "dataclasses" in _imported(node)]
    assert offenders == []


def test_no_float_arithmetic_in_src():
    # the library is exact: a float from float() or math's logs and roots
    # would carry a rounded value into its results
    inexact = {"log", "log2", "log10", "sqrt"}
    offenders = []
    for path in sorted(Path(lieorbits.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                offenders += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name in inexact]
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float" or (
                isinstance(f, ast.Attribute) and f.attr in inexact and getattr(f.value, "id", None) == "math"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_output_formats_only_in_cli():
    # rootsys, orbits, topology and the rest compute; the JSON, DOT and LaTeX
    # that a call prints are written in cli alone
    offenders = []
    for path in sorted(Path(lieorbits.__file__).parent.rglob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if "json" in _imported(node):
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name.endswith(("_to_json", "_to_dot", "_latex")):
                offenders.append(f"{path.name}:{node.lineno}:{node.name}")
    assert offenders == []


def test_tracer_targets_exist():
    # the traced benchmark run wraps these names; a deleted one should fail
    # here rather than crash that run
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    names = [(mod, fn) for mod, fns in targets.items() for fn in fns]
    assert len(names) == 40
    missing = [
        f"{mod}.{fn}" for mod, fn in names if not callable(getattr(importlib.import_module(f"lieorbits.{mod}"), fn, None))
    ]
    assert missing == []


def test_no_generator_tuples_in_src():
    # on CPython 3.11, tuple(<generator>) and f(*<generator>) build their tuple
    # by resizing, which strands tuples in the per-size free lists; the
    # benchmark's peak RSS counts those, so src builds from lists instead
    offenders = []
    for path in sorted(Path(lieorbits.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args:
                if isinstance(node.args[0], ast.GeneratorExp):
                    offenders.append(f"{path.name}:{node.lineno}")
            offenders += [
                f"{path.name}:{node.lineno}"
                for arg in node.args
                if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)
            ]
    assert offenders == []


def _unreferenced(keep) -> list[str]:
    """Top-level defs f in src with keep(module, f.name) that nothing in the package references outside f's body."""
    src = Path(lieorbits.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(src.rglob("*.py"))}
    refs = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    dead = []
    for module, tree in trees.items():
        for d in tree.body:
            if isinstance(d, ast.FunctionDef) and keep(module, d.name):
                inside = {id(node) for node in ast.walk(d)}
                if not any(name == d.name and id(node) not in inside for node, name in refs):
                    dead.append(f"{module}:{d.name}")
    return dead


def test_linalg_has_no_dead_kernels():
    # every public def in linalg is referenced in the package outside its own body
    assert _unreferenced(lambda module, name: module == "linalg.py" and not name.startswith("_")) == []


def test_no_stranded_private_functions():
    # a private top-level def that nothing calls is left over from a removal;
    # module hooks such as __getattr__ are called by the interpreter
    assert _unreferenced(lambda module, name: name.startswith("_") and not name.endswith("__")) == []


def test_integer_kernels_never_name_fraction():
    # the remainder sequences, the squarefree part, the Smith form, the Sturm chain, the integer matrix
    # product and its powers, the characteristic polynomial, composition modulo a polynomial,
    # Paterson-Stockmeyer on an integer matrix, the columns of ad(d*x) and the sl2-triple relations run in ints
    # and build no Fraction; a Fraction brought back into one of them would normalize a gcd at every step
    kernels = {
        "linalg.py": {
            "_int_charpoly",
            "_int_compose_mod",
            "_int_divmod",
            "_int_poly_mul",
            "_int_gcd",
            "_int_squarefree",
            "_int_mul",
            "_int_powers",
            "_int_poly_eval_matrix",
            "_primitive",
            "_smith_diagonal",
            "_reduced",
            "_unit_intervals_with_roots",
        },
        "sln.py": {"_ad_columns"},
        "triples.py": {"_relations_hold"},
    }
    offenders = []
    for module, names in kernels.items():
        path = Path(lieorbits.__file__).parent / module
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = {d.name: d for d in tree.body if isinstance(d, ast.FunctionDef) and d.name in names}
        assert set(defs) == names
        offenders += [
            f"{module}:{name}:{node.lineno}"
            for name, d in sorted(defs.items())
            for node in ast.walk(d)
            if (isinstance(node, ast.Name) and node.id == "Fraction")
            or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
        ]
    assert offenders == []
