import ast
from pathlib import Path

import lieorbits


def test_no_assert_in_src():
    # -O strips assert statements, so checks in the package must raise
    offenders = []
    for path in sorted(Path(lieorbits.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []
