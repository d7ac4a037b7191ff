import ast
import sys
from pathlib import Path

import lifelong

SOURCES = sorted(Path(lifelong.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """(line, module) for each absolute import anywhere in the file at `path`,
    function bodies included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_numpy_is_the_only_runtime_dependency():
    # pyproject.toml declares numpy alone; any other third-party import
    # would work only where that package happens to be installed
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for lineno, name in absolute_imports(path):
            top = name.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno} imports {name}")
    assert not foreign, foreign


def test_oracles_import_nothing_from_lifelong():
    # an oracle that called the package under test would check the code
    # against itself
    path = Path(__file__).parent / "oracles.py"
    found = [f"oracles.py:{lineno} imports {name}" for lineno, name in absolute_imports(path)
             if name.split(".")[0] == "lifelong"]
    assert not found, found
