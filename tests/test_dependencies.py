import ast
import sys
from pathlib import Path

import lifelong

SOURCES = sorted(Path(lifelong.__file__).parent.glob("*.py"))


def test_numpy_is_the_only_runtime_dependency():
    # pyproject.toml declares numpy alone; any other third-party import
    # would work only where that package happens to be installed
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} imports {name}")
    assert not foreign, foreign
