"""The test suite itself: it needs no package installed beyond pytest."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_suite_imports_only_the_standard_library_pytest_skolem_and_its_own_modules():
    # every import in tests/*.py names a standard-library module, pytest,
    # skolem, or a module file of tests/ or bench/
    own = {path.stem for folder in ("tests", "bench") for path in (ROOT / folder).glob("*.py")}
    allowed = {*sys.stdlib_module_names, "pytest", "skolem", *own}
    foreign = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
