"""What setup.py's build leaves for a fresh process to import."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in a fresh interpreter: imports the package and prints its file and
# every path the import system compiled from source on the way
IMPORT_CHILD = """
import json
from importlib.machinery import SourceFileLoader

compiled = []
source_to_code = SourceFileLoader.source_to_code

def record(self, data, path, *args, **kwargs):
    compiled.append(path)
    return source_to_code(self, data, path, *args, **kwargs)

SourceFileLoader.source_to_code = record
import skolem, skolem.cli, skolem._pysearch
print(json.dumps([skolem.__file__, compiled]))
"""


def test_the_build_writes_each_module_s_bytecode_so_an_import_compiles_nothing(tmp_path):
    lib = tmp_path / "lib"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "setup.py", "-q", "build_py", "--build-lib", str(lib)],
                   cwd=ROOT, env=env, capture_output=True, check=True)
    modules = sorted((lib / "skolem").glob("*.py"))
    assert [p.name for p in modules] == sorted(p.name for p in (ROOT / "src" / "skolem").glob("*.py"))
    for path in modules:
        assert Path(importlib.util.cache_from_source(str(path))).is_file(), path.name

    env["PYTHONPATH"] = str(lib)
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    file, compiled = json.loads(proc.stdout)
    assert Path(file).parent == lib / "skolem"
    assert [path for path in compiled if Path(path).is_relative_to(lib)] == []
