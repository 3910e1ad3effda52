"""Count the source size of the package: the lines of each file under
src/skolem, the lines of the C file that hold code, with its comments
stripped by the preprocessor, and the Python lines that hold code: no
blank, comment-only or docstring line, in src/skolem and, counted apart,
in the test suite's tests/*.py.  When the compiled module for
this interpreter has been built in place under src/skolem, also its
machine code: the size of its .text section, of the walk's two copies,
upper and upper_bmi2, and of run_search, which enters them, as nm -S
gives them.

    python3 bench/size.py

prints the C count, each Python file's count and their total, the same
for the test files, then the machine-code sizes.  bench/record.py writes
the same figures, through sizes(), as the source block of
BENCH_<label>.json.  The C count needs gcc, and the machine-code sizes
binutils' size and nm.
"""

import ast
import io
import subprocess
import sys
import sysconfig
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PY_FILES = sorted((ROOT / "src" / "skolem").glob("*.py"))
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
C_FILE = ROOT / "src" / "skolem" / "_fastsearch.c"
MODULE = C_FILE.with_name("_fastsearch" + sysconfig.get_config_var("EXT_SUFFIX"))
SYMBOLS = ("upper", "upper_bmi2", "run_search")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def c_code_lines(path: Path) -> int:
    """The lines that hold code once gcc has stripped the comments."""
    out = subprocess.run(["gcc", "-fpreprocessed", "-dD", "-E", "-P", str(path)],
                         capture_output=True, text=True, check=True).stdout
    return sum(1 for line in out.splitlines() if line.strip())


def python_code_lines(path: Path) -> int:
    """The lines that hold a token other than a comment and are not part of
    a module, class or function docstring."""
    source = path.read_bytes()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def machine_code(path: Path) -> dict:
    """The bytes of the module's .text section and of each of SYMBOLS that
    it defines; bench/kernel_ab.py prints them for its two builds."""
    sections = subprocess.run(["size", "-A", str(path)], capture_output=True, text=True,
                              check=True).stdout
    text = next(int(line.split()[1]) for line in sections.splitlines()
                if line.split()[:1] == [".text"])
    symbols = {}
    listing = subprocess.run(["nm", "-S", str(path)], capture_output=True, text=True,
                             check=True).stdout
    for line in listing.splitlines():
        fields = line.split()  # address, size, type, name
        if len(fields) == 4 and fields[3] in SYMBOLS:
            symbols[fields[3]] = int(fields[1], 16)
    return {"text_bytes": text, "symbol_bytes": symbols}


def sizes() -> dict:
    """Every figure, by path relative to the checkout's root; machine_code
    is None when the module is not built."""
    lines = {str(p.relative_to(ROOT)): p.read_bytes().count(b"\n") for p in PY_FILES + [C_FILE]}
    python = {str(p.relative_to(ROOT)): python_code_lines(p) for p in PY_FILES}
    tests = {str(p.relative_to(ROOT)): python_code_lines(p) for p in TEST_FILES}
    return {
        "lines": lines,
        "lines_total": sum(lines.values()),
        "c_code_lines": c_code_lines(C_FILE),
        "python_code_lines": python,
        "python_code_lines_total": sum(python.values()),
        "test_code_lines": tests,
        "test_code_lines_total": sum(tests.values()),
        "machine_code": {"module": str(MODULE.relative_to(ROOT)), **machine_code(MODULE)}
                        if MODULE.exists() else None,
    }


def main() -> int:
    found = sizes()
    print(f"non-comment C lines: {found['c_code_lines']}")
    for path, count in found["python_code_lines"].items():
        print(f"{count:8} {path}")
    print(f"{found['python_code_lines_total']:8} Python code lines")
    for path, count in found["test_code_lines"].items():
        print(f"{count:8} {path}")
    print(f"{found['test_code_lines_total']:8} Python code lines of the tests")
    code = found["machine_code"]
    if code is None:
        print(f"machine code: {MODULE.relative_to(ROOT)} is not built")
    else:
        print(f"machine code of {code['module']}:")
        print(f"{code['text_bytes']:8} bytes of .text")
        for name, size in code["symbol_bytes"].items():
            print(f"{size:8} bytes of {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
