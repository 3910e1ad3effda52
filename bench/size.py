"""Count the source size of the package: the lines of each file under
src/skolem, the lines of the C file that hold code, with its comments
stripped by the preprocessor, and the Python lines that hold code: no
blank, comment-only or docstring line.

    python3 bench/size.py

prints the C count, then each Python file's count and their total.
bench/record.py writes the same figures, through sizes(), as the source
block of BENCH_<label>.json.  The C count needs gcc.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PY_FILES = sorted((ROOT / "src" / "skolem").glob("*.py"))
C_FILE = ROOT / "src" / "skolem" / "_fastsearch.c"
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


def sizes() -> dict:
    """Every figure, by path relative to the checkout's root."""
    lines = {str(p.relative_to(ROOT)): p.read_bytes().count(b"\n") for p in PY_FILES + [C_FILE]}
    python = {str(p.relative_to(ROOT)): python_code_lines(p) for p in PY_FILES}
    return {
        "lines": lines,
        "lines_total": sum(lines.values()),
        "c_code_lines": c_code_lines(C_FILE),
        "python_code_lines": python,
        "python_code_lines_total": sum(python.values()),
    }


def main() -> int:
    found = sizes()
    print(f"non-comment C lines: {found['c_code_lines']}")
    for path, count in found["python_code_lines"].items():
        print(f"{count:8} {path}")
    print(f"{found['python_code_lines_total']:8} Python code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
