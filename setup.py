import py_compile

from setuptools import Extension, setup
from setuptools.command.build_py import build_py


class build_py_bytecode(build_py):
    """Writes each built module's bytecode, as pip's installer does, also
    where sys.dont_write_bytecode makes distutils skip it: a process that
    imports the built package compiles nothing."""

    def byte_compile(self, files):
        for path in files:
            if path.endswith(".py"):
                py_compile.compile(path, doraise=True, optimize=0)


# optional: without a C compiler the package still installs, and
# skolem.search runs the pure-Python kernel.
setup(
    cmdclass={"build_py": build_py_bytecode},
    ext_modules=[
        Extension(
            "skolem._fastsearch",
            ["src/skolem/_fastsearch.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
