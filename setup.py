from setuptools import Extension, setup

# optional: without a C compiler the package still installs, and
# skolem.search runs the pure-Python kernel.
setup(
    ext_modules=[
        Extension(
            "skolem._fastsearch",
            ["src/skolem/_fastsearch.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
