"""Build the compiled module in place before any test imports skolem: the
search kernel, and the construction's folding and pair layout.

The suite imports skolem from src/, so the extension has to be built next
to its source.  setup.py marks it optional, so a failed compile only warns;
the fastsearch fixture turns that into a test failure that shows the
compiler output, never a skip.
"""

import gc
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BUILD_LOG = pytest.StashKey[str]()


def pytest_configure(config):
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    config.stash[BUILD_LOG] = proc.stdout + proc.stderr


@pytest.fixture(scope="session")
def fastsearch(request):
    """The compiled module; fails the test when it did not build."""
    from skolem.search import _fastsearch

    if _fastsearch is None:
        pytest.fail(
            "the compiled kernel did not build:\n" + request.config.stash[BUILD_LOG],
            pytrace=False,
        )
    return _fastsearch


@pytest.fixture
def routes(fastsearch, monkeypatch):
    """routes(build): build() on the compiled and on the pure construction
    route, in that order, each as the tuples of ints it returns with their
    element types, or as the exception's type and message."""
    import skolem.search

    def run(build):
        out = []
        for kernel in (fastsearch, None):
            monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
            try:
                pairs = build()
            except (ArithmeticError, TypeError, ValueError) as exc:
                out.append((type(exc), str(exc)))
            else:
                out.append((pairs, [type(el) for pair in pairs for el in pair]))
        return out

    return run


@pytest.fixture
def no_collection():
    """The cyclic GC off for the test.  A collection untracks a tuple of
    ints by itself, so a check that a call hands out untracked tuples must
    run with none in between."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
