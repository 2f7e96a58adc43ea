"""Fixtures shared by the test modules."""

import os

import pytest
from hypothesis import settings

import sdetci

# Property tests draw the same examples on every run and take no deadline:
# tier-1 stays reproducible, and a slow host does not fail an example.
settings.register_profile("sdetci", derandomize=True, deadline=None)
settings.load_profile("sdetci")


@pytest.fixture
def child_env():
    """Build the minimal environment for a ``python -m sdetci.cli`` child.

    Only ``PATH``, the given variables and one absolute ``PYTHONPATH`` entry
    reach the child, so no ambient setting can change its report.  The entry
    is the directory holding the imported ``sdetci`` package: the child runs
    the same package as the tests, whether it comes from ``src/`` or from an
    install, and from any working directory.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(sdetci.__file__)))

    def make(**extra):
        return {"PATH": "/usr/bin:/bin", "PYTHONPATH": root, **extra}

    return make
