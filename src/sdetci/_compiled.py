"""scipy's compiled solvers, each loaded from its file alone, and the plain
CSC arrays they read.

``transport`` hands its LPs to the HiGHS core and its assignments to the
``_lsap`` solver, ``zvonkin`` its operators to SuperLU.  Loading one of
those extensions runs no ``__init__`` of its parent packages, and matrices
travel as ``_Csc`` arrays, so neither ``scipy.optimize`` nor ``scipy.sparse``
is imported.  Importing this module loads no scipy module.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import NamedTuple

import numpy as np


class _Csc(NamedTuple):
    """A sparse matrix as the arrays of its compressed columns, under
    ``scipy.sparse``'s names; ``csc_matrix(A[:3], shape=A.shape)`` wraps it."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _scipy_extension(name):
    """The compiled scipy module ``name``, loaded from its file alone.

    No parent package's ``__init__`` runs, so loading
    ``scipy.optimize._lsap`` does not import ``scipy.optimize``.  The module
    is registered under ``name``; one already there (loaded by
    ``scipy.optimize`` itself, say) is reused, since a second load of a
    pybind11 module would register its types again.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    root = scipy.submodule_search_locations[0]
    *package, leaf = name.split(".")[1:]
    path = os.path.join(root, *package, leaf + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no compiled {name} at {path}", name=name, path=path)
    loader = ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(name, loader, origin=path))
    loader.exec_module(module)
    sys.modules[name] = module
    return module
