"""Tests for the loader of the two compiled scipy modules the solver calls."""

import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

from neckdown import _scipy
from neckdown._scipy import extension

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter, after `import neckdown` or before it; prints
# which kernels scipy's own import exposes, as attributes of its packages,
# as the very objects neckdown binds, and that scipy.linalg and
# scipy.sparse still work
IDENTITY_PROBE = """
import json, sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg, scipy.sparse
import neckdown
from neckdown import grid, linear
import numpy as np
import scipy.linalg, scipy.linalg.lapack, scipy.sparse, scipy.sparse._sparsetools
same = {
    "dgbsv": linear.dgbsv is scipy.linalg.lapack.dgbsv is scipy.linalg._flapack.dgbsv,
    "dgbcon": linear.dgbcon is scipy.linalg.lapack.dgbcon,
    "csr_matvec": grid.csr_matvec is scipy.sparse._sparsetools.csr_matvec,
    "csr_matvecs": grid.csr_matvecs is scipy.sparse._sparsetools.csr_matvecs,
}
x = scipy.linalg.solve(np.array([[4.0, 1.0], [2.0, 3.0]]), np.array([1.0, 2.0]))
y = scipy.sparse.csr_matrix(np.array([[0.0, 2.0], [3.0, 0.0]])) @ np.array([1.0, 1.0])
print(json.dumps([same, x.tolist(), y.tolist()]))
"""


@pytest.mark.parametrize("order", ["neckdown-first", "scipy-first"])
def test_kernels_are_scipys_own_objects_in_either_import_order(order):
    """The loader returns the module scipy's own import gives, so neckdown
    calls the very function objects that scipy.linalg.lapack and
    scipy.sparse expose, and both packages still work, whichever is
    imported first."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", IDENTITY_PROBE, order],
        env=env, capture_output=True, text=True, check=True,
    )
    same, x, y = json.loads(out.stdout)
    assert same == {"dgbsv": True, "dgbcon": True, "csr_matvec": True, "csr_matvecs": True}
    assert x == pytest.approx([0.1, 0.6])
    assert y == [2.0, 3.0]


def test_loader_names_a_missing_module_and_the_directory_searched():
    directory = Path(find_spec("scipy").submodule_search_locations[0], "linalg")
    with pytest.raises(ImportError) as exc:
        extension("linalg._no_such_module")
    assert "scipy.linalg._no_such_module" in str(exc.value)
    assert str(directory) in str(exc.value)
    assert exc.value.name == "scipy.linalg._no_such_module"


def test_loader_without_scipy_raises_import_error(monkeypatch):
    """With scipy not installed, loading a module neither loaded nor cached
    raises ImportError naming it, not an AttributeError on a missing spec."""
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
    monkeypatch.setattr(_scipy, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy\.sparse\._sparsetools.*not installed"):
        extension("sparse._sparsetools")
