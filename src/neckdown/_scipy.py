"""The two compiled scipy modules the solver calls, without scipy's packages.

The solver calls four functions of scipy: LAPACK's dgbsv and dgbcon from
scipy.linalg._flapack, and the CSR kernels csr_matvec and csr_matvecs from
scipy.sparse._sparsetools.  Importing them by name would first run the
__init__ of scipy, scipy.linalg and scipy.sparse, which load 118 scipy
modules and, through scipy's array API layer, numpy.f2py, numpy.testing,
numpy.ma and numpy.random: most of the time and memory a fresh process
spends on `import neckdown`.  extension() loads one extension module from
its file under scipy's install directory with the import system's own
extension loader, and runs no package __init__.

A module that scipy's own import has already loaded is returned as it is.
Otherwise the loader leaves no entry in sys.modules: a later
`import scipy.sparse` then loads the submodule as its own, attribute on the
package included, and the interpreter's cache of initialized extension
modules gives it the very function objects loaded here.  (An entry left
there would keep scipy.sparse from ever gaining its _sparsetools
attribute.)
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path
from types import ModuleType


def extension(name: str) -> ModuleType:
    """The compiled module scipy.<name>, e.g. extension("linalg._flapack").

    ImportError names the module when scipy is not installed or when no
    compiled file for it is in its directory.
    """
    fullname = f"scipy.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    # find_spec of a top-level name imports nothing
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError(f"cannot load {fullname}: scipy is not installed", name=fullname)
    directory = Path(scipy.submodule_search_locations[0], *name.split(".")[:-1])
    finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(fullname)
    if spec is None:
        raise ImportError(f"no compiled module {fullname} in {directory}", name=fullname)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(fullname, None)
    return module
