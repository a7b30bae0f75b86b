import ast
import sys
from pathlib import Path

import omstirap

#: the only dependencies: the standard library, numpy and scipy
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _imports() -> dict:
    """Module file name -> the dotted names it imports (``from a.b import c``
    gives ``a.b.c``), the package's own (relative) imports left out."""
    found = {}
    for path in sorted(Path(omstirap.__file__).parent.glob("*.py")):
        names = found.setdefault(path.name, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def _top_level() -> dict:
    """Module file name -> the top-level names of the modules it imports."""
    return {name: {dotted.partition(".")[0] for dotted in names}
            for name, names in _imports().items()}


def test_the_package_imports_only_the_standard_library_numpy_and_scipy():
    found = _top_level()
    assert {"numpy", "scipy"} <= set().union(*found.values())  # the walk sees the imports
    outside = {name: sorted(names - ALLOWED - {"omstirap"}) for name, names in found.items()}
    assert {name: names for name, names in outside.items() if names} == {}


def test_only_protocols_starts_worker_processes():
    pools = {name for name, names in _top_level().items()
             if names & {"concurrent", "multiprocessing"}}
    assert pools == {"protocols.py"}


def test_only_dynamics_imports_a_private_numpy_or_scipy_module():
    # _csr_product calls scipy.sparse._sparsetools to skip scipy's dispatch: a scipy
    # release that moves it should break this one known place
    private = {name: sorted(dotted for dotted in names
                            if dotted.partition(".")[0] in {"numpy", "scipy"}
                            and any(part.startswith("_") for part in dotted.split(".")))
               for name, names in _imports().items()}
    assert {name: found for name, found in private.items() if found} == {
        "dynamics.py": ["scipy.sparse._sparsetools"]}
