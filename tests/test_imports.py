import ast
import sys
from pathlib import Path

import omstirap

#: the only dependencies: the standard library, numpy and scipy
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _imports() -> dict:
    """Module file name -> the top-level names of the modules it imports, the
    package's own (relative) imports left out."""
    found = {}
    for path in sorted(Path(omstirap.__file__).parent.glob("*.py")):
        names = found.setdefault(path.name, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return found


def test_the_package_imports_only_the_standard_library_numpy_and_scipy():
    found = _imports()
    assert {"numpy", "scipy"} <= set().union(*found.values())  # the walk sees the imports
    outside = {name: sorted(names - ALLOWED - {"omstirap"}) for name, names in found.items()}
    assert {name: names for name, names in outside.items() if names} == {}


def test_only_protocols_starts_worker_processes():
    pools = {name for name, names in _imports().items()
             if names & {"concurrent", "multiprocessing"}}
    assert pools == {"protocols.py"}
