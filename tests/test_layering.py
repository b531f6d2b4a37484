"""Layering rules the reach-is-RPQ merge established, checked on the AST.

* The sharded handle holds no byte layouts: ``repro/sharding.py`` does
  not import ``repro.util.varint`` (every "GRPS" layout lives in
  ``repro.encoding.container``).
* The serving layer builds sharded handles through the public
  constructors: nothing under ``repro/serving/`` imports an underscore
  name from ``repro.sharding``.
* There is one boundary closure: ``repro.partition`` exports exactly
  one class whose name ends in ``Closure``.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import repro
import repro.partition

SRC = Path(repro.__file__).parent


def _imports(path):
    """``(module, name)`` for every import in a source file; ``name`` is
    ``None`` for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.extend((node.module, alias.name)
                         for alias in node.names)
    return found


def test_sharded_handle_imports_no_varint_codec():
    modules = {module if name is None else f"{module}.{name}"
               for module, name in _imports(SRC / "sharding.py")}
    assert not {m for m in modules
                if m.startswith("repro.util.varint")}


def test_serving_imports_no_private_sharding_names():
    private = [(path.name, name)
               for path in sorted((SRC / "serving").glob("*.py"))
               for module, name in _imports(path)
               if module == "repro.sharding" and name
               and name.startswith("_")]
    assert private == []


def test_partition_exports_one_closure_class():
    closures = [name for name in repro.partition.__all__
                if name.endswith("Closure")
                and inspect.isclass(getattr(repro.partition, name))]
    assert closures == ["BoundaryClosure"]
