"""The library names the benchmark harness looks up must all resolve.

The harness under ``perfbench/`` reaches the library by name: ``Tracer.install``
calls ``getattr(module, name)`` for every entry of ``SPANNED``, and the
workloads call ``cdgwl.<name>``.  A removed name would break only the slower
benchmark self-test, so these tests read both files with ``ast`` and look
every name up here.
"""

import ast
import importlib
from pathlib import Path

import cdgwl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text())


def test_traced_names_resolve():
    (spanned,) = (
        ast.literal_eval(node.value)
        for node in _parse("tracer.py").body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SPANNED"]
    )
    assert spanned
    for module_name, names in spanned.items():
        module = importlib.import_module(f"cdgwl.{module_name}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (module_name, missing)


def test_workload_names_resolve():
    names = {
        node.attr
        for node in ast.walk(_parse("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cdgwl"
    }
    assert names
    assert sorted(name for name in names if not hasattr(cdgwl, name)) == []
