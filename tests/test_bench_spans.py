"""The benchmark's spans resolve on qminor.

perfbench/tracing.py wraps each function of its SPANS table by module and
attribute path, and Tracer.install fails on a name that qminor no longer
has.  The table is read from the source, so the benchmark is not
imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spans():
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["SPANS"]):
            return ast.literal_eval(node.value)
    raise LookupError("no SPANS table in %s" % TRACING)


def test_every_traced_span_resolves_on_qminor():
    spans = _spans()
    assert spans
    for name, (modname, path) in spans.items():
        owner = importlib.import_module(modname)
        for part in path.split("."):
            assert hasattr(owner, part), (name, modname, path)
            owner = getattr(owner, part)
        assert callable(owner), name
