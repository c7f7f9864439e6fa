"""Every function the benchmark's tracer wraps still exists in hyperlat.

`hlbench/tracer.py` names its targets by module and attribute; a deletion
or rename in hyperlat would make `hlbench/run.py --trace 1` fail at install
time.  The tracer's source is read and executed into a namespace, so no
bytecode cache is written next to it, and it is never installed.
"""

import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "hlbench" / "tracer.py"
tracer = {"__name__": "hlbench_tracer"}
exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)


@pytest.mark.parametrize("mod_name, attr", [t[:2] for t in tracer["TARGETS"]])
def test_function_target_resolves(mod_name, attr):
    module = importlib.import_module("hyperlat." + mod_name)
    assert callable(getattr(module, attr, None)), f"hyperlat.{mod_name}.{attr}"


@pytest.mark.parametrize("mod_name, cls_name, method",
                         [t[:3] for t in tracer["METHOD_TARGETS"]])
def test_method_target_resolves(mod_name, cls_name, method):
    cls = getattr(importlib.import_module("hyperlat." + mod_name), cls_name, None)
    assert callable(getattr(cls, method, None)), f"hyperlat.{mod_name}.{cls_name}.{method}"
