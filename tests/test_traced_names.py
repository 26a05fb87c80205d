"""Every function the benchmark tracer wraps must exist under its name.

`perfbench/tracer.py` looks each `(module, qualname)` of `TRACED` up on the
`orevine` package when a traced run starts, so a rename in the package would
otherwise surface only as an AttributeError in `perfbench/run.py --trace 1`.
The tracer module is loaded from its file without writing its bytecode, so
`perfbench/` is only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return tracer.TRACED


@pytest.mark.parametrize("module,qualname", traced_names(),
                         ids=lambda name: name)
def test_traced_name_resolves(module, qualname):
    obj = importlib.import_module(f"orevine.{module}")
    for part in qualname.split("."):
        assert hasattr(obj, part), f"orevine.{module} has no {qualname}"
        obj = getattr(obj, part)
    assert callable(obj)
