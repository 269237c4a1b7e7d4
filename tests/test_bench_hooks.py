"""The benchmark's traced functions all exist in ``hkr``.

``bench/tracer.py`` wraps functions by name through each owner's
``__dict__``; a rename in the library would make a traced benchmark run
fail at install time, so every name is resolved here the same way.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_resolves():
    tracer = _load_tracer()
    missing = []
    for mod_name, owner, attrs in tracer.SPANNED:
        mod = importlib.import_module("hkr." + mod_name)
        target = getattr(mod, owner) if owner else mod
        for attr in attrs:
            if not callable(target.__dict__.get(attr)):
                missing.append("%s.%s" % (mod_name, attr))
    Scalar = importlib.import_module("hkr.scalars").Scalar
    for attr in tracer.SCALAR_OPS:
        if not callable(Scalar.__dict__.get(attr)):
            missing.append("scalars.Scalar.%s" % attr)
    assert not missing
