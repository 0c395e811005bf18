"""The span tracer of the benchmark (perfbench/tracer.py) patches names the
package must keep: every target resolves, and uninstalling restores it."""

import importlib
import importlib.util
import os

from fixtures import GOLDEN

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, attr):
    """The function a target patches: a module function, a method, or a
    class constructor."""
    head, _, meth = attr.partition(".")
    obj = getattr(importlib.import_module(mod_name), head)
    if meth:
        return obj.__dict__[meth]
    return obj.__init__ if isinstance(obj, type) else obj


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    originals = [_resolve(m, a) for m, a, _span in tracer.TARGETS]
    t = tracer.Tracer()
    try:
        t.install()
        for (m, a, span), fn in zip(tracer.TARGETS, originals):
            assert _resolve(m, a).__wrapped__ is fn, span
        importlib.import_module("spinetorsion.spinefile").parse(GOLDEN)
    finally:
        t.uninstall()
    assert t.summary()["spinefile.parse"]["calls"] == 1
    assert [_resolve(m, a) for m, a, _span in tracer.TARGETS] == originals
