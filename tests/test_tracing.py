"""The benchmark tracer (perfbench/tracing.py) finds every name it traces.

The tracer rebinds leobeam's functions by name from outside the package, so
a renamed or moved function would leave its span empty.  These tests load
the tracer from its file and change nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import leobeam
from leobeam.conic import ConeBlock, ConicProblem

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for _, modname, _, _ in module.TARGETS:
        importlib.import_module(modname)
    return module


def leobeam_bindings():
    """Every (namespace, name, value) of the loaded leobeam modules, with
    the class attributes the tracer may rebind."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname == "leobeam" or modname.startswith("leobeam."):
            for key, value in vars(mod).items():
                out.append((mod, key, value))
                if isinstance(value, type) and value.__module__ == modname:
                    out.extend((value, k, v) for k, v in vars(value).items())
    return out


def test_every_target_resolves(tracing):
    for _, modname, owner, attr in tracing.TARGETS:
        holder = getattr(sys.modules[modname], owner) if owner else sys.modules[modname]
        assert callable(getattr(holder, attr)), (modname, owner, attr)


def test_install_rebinds_every_target_and_uninstall_restores(tracing):
    before = leobeam_bindings()
    originals = []
    for _, modname, owner, attr in tracing.TARGETS:
        module = sys.modules[modname]
        originals.append(vars(getattr(module, owner))[attr] if owner else getattr(module, attr))
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        modules = [v for ns, _, v in leobeam_bindings() if isinstance(ns, type(leobeam))]
        for (name, modname, owner, attr), original in zip(tracing.TARGETS, originals):
            # A class attribute is rebound on its class; a function in every
            # leobeam module that holds it, so none holds it unwrapped.
            held = [vars(getattr(sys.modules[modname], owner))[attr]] if owner else modules
            assert any(getattr(v, "__wrapped__", None) is original for v in held), name
            assert not any(v is original for v in held), name
    finally:
        tracer.uninstall()
    after = leobeam_bindings()
    assert [(ns, key) for ns, key, _ in after] == [(ns, key) for ns, key, _ in before]
    assert all(a[2] is b[2] for a, b in zip(after, before))


def test_traced_solve_records_its_layers(tracing):
    # A tiny program over one orthant: min x1 s.t. x0 + x1 = 1, x >= 0.
    problem = ConicProblem(np.array([[1.0, 1.0]]), np.array([1.0]), [ConeBlock("nonneg", 2)])
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert leobeam.conic.solve(problem, np.array([0.0, 1.0])).status == "OPTIMAL"
    finally:
        tracer.uninstall()
    names = {span[2] for span in tracer.spans}
    assert {"conic.solve", "conic.nt_scaling", "conic.max_step"} <= names
