"""Every name the benchmark harness and the package export resolves.

The harness in ``perfbench/`` patches ``ldgcontrol`` entry points by name
(``perfbench/tracer.py``); it runs outside ``tests/``, so a deleted or
renamed entry point would otherwise go unnoticed until a traced run.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import ldgcontrol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_resolve(monkeypatch):
    # import the harness read-only: no bytecode cache is written next to it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    patches = tracer.Tracer().patches()
    assert patches
    for module, attr, _replacement in patches:
        assert module.__name__.startswith("ldgcontrol.")
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(ldgcontrol.__path__):
        module = importlib.import_module(f"ldgcontrol.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
