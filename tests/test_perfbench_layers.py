"""Every function the benchmark's tracer wraps must still exist.

``perfbench/tracer.py`` names public functions and methods of the package in
``LAYERS``; a traced run (``--trace 1``) crashes if one of them is renamed or
deleted.  This reads that table and resolves each entry the way the tracer
does, without installing anything.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for entries in load_layers().values():
        for (modname, qualname), _ in entries:
            owner = importlib.import_module(f"leibniz.{modname}")
            owner_name, _, attr = qualname.rpartition(".")
            try:
                if owner_name:
                    owner = getattr(owner, owner_name)
                inspect.getattr_static(owner, attr)
            except AttributeError:
                missing.append(f"{modname}.{qualname}")
    assert not missing, f"traced names missing from leibniz: {missing}"
