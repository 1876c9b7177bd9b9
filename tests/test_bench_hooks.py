"""The benchmark's tracer can patch, and then restore, every hook it names.

``perfbench/tracing.py`` replaces functions under the names it looks them
up by (``hornwave.kernel.adaptive_quad``, ``hornwave.cli.ThreadPoolExecutor``
and others).  A renamed or deleted hook makes it raise ``KeyError`` on
entry; this catches that without running a workload.
"""

import importlib.util
import sys
from pathlib import Path

import hornwave
import hornwave.cli  # noqa: F401  (the tracer patches names in the cli module)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    tracer = _load_tracing(monkeypatch).Tracer(hornwave)
    with tracer:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    assert not tracer._patches
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
