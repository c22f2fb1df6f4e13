"""The benchmark's tracer still binds to every entry point it wraps.

perfbench/tracing.py wraps dynroute's functions, methods and autodiff
ops from outside, by name; a rename or deletion in src/ would break the
benchmark's per-layer run without failing any other test. This test
reads perfbench/ and does not change it.
"""

import importlib.util
from pathlib import Path

import dynroute.autodiff as ad

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install()  # getattr of every wrapped name: a missing one raises here
    patched = [(owner, attr, original) for owner, attr, original in tracer._patches]
    tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    for op in tracing.FWD_OPS:
        assert callable(getattr(ad, op))
