"""The package names that the benchmark's tracer and run script look up.

perfbench/tracing.py wraps functions by (module, attribute) and silently
skips a name that no longer exists, so a rename would zero a per-layer
metric without failing anything. This test fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# targets of layers the package no longer has; they record no calls
DEAD = {
    ("hbgraph.cli", "run_systolic"),
    ("hbgraph.engine", "unpack_registers"),
    ("hbgraph.engine", "pack_registers"),
}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = tracing
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.TARGETS]


# perfbench/run.py --trace 1 imports it to size a counter
@pytest.mark.parametrize("module, attr", _targets() + [("hbgraph.hll", "words_per_counter")])
def test_benchmark_hook_resolves(module, attr):
    if (module, attr) in DEAD:
        pytest.skip(f"{module}.{attr} is a known-dead target")
    assert callable(getattr(importlib.import_module(module), attr, None))
