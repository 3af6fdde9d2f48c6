"""The traced benchmark run rebinds program names from outside the program
(perfbench/tracing.py); each name it looks up must exist, or a traced run
dies at start-up while the untraced suite stays green."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("table", ["TRIAL_BINDINGS", "SETUP_BINDINGS"])
def test_every_traced_name_resolves(table):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = getattr(tracing, table)
    assert bindings
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _span, _payload in bindings
               if not hasattr(module, attr)]
    assert missing == []
