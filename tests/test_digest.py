"""scripts/digest.py hashes every recorded field of fixed suite cells
(queries, verdicts, diagnostics, certificates, certified distances) for both
testers.  A refactor must leave both totals as pinned here; a change that
moves a query count, verdict or certificate updates the pin and says so."""

import importlib.util
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"

MONO_TEST_TOTAL = (
    "c96c31ead06e172902e6e58e8ac6dbd14ee54ad55401413a39b14f4ddb9383d4")
STAGED_TEST_TOTAL = (
    "3031cbb9754db15b267348c4537729a5af950b6bc5e3eb05e138c4c38f0cf8d1")


def test_digest_totals_pinned():
    spec = importlib.util.spec_from_file_location("digest_script", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.main() == (MONO_TEST_TOTAL, STAGED_TEST_TOTAL)
