"""scripts/digest.py hashes every recorded field of fixed suite cells
(queries, verdicts, diagnostics, certificates, certified distances) for both
testers.  A refactor must leave both totals as pinned here; a change that
moves a query count, verdict or certificate updates the pin and says so."""

import importlib.util
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"

MONO_TEST_TOTAL = (
    "8285f64c0188d08b1e172dcd1544eb58f241551cad1d80c2a264cf42e000adb1")
STAGED_TEST_TOTAL = (
    "c84496a0bd555536386b608aed1a1b7eb1df1430a8da871eab9c15082c0dd134")


def test_digest_totals_pinned():
    spec = importlib.util.spec_from_file_location("digest_script", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.main() == (MONO_TEST_TOTAL, STAGED_TEST_TOTAL)
