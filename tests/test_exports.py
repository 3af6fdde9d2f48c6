"""`from monotest import *` and every documented package name must work
after a module is split, merged or deleted: a name left in `__all__` whose
import was dropped fails only when someone reaches for it."""

import monotest


def test_every_exported_name_resolves():
    missing = [name for name in monotest.__all__
               if not hasattr(monotest, name)]
    assert missing == []
