"""The package's public names: each one in __all__ resolves, and only once.

Public functions live in submodules and the package re-exports them by
name, so when one moves between modules a stale or doubled entry in
__all__ fails here instead of at a user's import.
"""

from collections import Counter

import regionopt


def test_every_public_name_resolves_once():
    doubled = [name for name, count in Counter(regionopt.__all__).items() if count > 1]
    assert doubled == []
    missing = [name for name in regionopt.__all__ if not hasattr(regionopt, name)]
    assert missing == []
