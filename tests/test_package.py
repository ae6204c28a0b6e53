"""Package surface tests.

Core claims:
    - every name in ``recridge.__all__`` resolves and is listed once
"""

import recridge


def test_all_names_resolve_once():
    names = recridge.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(recridge, name)]
    assert not missing
