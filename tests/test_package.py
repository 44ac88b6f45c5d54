import types

import locrad


def test_all_lists_no_modules():
    modules = [
        name for name in locrad.__all__
        if isinstance(getattr(locrad, name), types.ModuleType)
    ]
    assert modules == []
