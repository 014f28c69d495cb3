"""The package export list names only what resolves, each name once."""

import hdclab


def test_every_export_resolves_once_and_star_import_works():
    names = hdclab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(hdclab, name)] == []
    namespace = {}
    exec("from hdclab import *", namespace)
    assert set(names) <= set(namespace)
