"""The public API: every exported name resolves and ``import *`` works."""

import cotwist


def test_every_exported_name_resolves():
    missing = [name for name in cotwist.__all__ if not hasattr(cotwist, name)]
    assert missing == []
    assert len(set(cotwist.__all__)) == len(cotwist.__all__)


def test_star_import():
    namespace = {}
    exec("from cotwist import *", namespace)
    assert set(cotwist.__all__) <= set(namespace)
