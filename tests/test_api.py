"""The package's public names: __all__ is the whole, exact export list."""

from __future__ import annotations

import teatpose


def test_all_sorted_and_unique():
    assert teatpose.__all__ == sorted(set(teatpose.__all__))


def test_every_name_resolves():
    missing = [n for n in teatpose.__all__ if not hasattr(teatpose, n)]
    assert missing == []


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from teatpose import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(teatpose.__all__)
