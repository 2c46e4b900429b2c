"""The package namespace: every public name resolves lazily from its module."""

import importlib

import pytest

import fracpath


def test_every_exported_name_resolves_to_its_module_object():
    assert fracpath.__all__ == sorted(set(fracpath.__all__))
    for name in fracpath.__all__:
        module = importlib.import_module(f"fracpath.{fracpath._EXPORTS[name]}")
        assert getattr(fracpath, name) is getattr(module, name)
        # resolved on access, never cached into the package namespace
        assert name not in vars(fracpath)
    assert set(fracpath.__all__) <= set(dir(fracpath))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fracpath import *", namespace)
    assert set(fracpath.__all__) <= set(namespace)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        fracpath.no_such_name
