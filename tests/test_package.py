"""The package namespace: every public name resolves lazily from its module."""

import ast
import importlib
from pathlib import Path

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


def test_no_module_imports_a_private_name_from_a_sibling():
    # a module reaches its siblings through their public names; dunders such as
    # __version__ are the package's own metadata, not private
    for source in sorted(Path(fracpath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "fracpath":
                continue
            private = [
                alias.name
                for alias in node.names
                if alias.name.startswith("_")
                and not (alias.name.startswith("__") and alias.name.endswith("__"))
            ]
            assert not private, f"{source.name}:{node.lineno} imports {private}"
