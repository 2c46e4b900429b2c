"""The package namespace: every public name resolves lazily from its module."""

import ast
import importlib
import re
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


def _hand_written_choice(test: ast.expr) -> bool:
    """``x not in (<constants>)`` or ``x != "<str>"``: an option check that
    ``errors.choice`` makes once, naming every option and the value."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return False
    (op,), (right,) = test.ops, test.comparators
    try:
        options = ast.literal_eval(right)  # -1 is no ast.Constant, but a literal
    except ValueError:
        return False
    if isinstance(op, ast.NotIn):
        return isinstance(right, (ast.Tuple, ast.List, ast.Set))
    return isinstance(op, ast.NotEq) and isinstance(options, str)


def test_every_option_check_goes_through_errors_choice():
    for source in sorted(Path(fracpath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                assert not _hand_written_choice(node.test), f"{source.name}:{node.lineno}"


# the knot cap, the ternary depth cap and the ends of float64
_SIZE_LIMITS = re.compile(r"\b(MAX_KNOTS|TERNARY_UNDERFLOW)\b|sys\.float_info\.max|math\.inf")


def _hand_written_size_check(test: ast.expr) -> bool:
    """A comparison, anywhere in ``test``, with a size limit: a check ``errors.real``
    makes once, as the size's ``hi``, naming the size, its range and the value."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            sides = [ast.unparse(side) for side in (node.left, *node.comparators)]
            if any(_SIZE_LIMITS.search(side) for side in sides):
                return True
    return False


def test_every_size_limit_goes_through_errors_real():
    for source in sorted(Path(fracpath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                assert not _hand_written_size_check(node.test), f"{source.name}:{node.lineno}"


# reductions over a mask, each a check ``errors.entries`` makes once
_MASK_REDUCTIONS = {"any", "all", "array_equal", "flatnonzero"}


def _hand_written_array_check(test: ast.expr, flat_names: set) -> bool:
    """``np.any``, ``np.all``, ``.any()``, ``.all()``, ``np.array_equal`` or
    ``flatnonzero`` called in ``test``, or a name bound to a ``flatnonzero(...)``
    result read there: a check of array entries that ``errors.entries`` makes once,
    naming the argument, the first failing index, the rule and the value."""
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MASK_REDUCTIONS:
                return True
        if isinstance(node, ast.Name) and node.id in flat_names:
            return True
    return False


def _flatnonzero_names(tree: ast.Module) -> set:
    """Every name a module binds to a ``flatnonzero(...)`` result."""
    return {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func).endswith("flatnonzero")
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def hand_written_array_checks(package: Path) -> list:
    """``module:line`` of every ``if`` that raises on a hand-written array check;
    the body of ``errors.entries``, the rule itself, is exempt."""
    found = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        flat_names = _flatnonzero_names(tree)
        for top in tree.body:
            if source.name == "errors.py" and getattr(top, "name", None) == "entries":
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.If):
                    continue
                raises = any(isinstance(s, ast.Raise) for b in node.body for s in ast.walk(b))
                if raises and _hand_written_array_check(node.test, flat_names):
                    found.append(f"{source.name}:{node.lineno}")
    return found


def test_every_array_check_goes_through_errors_entries():
    found = hand_written_array_checks(Path(fracpath.__file__).parent)
    assert not found, f"hand-written array checks at {found}"


def value_at_calls(package: Path) -> list:
    """``module:function:line`` of every ``.value_at(`` call, named by the
    top-level function or class that holds it."""
    found = []
    for source in sorted(package.glob("*.py")):
        for top in ast.parse(source.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "value_at":
                        found.append(f"{source.name}:{getattr(top, 'name', '')}:{node.lineno}")
    return found


def test_path_values_along_a_partition_are_read_in_one_place():
    # partitions.partition_values is the one lookup: knot reads and the
    # interpolant stay in step only while no other caller reaches value_at
    found = value_at_calls(Path(fracpath.__file__).parent)
    assert found and all(f.startswith("partitions.py:partition_values:") for f in found), found


def hand_written_key_refusals(source: Path) -> list:
    """``function:line`` of every ``if`` in ``source`` that tests membership (``in``,
    ``not in``) or identity (``is``) and raises right under it: a missing or unknown
    config key refused by hand. ``cli._fill`` and ``cli._require``, the two rules
    that refuse one, are exempt; an ``else`` that raises (a one-of rule) is not read."""
    found = []
    for top in ast.parse(source.read_text()).body:
        if getattr(top, "name", None) in ("_fill", "_require"):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                ops = [op for c in ast.walk(node.test) if isinstance(c, ast.Compare) for op in c.ops]
                if any(isinstance(op, (ast.In, ast.NotIn, ast.Is)) for op in ops):
                    found.append(f"{getattr(top, 'name', '')}:{node.lineno}")
    return found


def test_every_missing_or_unknown_config_key_goes_through_fill_or_require():
    found = hand_written_key_refusals(Path(fracpath.__file__).parent / "cli.py")
    assert not found, f"hand-written key refusals at {found}"
