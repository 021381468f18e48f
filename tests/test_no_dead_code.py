"""Every function, class and method defined in src/shiftlab is named
somewhere other than its own definition, in the code of the Python files
under src, tests, bench and demos: a name in a docstring or a comment does
not count. Exempt are dunder methods, which Python calls, and
methods that override an attribute of a base class, which the base class
calls (for example an argparse parser's error). Every method and
property is also read as an attribute outside the tests. Every parameter
with a default is set at some call site. And no module but
__init__ imports a name it never uses, so a deletion leaves no stale
import behind. Every absolute import names a standard-library module, so
the package has no runtime dependency."""

from __future__ import annotations

import ast
import importlib
import math
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftlab"
SEARCHED = ("src", "tests", "bench", "demos")


def _definitions(node, module, owner=None):
    """(module, enclosing class or None, name) of every def and class
    under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield module, owner, child.name
            inner = child.name if isinstance(child, ast.ClassDef) else None
            yield from _definitions(child, module, inner)
        else:
            yield from _definitions(child, module, owner)


def _exempt(module, owner, name):
    if name.startswith("__") and name.endswith("__"):
        return True
    if owner is None:
        return False
    cls = getattr(importlib.import_module(f"shiftlab.{module}"), owner)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def _code(path):
    """The file's source without its comments and docstrings."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    return ast.unparse(tree)


def test_every_definition_is_named_elsewhere():
    defs = [d for path in sorted(PACKAGE.glob("*.py"))
            for d in _definitions(ast.parse(path.read_text()), path.stem)]
    text = "\n".join(_code(path)
                     for top in SEARCHED
                     for path in sorted((ROOT / top).rglob("*.py")))
    words = Counter(re.findall(r"\w+", text))
    defined = Counter(name for _, _, name in defs)
    dead = sorted(f"{module}.{owner + '.' if owner else ''}{name}"
                  for module, owner, name in defs
                  if words[name] <= defined[name]
                  and not _exempt(module, owner, name))
    assert not dead, "defined but never named: " + ", ".join(dead)


def test_every_member_is_read_as_an_attribute():
    """Every method and property of a class under src/shiftlab is read as
    .name somewhere in the Python files under src, bench and demos; a
    common name such as text or start counts only as an attribute read,
    not as a word. Dunders and base-class overrides are exempt."""
    read = {node.attr
            for top in ("src", "bench", "demos")
            for path in sorted((ROOT / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            unread += [f"{path.stem}.{cls.name}.{node.name}"
                       for node in cls.body
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       and node.name not in read
                       and not _exempt(path.stem, cls.name, node.name)]
    assert not unread, "never read as an attribute: " + ", ".join(unread)


def _defaulted_parameters(node, owner=None):
    """(function, parameter, callee, position) of every parameter with a
    default under node. The callee is the name a call site uses: the class
    for __init__, else the function. position counts the positional
    arguments a call passes before it, bound self or cls excluded, and is
    None for a keyword-only parameter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            callee = owner if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield child.name, arg.arg, callee, i - (owner is not None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield child.name, arg.arg, callee, None
            yield from _defaulted_parameters(child)
        else:
            yield from _defaulted_parameters(
                child, child.name if isinstance(child, ast.ClassDef)
                else owner)


def test_every_defaulted_parameter_is_set_somewhere():
    """Every parameter with a default, of a function or method under
    src/shiftlab, is set at some call of its name in the Python files
    under src, tests, bench and demos: by keyword, or by enough positional
    arguments. A call that spreads *args or **kwargs counts as setting
    every parameter of its kind. Calls match by name alone, so a name
    shared by two functions can hide one unused default; none is exempt."""
    keywords = {}
    positional = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                keywords.setdefault(name, set()).update(
                    kw.arg for kw in node.keywords)
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                positional[name] = max(positional[name], math.inf if spread
                                       else len(node.args))
    unset = [f"{path.stem}.{function}({parameter})"
             for path in sorted(PACKAGE.glob("*.py"))
             for function, parameter, callee, position
             in _defaulted_parameters(ast.parse(path.read_text()))
             if not ({parameter, None} & keywords.get(callee, set())
                     or position is not None
                     and positional[callee] > position)]
    assert not unset, "defaults no call site sets: " + ", ".join(unset)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module under src/shiftlab imports is read somewhere
    in it; only __init__ imports names to re-export them."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unused.append(f"{path.stem}.{name}")
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_package_imports_only_the_standard_library():
    """Every absolute import under src/shiftlab names __future__ or a
    module in sys.stdlib_module_names."""
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.stem}: {name}" for name in names
                        if name.partition(".")[0]
                        not in sys.stdlib_module_names]
    assert not foreign, "imports outside the standard library: " + \
        ", ".join(foreign)
