"""Every public name of the package is read by code outside the tests.

A stdlib ``ast`` scan in the style of ``test_options.py``: a name in the
``__all__`` list of ``kleinian`` or of any of its modules, and a public
method of any class of the package, must be read by some module of
``src/kleinian/`` or ``perfbench/``.  A read is a ``Name`` or
``Attribute`` load, an ``ImportFrom`` of the name, or a string constant
equal to it (the benchmark rebinds ``apex_products`` by name).  A read in
the module that defines the name counts; reads in ``__init__.py`` and in
any ``__all__`` list do not, since they only re-export.  A name nothing
reads is dead public surface: delete it with the tests that only
exercise it, or list it in ``TESTED_ONLY`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kleinian"
READERS = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")
)

# exported names that only the tests read, each with the reason it stays
TESTED_ONLY = {
    "chain_shadowing": "checks the chain-shadowing lemma on the package's step chains",
    "fellow_travel_check": "checks the fellow-travel lemma of Mj and Yang on geodesic pairs",
    "family_separation": "checks the family-injectivity lemma on a stage's truncated family",
    "gromov_product": "the coordinate Gromov product the word-level products are tested against",
}


def _all_lists(tree):
    """The values of every ``__all__ = [...]`` assignment in the tree."""
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            yield stmt.value


def read_names(source: str) -> set:
    """Names the module reads, outside its ``__all__`` lists."""
    tree = ast.parse(source)
    skip = {id(node) for value in _all_lists(tree) for node in ast.walk(value)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def public_names(source: str) -> list:
    """A module's ``__all__`` names and the public methods of its classes."""
    tree = ast.parse(source)
    names = [name for value in _all_lists(tree) for name in ast.literal_eval(value)]
    return names + [
        node.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def unread_exports(sources: list, readers: list) -> list:
    """Sorted public names of ``sources`` that no source in ``readers`` reads."""
    read = set().union(*(read_names(source) for source in readers))
    return sorted({name for source in sources for name in public_names(source)} - read)


def test_scan_sees_an_unread_export():
    init = (
        "from .m import f, g, h, k, K\n"
        "__all__ = ['f', 'g', 'h', 'k', 'K']\n"
        "f(g)\n"
    )
    module = (
        "__all__ = ['f', 'g', 'h', 'j', 'k', 'K']\n"
        "def f(x):\n    return k(x)\n"
        "def g():\n    pass\n"
        "def h():\n    pass\n"
        "def j():\n    pass\n"
        "def k(x):\n    return x\n"
        "class K:\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
    )
    readers = [module, "from pkg.m import h\nsetattr(obj, 'K', None)\nobj.used()\n"]
    assert unread_exports([init], readers) == ["f", "g"]
    # a module's own __all__ and its classes' public methods are scanned too
    assert unread_exports([init, module], readers) == ["f", "g", "j", "unused"]


def test_every_export_is_read_outside_the_tests():
    unread = unread_exports(
        [p.read_text() for p in sorted(PACKAGE.glob("*.py"))],
        [p.read_text() for p in READERS],
    )
    assert sorted(set(unread) - set(TESTED_ONLY)) == []
    # the table goes stale when one of its names gains a reader or leaves
    # the exports
    assert sorted(set(TESTED_ONLY) - set(unread)) == []
