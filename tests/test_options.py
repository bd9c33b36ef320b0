"""Every keyword option of the package is set by code outside the tests.

A stdlib ``ast`` scan in the style of ``test_imports.py``: a parameter
with a default, on a function or method of ``src/kleinian/``, must be set
by at least one call in ``src/kleinian/`` or ``perfbench/``.  So must a
``@dataclass`` field with a default (``init=False`` fields and
``ClassVar`` constants are not parameters), at a constructor call.  A
call sets a parameter when it passes it by keyword, or by position past
the required parameters.  Calls resolve by name, ``f(...)`` and ``x.f(...)``
alike; the benchmark's ``t.call(span, fn, *args, **kw)`` counts as a call
of ``fn``, and a call that unpacks ``**`` sets every option.  An option
that only the tests set is a constant in disguise: the tests monkeypatch
a module constant instead.  The lemma checks and oracles of
``test_exports.TESTED_ONLY`` have only the tests as callers, so their
options are exempt.
"""

import ast
from pathlib import Path

from test_exports import TESTED_ONLY

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kleinian"


def caller_paths(root: Path) -> list:
    """The modules whose calls count: the package's and the benchmark's."""
    package = sorted((root / "src" / "kleinian").glob("*.py"))
    return package + sorted((root / "perfbench").glob("*.py"))


def _is_dataclass(cls):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _fields(cls):
    """(init field names, names of those with a default) of a dataclass."""
    names, options = [], []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        ann = stmt.annotation
        if getattr(getattr(ann, "value", ann), "id", None) == "ClassVar":
            continue
        value = stmt.value
        keywords = {}
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if not {"default", "default_factory"} & keywords.keys():
                value = None
        names.append(stmt.target.id)
        if value is not None:
            options.append(stmt.target.id)
    return names, options


def _options(tree):
    """(function name, positional names, option names) of every def, and
    (class name, field names, option names) of every dataclass.

    The first parameter of a method is dropped, so positions count as
    they do at an ``x.f(...)`` call.
    """
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            yield cls.name, *_fields(cls)
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        n_required = len(positional) - len(a.defaults)
        options = positional[n_required:]
        options += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if id(node) in methods:
            positional = positional[1:]
        yield node.name, positional, options


def _calls(tree):
    """(called name, positional argument count, keywords, unpacks **)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "call" and isinstance(func, ast.Attribute) and len(args) >= 2:
            target = args[1]
            name = target.id if isinstance(target, ast.Name) else None
            args = args[2:]
        if name is None:
            continue
        starred = any(isinstance(x, ast.Starred) for x in args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        unpacks = any(k.arg is None for k in node.keywords)
        yield name, (float("inf") if starred else len(args)), keywords, unpacks


def unset_options(package: dict, callers: list) -> list:
    """Sorted (module, function, option) that no call sets.

    ``package`` maps a module name to its source; ``callers`` lists the
    sources whose calls count.
    """
    set_by = {}
    for source in callers:
        for name, n_args, keywords, unpacks in _calls(ast.parse(source)):
            set_by.setdefault(name, []).append((n_args, keywords, unpacks))
    unset = []
    for module, source in package.items():
        for name, positional, options in _options(ast.parse(source)):
            for option in options:
                at = positional.index(option) if option in positional else None
                if not any(
                    unpacks or option in keywords or (at is not None and at < n_args)
                    for n_args, keywords, unpacks in set_by.get(name, [])
                ):
                    unset.append((module, name, option))
    return sorted(unset)


def test_scan_sees_an_unset_option(tmp_path):
    source = (
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "class K:\n    def g(self, x, y=0, z=0):\n        pass\n"
        "def h(q=0):\n    pass\n"
        "def k(q=0):\n    pass\n"
        "def j(q=0):\n    pass\n"
        "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 0\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(init=False, default=0)\n"
        "    e: ClassVar[int] = 0\n    f: int = field(repr=False)\n"
        "    g: int = 0\n"
    )
    files = {
        "src/kleinian/m.py": source,
        "perfbench/run.py": (
            "f(0, 5, d=4)\nK().g(1, 2)\nopts = {}\nh(**opts)\n"
            "t.call('span', k, *rest)\nD(1, 2)\nD(0, f=1, g=2)\n"
        ),
        # an option that only a test sets is still unset
        "tests/test_m.py": "j(q=1)\nf(0, c=1)\nD(0, c=[])\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    callers = [p.read_text() for p in caller_paths(tmp_path)]
    assert unset_options({"m": source}, callers) == [
        ("m", "D", "c"),
        ("m", "f", "c"),
        ("m", "g", "z"),
        ("m", "j", "q"),
    ]


def test_every_option_is_set_by_a_call():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unset = unset_options(package, [p.read_text() for p in caller_paths(ROOT)])
    assert [u for u in unset if u[1] not in TESTED_ONLY] == []
