"""Every name a module imports is used in that module, every parameter
of a package function is read in its body, every module-level
UPPER_CASE name the package assigns is read somewhere in the package, and
every ``lru_cache`` of the package states a finite size.

The package's ``__init__.py`` imports names only to re-export them, so its
imports are not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for path in [*(ROOT / "src" / "phonon_sensor").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "phonon_sensor").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "import os\nimport math\nfrom json import dumps, loads\nprint(math.pi, dumps)\n"
    assert unused_imports(source) == ["os (line 1)", "loads (line 3)"]


def unused_parameters(source: str) -> list[str]:
    """Parameters of each function and lambda that its body never reads;
    an augmented assignment reads its target."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for sub in (sub for statement in body for sub in ast.walk(statement)):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                read.add(sub.target.id)
        name = getattr(node, "name", "lambda")
        unused += [f"{name}.{p.arg} (line {node.lineno})" for p in params if p.arg not in read]
    return unused


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_parameter():
    source = (
        "def f(a, b, *rest, c=1, **options):\n"
        "    b += 1\n"
        "    return [a for _ in rest]\n"
        "g = lambda x, y: x\n"
        "def h(self):\n"
        "    def inner(z):\n"
        "        return self\n"
        "    return inner\n"
    )
    assert unused_parameters(source) == [
        "f.c (line 1)",
        "f.options (line 1)",
        "lambda.y (line 4)",
        "inner.z (line 6)",
    ]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE names assigned in any of ``sources`` (name to
    source text) that none of them reads, by name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            unread += [
                f"{name}: {target.id} (line {node.lineno})"
                for target in targets
                if isinstance(target, ast.Name) and target.id.isupper() and target.id not in read
            ]
    return unread


def test_every_module_constant_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_constants(sources) == []


def test_check_finds_an_unread_constant():
    sources = {
        "a.py": "LIMIT = 3\nSTEP: int = 2\n_KEYS = ()\nname = 1\ndef f():\n    LOCAL = 1\n",
        "b.py": "from . import a\nSIZE = a.LIMIT\nprint(_KEYS, SIZE)\n",
    }
    assert unread_constants(sources) == ["a.py: STEP (line 2)"]


def unsized_caches(source: str) -> list[str]:
    """Each ``lru_cache``, by name or as ``functools.lru_cache``, that is
    not called with a positive int ``maxsize``, as a keyword or as its
    first argument: one of ``maxsize=None`` grows with every key, and a
    bare one leaves its size unstated."""
    tree = ast.parse(source)
    sized = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                if size[0].value > 0:
                    sized.add(id(node.func))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "lru_cache")
        or (isinstance(node, ast.Attribute) and node.attr == "lru_cache")
        if id(node) not in sized
    ]
    return [f"line {line}" for line in sorted(lines)]


# The caches are keyed by binning, amplitude and beams, so an unbounded one
# would grow with every histogram a library caller fits.
@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_cache_is_bounded(path):
    assert unsized_caches(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unbounded_cache():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(): pass\n"
        "@functools.lru_cache(4)\n"
        "def b(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def c(): pass\n"
        "@lru_cache\n"
        "def d(): pass\n"
        "e = lru_cache(maxsize=2)(object)\n"
        "f = functools.lru_cache()(object)\n"
    )
    assert unsized_caches(source) == ["line 7", "line 9", "line 12"]
