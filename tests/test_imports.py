"""Every name a module imports is used in that module, every parameter
of a package function is read in its body, every module-level
UPPER_CASE name the package assigns is read somewhere in the package,
every ``lru_cache`` of the package states a finite size, the package
reads one environment variable, ``PHONON_SENSOR_OUTDIR``, it starts no
thread, and it draws only from generators given a seed.

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


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[tuple[int, str]]:
    """(line, key) of each read of the process environment: ``os.environ``
    subscripted, called through a method or used whole, and ``os.getenv``,
    by those names or imported from ``os``.  The key is the subscript or
    the first argument when it is a string constant, else ``?``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "os"):
                continue
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name not in ENVIRONMENT:
            continue
        parent = parents.get(node)
        key = None
        if name.startswith("getenv") and isinstance(parent, ast.Call) and parent.func is node:
            key = parent.args[0] if parent.args else None
        elif isinstance(parent, ast.Subscript) and parent.value is node:
            key = parent.slice
        elif isinstance(parent, ast.Attribute) and isinstance(parents.get(parent), ast.Call):
            call = parents[parent]
            key = call.args[0] if call.func is parent and call.args else None
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            reads.append((node.lineno, key.value))
        else:
            reads.append((node.lineno, "?"))
    return sorted(reads)


# Settings come from the config file and the command line; the output
# directory override is the one read of the environment.
def test_environment_is_read_only_for_the_output_directory():
    reads = {path.name: environment_reads(path.read_text(encoding="utf-8")) for path in PACKAGE}
    keys = {name: [key for _, key in found] for name, found in reads.items() if found}
    assert keys == {"config.py": ["PHONON_SENSOR_OUTDIR"]}


def test_check_finds_an_environment_read():
    source = (
        "import os\n"
        "from os import environ, getenv\n"
        "a = os.environ.get('PHONON_SENSOR_OUTDIR', '.')\n"
        "b = os.environ['WORKERS']\n"
        "c = os.getenv('BATCH')\n"
        "d = getenv(name)\n"
        "e = environ.get('CHUNK')\n"
        "f = dict(os.environ)\n"
        "g = os.path.join('environ', 'getenv')\n"
    )
    assert environment_reads(source) == [
        (3, "PHONON_SENSOR_OUTDIR"),
        (4, "WORKERS"),
        (5, "BATCH"),
        (6, "?"),
        (7, "CHUNK"),
        (8, "?"),
    ]


THREAD_MODULES = {
    "threading",
    "_thread",
    "concurrent.futures.thread",
    "multiprocessing.dummy",
    "multiprocessing.pool",
}
THREAD_POOLS = {"ThreadPoolExecutor", "ThreadPool"}


def thread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import of a thread module (``threading``,
    ``_thread``, ``concurrent.futures.thread``, ``multiprocessing.dummy``
    or ``multiprocessing.pool``), whole or from, and of each import or
    attribute named ``ThreadPoolExecutor`` or ``ThreadPool``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if THREAD_MODULES & {node.module, name} or alias.name in THREAD_POOLS:
                    found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr in THREAD_POOLS:
            found.append((node.lineno, node.attr))
    return sorted(found)


# The campaigns' pool forks, and a fork copies no thread but the calling
# one, so the package starts none.
def test_package_imports_no_thread():
    found = {path.name: thread_imports(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_check_finds_a_thread_import():
    source = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor, ProcessPoolExecutor\n"
        "import concurrent.futures\n"
        "pool = concurrent.futures.ThreadPoolExecutor(2)\n"
        "from multiprocessing import dummy, get_context\n"
        "from multiprocessing.pool import Pool\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "import multiprocessing\n"
    )
    assert thread_imports(source) == [
        (1, "threading"),
        (2, "concurrent.futures.ThreadPoolExecutor"),
        (4, "ThreadPoolExecutor"),
        (5, "multiprocessing.dummy"),
        (6, "multiprocessing.pool.Pool"),
    ]


SEEDED = {"default_rng", "SeedSequence"}


def unseeded_draws(source: str) -> list[tuple[int, str]]:
    """(line, name) of each use of a ``numpy.random`` name other than a
    call of ``default_rng`` or ``SeedSequence`` with one argument that is
    not the literal ``None``.  The names are found as attributes of
    ``numpy.random`` under the aliases the source imports it by, or
    imported from it."""
    tree = ast.parse(source)
    numpy_aliases, random_aliases, imported = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    (random_aliases if alias.asname else numpy_aliases).add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.random"):
            for alias in node.names:
                if node.module == "numpy.random":
                    imported[alias.asname or alias.name] = alias.name
                elif alias.name == "random":
                    random_aliases.add(alias.asname or "random")
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            in_random = (isinstance(owner, ast.Name) and owner.id in random_aliases) or (
                isinstance(owner, ast.Attribute)
                and owner.attr == "random"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in numpy_aliases
            )
            if not in_random:
                continue
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported:
            name = imported[node.id]
        else:
            continue
        call = parents.get(node)
        if name in SEEDED and isinstance(call, ast.Call) and call.func is node:
            arguments = [*call.args, *(keyword.value for keyword in call.keywords)]
            if len(arguments) == 1 and not isinstance(arguments[0], ast.Starred):
                if not (isinstance(arguments[0], ast.Constant) and arguments[0].value is None):
                    continue
        found.append((node.lineno, name))
    return sorted(found)


# Every draw comes from a generator seeded from the config: global-state
# draws and streams seeded from entropy could not be reproduced from a run
# record.
def test_package_draws_only_from_seeded_generators():
    found = {path.name: unseeded_draws(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_check_finds_an_unseeded_draw():
    source = (
        "import numpy as np\n"
        "import numpy.random as npr\n"
        "from numpy.random import default_rng, normal as gauss\n"
        "a = np.random.default_rng(seed)\n"
        "b = np.random.SeedSequence(entropy=seed).spawn(2)\n"
        "c = np.random.default_rng()\n"
        "d = np.random.normal(0.0, 1.0)\n"
        "e = np.random.SeedSequence(None)\n"
        "f = npr.default_rng(1, 2)\n"
        "g = default_rng(*seeds)\n"
        "h = gauss(size=3)\n"
        "make = np.random.default_rng\n"
        "np.random.seed(5)\n"
        "k = other.random.normal()\n"
    )
    assert unseeded_draws(source) == [
        (6, "default_rng"),
        (7, "normal"),
        (8, "SeedSequence"),
        (9, "default_rng"),
        (10, "default_rng"),
        (11, "normal"),
        (12, "default_rng"),
        (13, "seed"),
    ]
