"""The docs name only what exists.

Every ``repro.*`` name, ``Class.method`` name, repository path and
``REPRO_*`` variable that README.md, DESIGN.md or
``.claude/skills/verify/SKILL.md`` puts in backticks must resolve, as
must each module and script their command blocks run, so a rename or
deletion that leaves a doc behind fails here:

* a name imports, then resolves attribute by attribute;
* a ``Class.method`` name is an attribute of a class of that name
  defined in ``repro``;
* a path exists (relative to the repository, ``src/`` or
  ``src/repro/``), or it is a gitignored runtime file whose name code
  in ``src/``, ``benchmarks/`` or ``bench/`` spells out; a pytest node
  id's test names must be defined in its file;
* a variable is read in ``src/`` or ``bench/``.
"""

from __future__ import annotations

import fnmatch
import importlib
import importlib.util
import pkgutil
import re
from functools import cache
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
PATH_BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")
#: Code that may name a gitignored runtime file.
RUNTIME_NAMERS = ("src", "benchmarks", "bench")
#: Code that may read a ``REPRO_*`` variable.
VARIABLE_READERS = ("src", "bench")

_FENCE = re.compile(r"```.*?```", re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_REPRO_NAME = re.compile(r"repro(?:\.\w+)+")
_CLASS_ATTR = re.compile(r"([A-Z]\w*[a-z]\w*)\.(\w+)(?:\(.*\))?")
_PATH = re.compile(r"([\w.<>*-]+(?:/[\w.<>*-]+)*/?)((?:::\w+)*)")
_PATH_SUFFIXES = (".py", ".md", ".json", ".sqlite", ".toml", ".txt", ".yml")
_VARIABLE = re.compile(r"\bREPRO_\w+")
_MODULE_RUN = re.compile(r"python3? +-m +(repro(?:\.\w+)*)")
_SCRIPT_RUN = re.compile(r"python3? +([\w./-]+\.py)\b")


@cache
def _text(doc: str) -> str:
    return (ROOT / doc).read_text(encoding="utf-8")


def _inline_spans() -> list[tuple[str, str]]:
    """(doc, span) for every inline code span outside fenced blocks."""
    return [(doc, span) for doc in DOCS
            for span in _SPAN.findall(_FENCE.sub("", _text(doc)))]


def _fenced(pattern: re.Pattern) -> list[tuple[str, str]]:
    return [(doc, match) for doc in DOCS
            for block in _FENCE.findall(_text(doc))
            for match in pattern.findall(block)]


def _repro_names() -> list[tuple[str, str]]:
    return [(doc, span) for doc, span in _inline_spans()
            if _REPRO_NAME.fullmatch(span)]


def _class_attrs() -> list[tuple[str, str]]:
    found = []
    for doc, span in _inline_spans():
        match = _CLASS_ATTR.fullmatch(span)
        if match:
            found.append((doc, f"{match[1]}.{match[2]}"))
    return found


def _paths() -> list[tuple[str, str]]:
    found = []
    for doc, span in _inline_spans():
        match = _PATH.fullmatch(span)
        if match and ("/" in match[1] or match[1].endswith(_PATH_SUFFIXES)):
            found.append((doc, span))
    return found


def _variables() -> list[tuple[str, str]]:
    inline = [(doc, name) for doc, span in _inline_spans()
              for name in _VARIABLE.findall(span)]
    return inline + _fenced(_VARIABLE)


def resolves_name(dotted: str) -> bool:
    """Import the longest module prefix, then getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@cache
def _classes() -> dict[str, list[type]]:
    """Every class defined in ``repro``, by name (``__main__`` modules,
    which run a command when imported, are skipped)."""
    by_name: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == info.name:
                by_name.setdefault(name, []).append(value)
    return by_name


def resolves_class_attr(name: str) -> bool:
    class_name, attribute = name.split(".")
    return any(hasattr(cls, attribute)
               for cls in _classes().get(class_name, ()))


@cache
def _ignore_patterns() -> tuple[str, ...]:
    lines = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    return tuple(line.strip() for line in lines
                 if line.strip() and not line.startswith("#"))


def _ignored(path: str) -> bool:
    """Whether ``.gitignore`` covers ``path`` (relative to the root)."""
    parts = path.strip("/").split("/")
    for pattern in _ignore_patterns():
        pattern = pattern.strip("/")
        if "/" in pattern:
            if any(fnmatch.fnmatch("/".join(parts[:end]), pattern)
                   for end in range(1, len(parts) + 1)):
                return True
        elif any(fnmatch.fnmatch(part, pattern) for part in parts):
            return True
    return False


@cache
def _code(directories: tuple[str, ...]) -> str:
    return "\n".join(path.read_text(encoding="utf-8")
                     for directory in directories
                     for path in sorted((ROOT / directory).rglob("*.py")))


def _named_in_code(name: str) -> bool:
    code = _code(RUNTIME_NAMERS)
    return f'"{name}"' in code or f"'{name}'" in code


def resolves_path(span: str) -> bool:
    path, nodes = _PATH.fullmatch(span).groups()
    # A component such as ``<workload>`` is a placeholder: check the
    # path up to it.
    parts = path.split("/")
    for index, part in enumerate(parts):
        if "<" in part:
            path = "/".join(parts[:index]) + "/"
            break
    if "*" in path:
        return any(any(base.glob(path)) for base in PATH_BASES)
    candidates = [base / path for base in PATH_BASES]
    if "/" not in path:
        candidates += list((ROOT / "src").rglob(path))
    found = next((c for c in candidates if c.exists()), None)
    if found is None:
        name = path.rstrip("/").rsplit("/", 1)[-1]
        return _ignored(path) and _named_in_code(name) and not nodes
    if nodes:
        source = found.read_text(encoding="utf-8")
        return all(re.search(rf"^\s*(?:def|class) {node}\b", source, re.M)
                   for node in nodes.split("::")[1:])
    return True


def resolves_variable(name: str) -> bool:
    code = _code(VARIABLE_READERS)
    return f'"{name}"' in code or f"'{name}'" in code


def resolves_module_run(module: str) -> bool:
    spec = importlib.util.find_spec(module)
    if spec is None:
        return False
    if spec.submodule_search_locations is None:
        return True
    return importlib.util.find_spec(f"{module}.__main__") is not None


def _unresolved(found, check) -> list[tuple[str, str]]:
    return [(doc, item) for doc, item in found if not check(item)]


def test_repro_names_resolve():
    assert _unresolved(_repro_names(), resolves_name) == []


def test_class_attributes_resolve():
    assert _unresolved(_class_attrs(), resolves_class_attr) == []


def test_paths_exist_or_are_named_runtime_files():
    assert _unresolved(_paths(), resolves_path) == []


def test_variables_are_read():
    assert _unresolved(_variables(), resolves_variable) == []


def test_commands_run_what_exists():
    modules = _fenced(_MODULE_RUN)
    scripts = _fenced(_SCRIPT_RUN)
    assert _unresolved(modules, resolves_module_run) == []
    assert _unresolved(scripts, lambda path: (ROOT / path).is_file()) == []


def test_the_scan_sees_each_kind():
    """Guards the extraction itself: each kind is found, and known
    entries of each are among them."""
    assert ("DESIGN.md", "repro.vlsi.synthesis") in _repro_names()
    assert ("README.md", "CpiTable.populate") in _class_attrs()
    assert ("README.md", "benchmarks/test_bench_*.py") in _paths()
    assert any(name == "REPRO_WORKERS" for _doc, name in _variables())
    assert ("README.md", "repro.eval.report") in _fenced(_MODULE_RUN)
    assert ("README.md", "bench/run.py") in _fenced(_SCRIPT_RUN)


def test_the_checks_refuse_what_does_not_exist():
    assert resolves_name("repro.vlsi.synthesis.synthesize")
    assert not resolves_name("repro.vlsi.synthesis.no_such_function")
    assert not resolves_name("repro.no_such_module")
    assert resolves_class_attr("System.run")
    assert not resolves_class_attr("System.no_such_method")
    assert not resolves_class_attr("NoSuchClass.run")
    assert resolves_path("benchmarks/.cpi_cache.sqlite")
    assert not resolves_path("src/repro/no_such_module.py")
    # Ignored, but no code names it.
    assert not resolves_path("benchmarks/.no_such_cache.sqlite")
    assert resolves_path("tests/test_docs.py::test_variables_are_read")
    assert not resolves_path("tests/test_docs.py::test_no_such_test")
    assert resolves_variable("REPRO_WORKERS")
    assert not resolves_variable("REPRO_NO_SUCH_VARIABLE")
    assert not resolves_module_run("repro.vlsi")
