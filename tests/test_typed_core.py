"""The typed-core gate (PR 2 satellite).

CI runs mypy over the typed scope (see ``[tool.mypy]`` in
pyproject.toml), but mypy is not available in the dev container — so
this test enforces the *presence* half of the contract locally: every
function in the typed core must carry complete parameter and return
annotations. mypy then checks *consistency* in CI. Either way, an
unannotated def cannot land.

The typed scope matches the mypy ``files`` list:

* ``repro/errors.py`` — the exception contract
* ``repro/seqlog.py`` — the change-feed primitive every layer holds
* ``repro/core/`` — server, query, cache, coverage, resilience, ...
* ``repro/analysis/`` — gupcheck itself practices what it preaches
* ``repro/obs/`` — spans, metrics registry, exporters (PR 4)
* ``repro/pxml/path.py`` and ``repro/pxml/evaluate.py`` — the
  path fragment and its evaluator, the vocabulary of every API
* ``repro/adapters/base.py`` — the adapter contract stores implement

Also asserts the PEP 561 ``py.typed`` marker is shipped so downstream
type checkers see the annotations at all.
"""

from __future__ import annotations

import ast
import os
import unittest
from typing import Iterator, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
PKG = os.path.join(SRC, "repro")

#: Directories included wholesale (recursively).
TYPED_DIRS = (
    "bus", "core", "analysis", "obs", "sansio", "serve", "sharding",
    "federation",
)
#: Individual modules included.
TYPED_FILES = (
    "errors.py",
    "seqlog.py",
    os.path.join("pxml", "path.py"),
    os.path.join("pxml", "evaluate.py"),
    os.path.join("adapters", "base.py"),
    os.path.join("stores", "sharded.py"),
)


def typed_scope() -> List[str]:
    """Absolute paths of every module in the typed core."""
    picked = []
    for sub in TYPED_DIRS:
        for root, dirs, files in os.walk(os.path.join(PKG, sub)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            picked.extend(
                os.path.join(root, name)
                for name in files
                if name.endswith(".py")
            )
    picked.extend(os.path.join(PKG, rel) for rel in TYPED_FILES)
    return sorted(picked)


def _functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _missing_annotations(fn: ast.FunctionDef) -> List[str]:
    """Names of unannotated parameters (plus '->return' when the
    return annotation is absent). Dunders other than __init__ are
    exempt — their signatures are fixed by the object protocol."""
    if (
        fn.name.startswith("__")
        and fn.name.endswith("__")
        and fn.name != "__init__"
    ):
        return []
    gaps = []
    arguments = fn.args
    positional = arguments.posonlyargs + arguments.args
    for index, arg in enumerate(positional + arguments.kwonlyargs):
        if index == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            gaps.append(arg.arg)
    if arguments.vararg is not None \
            and arguments.vararg.annotation is None:
        gaps.append("*" + arguments.vararg.arg)
    if arguments.kwarg is not None \
            and arguments.kwarg.annotation is None:
        gaps.append("**" + arguments.kwarg.arg)
    if fn.returns is None:
        gaps.append("->return")
    return gaps


class TestTypedCore(unittest.TestCase):
    def test_scope_is_nonempty(self) -> None:
        scope = typed_scope()
        self.assertGreater(len(scope), 20,
                           "typed scope unexpectedly small: %r" % scope)
        for path in scope:
            self.assertTrue(os.path.isfile(path), path)

    def test_every_def_fully_annotated(self) -> None:
        offenders: List[Tuple[str, int, str, List[str]]] = []
        for path in typed_scope():
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            rel = os.path.relpath(path, SRC)
            for fn in _functions(tree):
                gaps = _missing_annotations(fn)
                if gaps:
                    offenders.append((rel, fn.lineno, fn.name, gaps))
        if offenders:
            lines = "\n".join(
                "  %s:%d %s(): missing %s"
                % (rel, lineno, name, ", ".join(gaps))
                for rel, lineno, name, gaps in offenders
            )
            self.fail(
                "typed core has unannotated defs (mypy in CI would "
                "reject these under disallow_untyped_defs):\n" + lines
            )

    def test_py_typed_marker_shipped(self) -> None:
        marker = os.path.join(PKG, "py.typed")
        self.assertTrue(
            os.path.isfile(marker),
            "src/repro/py.typed missing — PEP 561 marker required for "
            "downstream type checkers",
        )

    def test_mypy_config_covers_scope(self) -> None:
        """The pyproject mypy section and this test must not drift
        apart: every entry this test walks appears in [tool.mypy]
        files."""
        pyproject = os.path.join(SRC, os.pardir, "pyproject.toml")
        with open(pyproject, "r", encoding="utf-8") as handle:
            text = handle.read()
        self.assertIn("[tool.mypy]", text)
        for needle in (
            "src/repro/errors.py",
            "src/repro/core",
            "src/repro/analysis",
            "src/repro/pxml/path.py",
            "src/repro/pxml/evaluate.py",
            "src/repro/adapters/base.py",
            "src/repro/sharding",
            "src/repro/stores/sharded.py",
        ):
            self.assertIn(needle, text,
                          "%s missing from [tool.mypy] files" % needle)
        self.assertIn("disallow_untyped_defs = true", text)


if __name__ == "__main__":
    unittest.main()
