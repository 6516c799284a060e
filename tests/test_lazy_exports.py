"""The lazy-export contract every ``repro`` package keeps.

A package ``__init__`` declares, in one ``lazy_exports`` call, which
submodule defines each public name (see ``repro._lazy``). Whatever loads
the name first, the package must behave as if it had imported it eagerly.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.bench",
    "repro.community",
    "repro.core",
    "repro.datasets",
    "repro.graph",
    "repro.ml",
    "repro.obs",
    "repro.parallel",
    "repro.pipeline",
    "repro.resilience",
    "repro.tasks",
    "repro.viz",
    "repro.walks",
]


def declared_exports(package: str) -> dict[str, tuple[str, ...]]:
    """The submodule -> names mapping written in ``package``'s ``__init__``."""
    init = Path(importlib.util.find_spec(package).origin)
    (call,) = [
        node
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports"
    ]
    return ast.literal_eval(call.args[1])


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    for sub, names in declared_exports(package).items():
        module = importlib.import_module(f"{package}.{sub}")
        for name in names:
            value = getattr(pkg, name)
            assert value is getattr(module, name), f"{package}.{name}"
            defined_in = getattr(value, "__module__", None)
            if isinstance(defined_in, str) and defined_in.startswith("repro."):
                assert defined_in == module.__name__, f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        pkg.no_such_export
    assert not hasattr(pkg, "no_such_export")
    assert getattr(pkg, "no_such_export", None) is None
