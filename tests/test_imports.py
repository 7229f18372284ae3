"""Every name a package module imports is used in that module.

``__init__.py`` is left out: it imports names only to export them.
"""

import ast
import os

import shapewilf

PACKAGE = os.path.dirname(shapewilf.__file__)


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("import os\nfrom sys import argv, path as p\nprint(p)\n") == [
        "argv", "os",
    ]


def test_no_package_module_imports_a_name_it_does_not_use():
    modules = sorted(
        name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
    )
    assert "enumeration.py" in modules
    found = {}
    for name in modules:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            unused = unused_imports(handle.read())
        if unused:
            found[name] = unused
    assert found == {}
