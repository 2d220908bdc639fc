import ast
from pathlib import Path

import freecontract


def _imported_names() -> set[str]:
    tree = ast.parse(Path(freecontract.__file__).read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if node.module != "__future__"}


def test_every_exported_name_is_an_attribute():
    missing = [name for name in freecontract.__all__ if not hasattr(freecontract, name)]
    assert missing == []


def test_every_imported_name_is_exported():
    assert _imported_names() - set(freecontract.__all__) == set()


def test_star_import_runs():
    namespace: dict = {}
    exec("from freecontract import *", namespace)
    assert set(freecontract.__all__) <= set(namespace)


def test_export_list_has_no_duplicates():
    assert len(freecontract.__all__) == len(set(freecontract.__all__))
