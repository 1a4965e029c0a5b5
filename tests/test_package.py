import ast
import inspect

import prbench as pb


def test_export_list_matches_imports():
    # every exported name resolves, and every public name the package
    # imports is exported
    missing = [name for name in pb.__all__ if not hasattr(pb, name)]
    assert not missing
    tree = ast.parse(inspect.getsource(pb))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unexported = {name for name in imported if not name.startswith("_")} - set(pb.__all__)
    assert not unexported
