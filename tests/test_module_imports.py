"""The package's modules use one another only through public names, and the
file rules do not depend on the synthetic world."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "attnalloc"


def _sibling_imports():
    """``(module, line, imported module, name)`` for every name that a module
    of the package imports from another of its modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "attnalloc"):
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    yield path.stem, node.lineno, source, alias.name


def test_no_module_imports_a_private_name_of_another():
    private = [f"{module}.py:{line}: {name} from {source or 'the package'}"
               for module, line, source, name in _sibling_imports() if name.startswith("_")]
    assert not private, "\n".join(private)


def test_file_rules_qoe_and_factor_model_do_not_import_the_world():
    world = [f"{module}.py:{line}" for module, line, source, name in _sibling_imports()
             if module in ("schema", "records", "qoe", "mf", "config")
             and "world" in (source, name)]
    assert not world, "\n".join(world)
