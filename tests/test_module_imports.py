"""The package's modules use one another only through public names, the
file rules do not depend on the synthetic world, ``schema`` is the one
module that opens a file or formats JSON or spells the integer rule or
names a file in a fault, and every public rule it defines is used by
another module."""

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


def test_every_public_schema_name_is_used_by_another_module():
    # a rule that only schema itself reads should be private to it, and one
    # that nothing reads should go
    tree = ast.parse((PACKAGE / "schema.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    used = {name for module, _, source, name in _sibling_imports()
            if source == "schema" and module != "schema"}
    for path in sorted(PACKAGE.glob("*.py")):  # "from . import schema", then schema.name
        if path.stem != "schema":
            used |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "schema"}
    unused = sorted(name for name in defined - used if not name.startswith("_"))
    assert not unused, ", ".join(unused)


def test_file_rules_qoe_and_factor_model_do_not_import_the_world():
    world = [f"{module}.py:{line}" for module, line, source, name in _sibling_imports()
             if module in ("schema", "records", "qoe", "mf", "config")
             and "world" in (source, name)]
    assert not world, "\n".join(world)


def _file_format_uses():
    """``(module, line, what)`` for every ``open`` call and every import of
    ``json`` or ``csv`` in the package's modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [(node.module or "").split(".")[0]]
            elif isinstance(node, ast.Call):
                func = node.func
                names = ["open"] if (isinstance(func, ast.Name) and func.id == "open"
                                     or isinstance(func, ast.Attribute)
                                     and func.attr == "open") else []
            else:
                continue
            for name in names:
                if name in ("open", "json", "csv"):
                    yield path.stem, node.lineno, name


def test_only_schema_opens_files_or_formats_json():
    # the records reader's csv.reader fallback is the one other file-format use
    allowed = {"open": {"schema"}, "json": {"schema"}, "csv": {"records"}}
    stray = [f"{module}.py:{line}: {what}" for module, line, what in _file_format_uses()
             if module not in allowed[what]]
    assert not stray, "\n".join(stray)


def test_only_schema_spells_the_value_rules():
    # the integer rule (integer_type, integer_ids) and the finite-real rule
    # (field_rule) have one home, so no copy of them drifts into a cast
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "schema":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "integer" \
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                stray.append(f"{path.stem}.py:{node.lineno}: np.integer")
            elif isinstance(node, ast.Import) and "numbers" in (a.name for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers":
                stray.append(f"{path.stem}.py:{node.lineno}: numbers")
    assert not stray, "\n".join(stray)


def test_only_schema_names_a_file_in_a_fault():
    # schema.naming puts the path before a fault, so no other f-string
    # starts with "{path}:"
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "schema":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr) and len(node.values) > 1:
                first, second = node.values[:2]
                if isinstance(first, ast.FormattedValue) and isinstance(first.value, ast.Name) \
                        and first.value.id == "path" and isinstance(second, ast.Constant) \
                        and second.value.startswith(":"):
                    stray.append(f"{path.stem}.py:{node.lineno}")
    assert not stray, "\n".join(stray)
