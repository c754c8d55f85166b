"""Config's table of section keys and the code that reads the sections agree:
every key a suite runner reads from its section is one the parser admits, and
every key the parser admits is read somewhere."""

import ast
from pathlib import Path

from gbdsde.catalog import _ROLES
from gbdsde.config import SECTION_KEYS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gbdsde"


def _str(node) -> str | None:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _keyed(node):
    """(receiver, key) of ``receiver.get("key", ...)`` or ``receiver["key"]``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args and _str(node.args[0])):
        return node.func.value, _str(node.args[0])
    if isinstance(node, ast.Subscript) and _str(node.slice):
        return node.value, _str(node.slice)
    return None


def _section_of(node) -> str | None:
    """The section name of ``config.options.get("section", ...)``."""
    keyed = _keyed(node)
    if keyed and isinstance(keyed[0], ast.Attribute) and keyed[0].attr == "options":
        return keyed[1]
    return None


def _runner_reads() -> dict[str, set[str]]:
    """The keys suites.py reads per option section: off a name bound to the
    section, off the section expression itself, and off the parameter of a
    module function the bound name is passed to."""
    tree = ast.parse((PACKAGE / "suites.py").read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def reads_of(fn, name):
        return {keyed[1] for node in ast.walk(fn) if (keyed := _keyed(node))
                and isinstance(keyed[0], ast.Name) and keyed[0].id == name}

    reads: dict[str, set[str]] = {}
    for fn in functions.values():
        bound = {node.targets[0].id: section for node in ast.walk(fn)
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and (section := _section_of(node.value))}
        for node in ast.walk(fn):
            keyed = _keyed(node)
            if keyed and (section := _section_of(keyed[0])):
                reads.setdefault(section, set()).add(keyed[1])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in functions:
                params = functions[node.func.id].args.args
                for arg, param in zip(node.args, params):
                    if isinstance(arg, ast.Name) and arg.id in bound:
                        reads.setdefault(bound[arg.id], set()).update(
                            reads_of(functions[node.func.id], param.arg))
        for name, section in bound.items():
            reads.setdefault(section, set()).update(reads_of(fn, name))
    return reads


def _string_reads(tree: ast.Module) -> set[str]:
    """Strings a module reads as keys: ``.get("k")``, ``x["k"]``, ``"k" in x``,
    or passed to a call (a helper that reads ``spec[name]``)."""
    found = set()
    for node in ast.walk(tree):
        if keyed := _keyed(node):
            found.add(keyed[1])
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In) \
                and _str(node.left):
            found.add(_str(node.left))
        elif isinstance(node, ast.Call):
            found.update(s for arg in node.args if (s := _str(arg)))
    return found


def test_runner_keys_are_in_the_table_and_the_table_is_read():
    reads = _runner_reads()
    assert reads, "no option section read found in suites.py"
    for section, keys in reads.items():
        assert section in SECTION_KEYS, f"suites.py reads unknown section {section!r}"
        assert keys == set(SECTION_KEYS[section]), (
            f"{section}: read but not admitted {sorted(keys - set(SECTION_KEYS[section]))}, "
            f"admitted but not read {sorted(set(SECTION_KEYS[section]) - keys)}")


def test_every_parser_section_key_is_read():
    # the sections no runner reads are read by the parser and the builders it
    # calls; the problem's coefficients in a loop over catalog's roles
    runner_sections = set(_runner_reads())
    read = set(_ROLES)
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name == "config.py":
            # the table itself is not a read
            tree.body = [node for node in tree.body if not (
                isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "SECTION_KEYS")]
        read |= _string_reads(tree)
    for section, keys in SECTION_KEYS.items():
        if section not in runner_sections:
            assert set(keys) <= read, f"{section}: never read {sorted(set(keys) - read)}"
