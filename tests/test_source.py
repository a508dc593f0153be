"""Checks on the package's own source text."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "eternal_kit"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # the package re-exports nothing, so an import that no name in the
    # module reads is left over from code that is gone
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_err_target_defaults_to_one_constant():
    # one default for every ray, sectorial and vertical alike: no function keeps
    # its own, and no leg runs at a fraction of the caller's err_target
    tree = ast.parse((SRC / "evolve.py").read_text())
    defaults = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args
            pairs = list(zip(args[len(args) - len(node.args.defaults):], node.args.defaults))
            pairs += zip(node.args.kwonlyargs, node.args.kw_defaults)
            defaults.update((node.name, ast.unparse(d)) for a, d in pairs if a.arg == "err_target")
    assert defaults == dict.fromkeys(
        ["_advance", "detect_blowup", "schrodinger_evolve", "heteroclinic_shoot", "analyticity_boundary"],
        "ERR_TARGET")

    cli = ast.parse((SRC / "cli.py").read_text())
    flags = [call for call in ast.walk(cli) if isinstance(call, ast.Call)
             and call.args and isinstance(call.args[0], ast.Constant) and call.args[0].value == "--err-target"]
    assert [ast.unparse(k.value) for call in flags for k in call.keywords if k.arg == "default"] == [
        "evolve.ERR_TARGET"] * 2

    for path in SRC.glob("*.py"):
        assert not re.search(r"err_target\s*/\s*10", path.read_text()), path.name
