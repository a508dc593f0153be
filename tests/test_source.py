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


#: function.parameter of every parameter with a default, per module, when the
#: pin was set; a new one needs a caller outside the tests that sets it
SETTABLE = {
    "__init__.py": (),
    "cli.py": ("_positive_int.low", "main.argv"),
    "elliptic.py": ("default_truncation.tail_tol", "branch_point.tail_tol"),
    "errors.py": ("__init__.subsets",),
    "evolve.py": ("constant_field.N", "constant_field.theta", "cosine_field.N", "monochromatic_field.N",
                  "_advance.err_target", "_advance.norm_threshold", "_advance.on_accept",
                  "detect_blowup.norm_threshold", "detect_blowup.err_target",
                  "schrodinger_evolve.err_target", "heteroclinic_shoot.N", "heteroclinic_shoot.r_max",
                  "heteroclinic_shoot.err_target", "analyticity_boundary.r_cap",
                  "analyticity_boundary.err_target"),
    "portraits.py": ("ev.j",),
    "resonance.py": ("pythagorean_worst_cases.count",),
    "scalar_ode.py": ("integrate.t_eval_per_unit",),
    "spectrum.py": ("eigen.N", "homogeneous_spectrum.count", "homogeneous_spectrum.equilibrium"),
    "waves.py": ("soliton_poles.count",),
}


def _defaulted(tree):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args.posonlyargs + node.args.args
            named = args[len(args) - len(node.args.defaults):]
            named += [a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            out += [f"{getattr(node, 'name', '<lambda>')}.{a.arg}" for a in named]
    return out


def test_settable_values_do_not_grow():
    # an option that only tests set doubles the configurations to cover and
    # computes nothing the program uses: the per-module count may only fall
    assert sorted(p.name for p in SRC.glob("*.py")) == sorted(SETTABLE)
    for name, pinned in SETTABLE.items():
        found = _defaulted(ast.parse((SRC / name).read_text()))
        new = sorted(set(found) - set(pinned))
        assert len(found) <= len(pinned), (
            f"{name}: {len(found)} parameters with a default, pinned at {len(pinned)}; new: {new}. "
            "Name the caller outside tests that sets each to another value, or make it a constant")


#: public names no program code calls, each kept as the independent reference
#: a test compares other code against
REFERENCES = {
    "elliptic.rescale": "the exact scaling w -> m^2 w(m x) that branch m is checked against",
    "evolve.ComplexField.sup_norm": "the bit-exact sup norm that the batched history's sup is checked against",
    "portraits.ChordDiagram.rotate": "the rotation whose least code canonical_code is checked against",
    "portraits.chord_to_tree": "half of the tree-chord bijection that cross-checks the census",
    "portraits.tree_to_chord": "the other half of that bijection",
    "scalar_ode.quadratic_orbit": "the closed form -tanh t that integrate is checked against",
    "spectrum.assemble_operator": "the dense Galerkin matrix the eigen tests check for symmetry",
    "waves.soliton_poles": "the closed-form poles the soliton's pole guard is checked at",
}


def _mentions(tree):
    # every identifier the code reads or imports, and every string that is one
    # (bench/tracing.py names the functions it wraps by string)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller():
    # a public function, class, method or property that only tests reach is
    # dead code with a test around it; it needs a caller in src/, demos/ or
    # bench/, a README entry, or a place among the REFERENCES.  Names are
    # matched as words, so a member that shares its name with another is
    # taken as called
    root = SRC.parents[1]
    outside = set()
    for path in sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        outside |= _mentions(ast.parse(path.read_text()))
    readme = set(re.findall(r"\w+", (root / "README.md").read_text()))
    modules = {path.stem: ast.parse(path.read_text()).body for path in SRC.glob("*.py")}
    # what each top-level statement of src/ names, so a definition's own body
    # is left out; for members, each statement of a class body on its own
    tops = [node for body in modules.values() for node in body]
    named = [(node, _mentions(node)) for node in tops]
    named_in_class = [(m, _mentions(m)) for node in tops if isinstance(node, ast.ClassDef) for m in node.body]
    named_in_class += [(node, names) for node, names in named if not isinstance(node, ast.ClassDef)]
    public = []
    for stem, body in sorted(modules.items()):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((f"{stem}.{node.name}", node, named))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                public += [(f"{stem}.{node.name}.{m.name}", m, named_in_class) for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    uncalled = []
    for qualname, node, units in public:
        in_src = any(node.name in names for other, names in units if other is not node)
        if not (in_src or node.name in outside or node.name in readme):
            uncalled.append(qualname)
    assert sorted(uncalled) == sorted(REFERENCES), (
        f"no caller outside tests: {sorted(set(uncalled) - set(REFERENCES))}; "
        f"references that have one now: {sorted(set(REFERENCES) - set(uncalled))}")
