"""Import layering of src/entwine, read from the source (AST only)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entwine"
# the mathematics; zoo (examples and files) and cli (front end) sit on top of it
CORE = ("linalg", "structures", "entwining", "homspace", "complexes", "compalg", "deform")


def _modules():
    return {path.stem: (path, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}


def _entwine_submodules(tree):
    """The entwine submodules named by any import, at module level or inside a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            targets = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.lstrip(".").split(".")
            if target.startswith("."):
                found.add(parts[0])
            elif parts[0] == "entwine" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_core_modules_do_not_import_zoo_or_cli():
    modules = _modules()
    upward = {name: sorted(_entwine_submodules(modules[name][1]) & {"zoo", "cli"}) for name in CORE}
    assert upward == {name: [] for name in CORE}


def _reexports(path, tree):
    """Names a module imports to pass on: listed in __all__, or imported by a
    statement marked re-export."""
    lines = path.read_text().splitlines()
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.ImportFrom) and "re-export" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_imported_name_is_used_or_reexported():
    unused = []
    for name, (path, tree) in _modules().items():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
            elif isinstance(node, ast.Import):
                bound.update({(alias.asname or alias.name).split(".")[0]: node.lineno for alias in node.names})
        keep = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _reexports(path, tree)
        unused += [f"{name}.py:{line} {imported}" for imported, line in bound.items() if imported not in keep]
    assert unused == []


def test_only_deform_draws_random_numbers():
    # the library's checks are exhaustive; deform's random_two_cochain is the one sampled draw
    drawing = sorted(name for name, (_, tree) in _modules().items() if "_rng" in _entwine_submodules(tree))
    assert drawing == ["deform"]


def test_numpy_random_and_unique_stay_out_of_the_package():
    # the sampled 2-cochain draws from entwine._rng, and np.unique loads numpy.ma
    uses = []
    for name, (_, tree) in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                uses += [f"{name}: import {alias.name}" for alias in node.names if alias.name.startswith("numpy.")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                uses.append(f"{name}: from {node.module}")
            elif isinstance(node, ast.Attribute) and node.attr in ("random", "unique"):
                if getattr(node.value, "id", None) in ("np", "numpy"):
                    uses.append(f"{name}: np.{node.attr}")
    assert uses == []


# the axiom validators decide on dense structure constants (structures._Exact)
VALIDATORS = {
    "structures": ["validate_algebra", "validate_coalgebra", "validate_bialgebra", "validate_antipode"],
    "entwining": ["check_bowtie"],
}
# map builders and Mat arithmetic; CheckReport.check compares (and subtracts) Mats
MAP_CALLS = {"kron", "tensor", "compose", "identity_map", "flip_map", "unit_map", "identity", "check", "Mat", "LinearMap"}


def _functions(tree):
    """Module-level functions and class methods by (qualified) name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)})
    return found


def _map_use_violations(where, func):
    """Calls of MAP_CALLS, and reads of a structure map's Mat (.mat, .unit) that are not
    arguments of structures._dense, which hands the validators its dense numerators."""
    parent = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
    bad = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in MAP_CALLS:
                bad.append(f"{where}:{node.lineno} calls {name}")
        elif isinstance(node, ast.Attribute) and node.attr in ("mat", "unit"):
            up = parent[node]
            if not (isinstance(up, ast.Call) and getattr(up.func, "id", None) == "_dense" and node in up.args):
                bad.append(f"{where}:{node.lineno} uses .{node.attr} as a Mat")
    return bad


def test_axiom_validators_do_no_mat_arithmetic():
    # each axiom is decided as products of dense arrays of the structure constants: the
    # validators, _Exact and CheckReport.check_exact call no kron, tensor or compose, build
    # no LinearMap or Mat, and read a structure map's Mat only to hand it to _dense
    modules = _modules()
    bad = []
    for name, wanted in VALIDATORS.items():
        functions = _functions(modules[name][1])
        bad += [v for f in wanted for v in _map_use_violations(f"{name}.{f}", functions[f])]
    helpers = _functions(modules["structures"][1])
    for qualified, func in helpers.items():
        if qualified.startswith("_Exact.") or qualified in ("_dense", "CheckReport.check_exact"):
            bad += _map_use_violations(f"structures.{qualified}", func)
    assert bad == []
