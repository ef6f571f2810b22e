"""What ``src/mpo_tomo`` must hold: the names ``bench/`` binds, and nothing
that only the tests call or read."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mpo_tomo"
BENCH = ROOT / "bench"

# public top-level names that no other src code calls, and why each stays:
# only names bench/tracing.py wraps, until the bench drops their spans
# (ROADMAP item 2); anything else no command calls lives in tests/_oracles.py
KEPT_UNCALLED = {
    "mpo.matrix_element": "bench contract: bench/tracing.py wraps it (ROADMAP item 2)",
    "fitting.propagate_covariance": "bench contract: bench/tracing.py wraps it (ROADMAP item 2)",
}


# public methods and properties of public src classes that no other src
# statement reads, and why each stays
KEPT_UNREAD_MEMBERS = {
    "cluster.ErrorModel.uniform": "bench contract: bench/checks.py builds the configured truth with it",
}

# member names that several public src classes define: a read of the name
# counts for each of them, so each is listed here with where it is read
SHARED_MEMBER_NAMES = {}

# fields of public src dataclasses that no src statement reads, and why each stays
KEPT_UNREAD_FIELDS = {
    "entanglement.LeResult.branches_evaluated": "bench contract: bench/tracing.py::_branches reads it (ROADMAP item 2)",
    "reconstruct.InversionResult.column_residuals": "acceptance criterion 2 reads it (tests/test_acceptance.py)",
}

# field names that several public src dataclasses define: a read of the name
# counts for each of them, so each is listed here with where it is read
SHARED_FIELD_NAMES = {
    "mpo": "FitResult.mpo in cli.cmd_analyze, InversionResult.mpo in fitting.fit_chain",
}


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names(tree) -> set:
    """Every name an AST reads, as a bare name or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _attribute_chain(node):
    """``("a", "b", "c")`` for the expression ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(parts))


def test_tracing_targets_resolve():
    tracing = _load_bench_module("tracing")
    for module, attr, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(f"mpo_tomo.{module}"), attr, None)
        assert callable(target), f"bench/tracing.py wraps mpo_tomo.{module}.{attr}"
    commands = importlib.import_module("mpo_tomo.cli")._COMMANDS
    assert isinstance(commands, dict) and all(callable(fn) for fn in commands.values())


def test_every_exit_reason_is_one_the_bundle_loader_accepts():
    # reconstruct writes the fit's exit reason to fit_report.json, and
    # load_fit_bundle accepts only fitting._EXIT_REASONS there
    tree = ast.parse((SRC / "fitting.py").read_text())
    (fit,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "gauss_newton_fit"]
    values = []
    for node in ast.walk(fit):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        else:
            continue
        if any("exit_reason" in _names(t) for t in targets):
            values.append(node.value)
    assert values and all(isinstance(v, ast.Constant) for v in values), "assign exit_reason only constants"
    reasons = {v.value for v in values if v.value is not None}
    assert reasons == set(importlib.import_module("mpo_tomo.fitting")._EXIT_REASONS)


def test_only_the_pass_solver_factors_jtwj():
    # a pass's eigenpairs are fitting._PassSolver's alone: the fit loop asks
    # it for steps, the decrement and the covariance factor
    tree = ast.parse((SRC / "fitting.py").read_text())
    (solver,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_PassSolver"]
    calls = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and "eigh" in (getattr(n.func, "attr", None), getattr(n.func, "id", None))
    ]
    assert [_attribute_chain(n.func) for n in calls] == [("np", "linalg", "eigh")], "one eigh in fitting.py"
    assert any(n is calls[0] for n in ast.walk(solver)), "the eigh belongs to _PassSolver"
    (fit,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "gauss_newton_fit"]
    eigen_names = {"evecs", "evals", "live", "scale", "gproj", "cproj"}
    assert _names(fit) & eigen_names == set(), "the fit loop handles no eigenpair"


def test_one_sweep_and_its_reverse():
    # a right product is the left sweep of the mirrored chain (bond axes
    # swapped, sites reversed), so src defines one forward sweep and its
    # reverse, both in mpo, and no module defines or names a right sweep
    defined, named = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {
            f"{path.stem}.{n.name}"
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and "environment" in n.name.lower()
        }
        named |= {f"{path.stem}:{name}" for name in _names(tree) if re.search("right_?env", name, re.I)}
    assert defined == {"mpo.left_environments", "mpo.left_environments_vjp"}, "one sweep helper and its reverse"
    assert named == set(), "a right product is left_environments over the mirrored chain"


def test_kept_uncalled_is_only_the_bench_contract():
    targets = {f"{module}.{attr}" for module, attr, _ in _load_bench_module("tracing").TARGETS}
    assert set(KEPT_UNCALLED) <= targets, "keep in src only the uncalled names bench/tracing.py wraps"


def test_bench_reads_of_results_resolve(noisy5, noisy5_fit_chain):
    # bench/tracing.py's span info hooks read the arguments and results of
    # the calls they wrap; each hook runs here on the real objects
    import numpy as np

    from mpo_tomo.correlations import moments_to_zshifted
    from mpo_tomo.entanglement import localizable_entanglement
    from mpo_tomo.fitting import _FitPlan, _Point, _window_values_jacobian
    from mpo_tomo.measurement import synthesize_dataset
    from mpo_tomo.standard_form import pack

    tracing = _load_bench_module("tracing")
    estimate, _, fit = noisy5_fit_chain
    table = synthesize_dataset(noisy5, 5, 1.0, 10**7, seed=11)
    data = moments_to_zshifted(table)
    assert tracing._rows((), table) == {"rows": 6**5}
    assert tracing._max_bond((), estimate) == {"max_bond": 4}
    assert tracing._gn((fit.mpo, data), fit) == {
        "iterations": fit.iterations,
        "n_params": fit.covariance.shape[0],
        "rows": 4**5 - 1,
    }
    plan = _FitPlan(fit.mpo, 5)
    point = _Point(plan, pack(fit.mpo.tensors, plan.masks))
    assert tracing._jacobian_flag((), _window_values_jacobian(point)) == {"jacobian": False}
    hess = _window_values_jacobian(point, np.ones((1, 4**5)))[1]
    assert isinstance(hess, np.ndarray)
    assert tracing._jacobian_flag((), (None, hess)) == {"jacobian": True}
    le = localizable_entanglement(fit.mpo, (1, 5))
    assert tracing._branches((), le) == {"branches": 2**3}


def test_only_fitting_reads_the_fit_statistics():
    # how the covariance is stored and packed is fitting's alone: every other
    # module hands it per-site gradients (fitting.propagate_joint)
    readers = {
        f"{path.stem}:{node.lineno}"
        for path in SRC.glob("*.py")
        if path.stem != "fitting"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("covariance", "masks")
    }
    assert readers == set(), "read the fit's covariance and masks only in fitting.py"


@pytest.mark.parametrize("script", ["checks.py", "traced_cli.py"])
def test_bench_names_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mpo_tomo":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{script} imports {node.module}.{alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    assert bound, f"{script} imports nothing from mpo_tomo"
    for node in ast.walk(tree):
        chain = _attribute_chain(node)
        if chain is None or chain[0] not in bound:
            continue
        obj = bound[chain[0]]
        for part in chain[1:]:
            assert hasattr(obj, part), f"{script} uses {'.'.join(chain)}"
            obj = getattr(obj, part)


def test_src_holds_only_what_the_pipeline_runs():
    # the names each top-level statement of src reads; the package's
    # exports do not count as a use
    statements = [
        (module, node, _names(node))
        for module in (p for p in SRC.glob("*.py") if p.stem != "__init__")
        for node in ast.parse(module.read_text()).body
    ]
    uncalled = {
        f"{module.stem}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for _, other, names in statements if other is not node)
    }
    assert uncalled - set(KEPT_UNCALLED) == set(), "move test-only functions to tests/_oracles.py"
    assert set(KEPT_UNCALLED) - uncalled == set(), "drop names from KEPT_UNCALLED that src calls"


def test_src_classes_hold_only_what_the_pipeline_reads():
    # a member counts as read when some src attribute read outside its own
    # body names it (``obj.name``, ``Class.name``)
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}
    members = {}
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    members.setdefault(node.name, []).append((f"{module}.{cls.name}.{node.name}", node))
    unread = set()
    for name, defs in members.items():
        own = {id(n) for _, node in defs for n in ast.walk(node)}
        if not any(
            isinstance(n, ast.Attribute) and n.attr == name and id(n) not in own
            for tree in trees.values()
            for n in ast.walk(tree)
        ):
            unread.update(qualified for qualified, _ in defs)
    assert unread - set(KEPT_UNREAD_MEMBERS) == set(), "delete class members only tests read"
    assert set(KEPT_UNREAD_MEMBERS) - unread == set(), "drop members from KEPT_UNREAD_MEMBERS that src reads"
    shared = {name for name, defs in members.items() if len(defs) > 1}
    assert shared == set(SHARED_MEMBER_NAMES), "a shared member name hides an unread twin"


def _is_dataclass(cls) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def test_src_dataclass_fields_are_read():
    # a field counts as read when some src attribute load names it, its own
    # class's methods included, or when its own module names it in a string
    # constant, as fitting.fit_record reads the fit by key
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}
    fields = {}
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_") or not _is_dataclass(cls):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    fields.setdefault(node.target.id, []).append((f"{module}.{cls.name}.{node.target.id}", module))
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    keys = {
        module: {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for module, tree in trees.items()
    }
    unread = {
        qualified
        for name, defs in fields.items()
        for qualified, module in defs
        if name not in read and name not in keys[module]
    }
    assert unread - set(KEPT_UNREAD_FIELDS) == set(), "delete result fields that no src code reads"
    assert set(KEPT_UNREAD_FIELDS) - unread == set(), "drop fields from KEPT_UNREAD_FIELDS that src reads"
    shared = {name for name, defs in fields.items() if len(defs) > 1}
    assert shared == set(SHARED_FIELD_NAMES), "a shared field name hides an unread twin"
