"""Checks on the library source itself, with the standard library only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _unused_imports(path):
    """Names a module imports but never reads (names listed in __all__ count
    as read, since a package re-exports them)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(SRC)}:{line} {name}" for name, line in imported.items() if name not in read]


def test_src_has_no_unused_imports():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def test_cli_import_loads_no_sparse_graph_modules():
    """Importing the CLI must not pull in scipy.sparse: csgraph alone adds a
    tenth of a second or more to every fresh interpreter."""
    probe = (
        "import sys, pbgrid.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []


def test_only_planner_base_builds_outcomes():
    """Every run ends through planners/base.py: no other module calls PlanOutcome(...)."""
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "PlanOutcome":
                    callers.add(path.relative_to(SRC).as_posix())
    assert callers == {"pbgrid/planners/base.py"}


def test_metric_report_fields_are_the_aggregated_metrics():
    """The metric list is declared once: every MetricReport field but success
    is a key of the analyzer's metric-source table, and the table has no other."""
    metrics = ast.parse((SRC / "pbgrid" / "metrics.py").read_text())
    report = next(n for n in metrics.body if isinstance(n, ast.ClassDef) and n.name == "MetricReport")
    fields = {n.target.id for n in report.body if isinstance(n, ast.AnnAssign)} - {"success"}
    analyzer = ast.parse((SRC / "pbgrid" / "analyzer.py").read_text())
    table = next(
        n.value for n in analyzer.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "_METRIC_SOURCES"
    )
    assert fields == set(ast.literal_eval(table))


def test_no_module_rescans_argparse_options():
    """Flag precedence is argparse's alone: no module reads a parser's
    option-string table to decide a second time which flags were given."""
    readers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_option_string_actions"
    ]
    assert readers == []



def _times_a_run(node):
    """Whether an AST node imports time, checks a map's endpoints or sets a
    run's elapsed_seconds."""
    if isinstance(node, ast.Import):
        return any(alias.name == "time" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "time"
    if isinstance(node, ast.Call):
        return "require_endpoints" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    if isinstance(node, ast.Assign):
        return any(getattr(target, "attr", None) == "elapsed_seconds" for target in node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return getattr(node.target, "attr", None) == "elapsed_seconds"
    return False


def test_only_planner_base_times_runs():
    """One clock for every planner: under planners/, only base.py imports
    time, checks the endpoints or sets elapsed_seconds."""
    timers = {
        path.name
        for path in sorted((SRC / "pbgrid" / "planners").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _times_a_run(node)
    }
    assert timers == {"base.py"}


def _function(path, name):
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)


def _calls(node):
    return {
        getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def _names_strides(node):
    return any(
        getattr(n, "id", None) == "strides" or getattr(n, "attr", None) == "strides"
        for n in ast.walk(node)
    )


def test_one_rule_decodes_padded_flat_indices():
    """FlatGrid.to_cells and FlatCellSet decode through grid._decode, and no
    planner module divides a flat index by the strides itself."""
    grid = SRC / "pbgrid" / "grid.py"
    assert "_decode" in _calls(_function(grid, "FlatGrid"))
    assert "_decode" in _calls(_function(grid, "FlatCellSet"))
    decoders = []
    for path in sorted((SRC / "pbgrid" / "planners").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in ("divmod", "unravel_index")
                or getattr(node.func, "attr", None) in ("divmod", "unravel_index")
            ):
                decoders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.Mod)) and _names_strides(node):
                decoders.append(f"{path.name}:{node.lineno}")
    assert decoders == []


def test_graph_planners_and_d_sprm_return_the_flat_view():
    """Each of them hands SearchTrace a FlatCellSet, never a set of tuples."""
    planners = SRC / "pbgrid" / "planners"
    for path, name in [
        (planners / "graph.py", "astar"),
        (planners / "graph.py", "dijkstra"),
        (planners / "graph.py", "wavefront"),
        (planners / "sampling.py", "d_sprm"),
    ]:
        fn = _function(path, name)
        traces = [
            call for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "SearchTrace"
        ]
        assert len(traces) == 1, name
        explored = next(k.value for k in traces[0].keywords if k.arg == "explored")
        if isinstance(explored, ast.Name):  # bound to a local first
            explored = next(
                a.value for a in ast.walk(fn)
                if isinstance(a, ast.Assign) and getattr(a.targets[0], "id", None) == explored.id
            )
        assert isinstance(explored, ast.Call), name
        func = explored.func
        owner = func.id if isinstance(func, ast.Name) else getattr(func.value, "id", None)
        assert owner == "FlatCellSet", name
