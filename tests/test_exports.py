import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import labelsim
from labelsim import cli, estimators, montecarlo, semiparam, theory

MODULES = ("links", "datagen", "estimators", "theory", "semiparam", "montecarlo")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"labelsim.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    # every public name of the package is listed in the __all__ of the
    # module it comes from, so a pruned name cannot linger in either place
    exported = set().union(*(importlib.import_module(f"labelsim.{name}").__all__
                             for name in MODULES))
    public = {n for n in vars(labelsim) if not n.startswith("_")}
    public -= set(MODULES) | {"cli"}
    assert sorted(public - exported) == []


def test_benchmark_tracer_patches_resolve():
    # the benchmark's tracer wraps labelsim names by attribute; a renamed or
    # deleted name (estimators.majority_vote_matrix, LossSpec.mode) would
    # break a traced benchmark run and nothing else
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    rng = np.random.default_rng(0)
    ds = labelsim.MultiLabelDataset(X=rng.standard_normal((50, 2)),
                                    Y=rng.choice([-1, 1], size=(50, 2)))
    tracer = tracing.Tracer()
    try:  # a name that fails to resolve leaves the names before it patched
        tracing.install(tracer, (cli, montecarlo, semiparam, estimators, theory))
        patched = list(tracer._patches)
        montecarlo.fit(labelsim.LossSpec(), ds)
        montecarlo.fit(labelsim.LossSpec(links=(labelsim.logistic_link(),) * 2), ds)
    finally:
        tracer.restore()
    modes = [s.attrs["mode"] for s in tracer.spans if s.name == "estimators.fit"]
    assert modes == ["multilabel", "per_labeler"]
    assert [attr for owner, attr, original in patched
            if getattr(owner, attr) is not original] == []


def _unread_imports(path: Path) -> list[str]:
    """Names that the module's top-level imports bind and that it neither
    reads (as an ``ast.Name``) nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_src_modules_read_every_import():
    # no linter is at hand: a leftover import would go unnoticed; the only
    # unread names are those kept for the benchmark tracer to patch
    src = Path(labelsim.__file__).resolve().parent
    unread = {(path.stem, name) for path in sorted(src.glob("*.py"))
              if path.name != "__init__.py" for name in _unread_imports(path)}
    assert unread == {("estimators", "majority_vote_matrix"),
                      ("montecarlo", "sample_dataset")}
