import importlib

import pytest

import labelsim

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
