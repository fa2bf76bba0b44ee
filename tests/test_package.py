import importlib
import inspect
import pkgutil

import qsdlab
from qsdlab.grid_measure import GridMeasure
from qsdlab.spectral import principal_eigenpair

# one-line wrappers whose callers call the function behind them
REMOVED = {
    "doob": ("conditioned_flow", "chi2_decay_curve", "beta_measure", "evolve_transformed"),
    "spectral": ("spectral_gap", "apply_operator"),
}


def test_public_names_resolve_and_removed_wrappers_are_gone():
    # a tracer that wraps every public function calls getattr on each name
    for info in pkgutil.iter_modules(qsdlab.__path__):
        module = importlib.import_module(f"qsdlab.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"qsdlab.{info.name}.{name}"
    for layer, names in REMOVED.items():
        module = importlib.import_module(f"qsdlab.{layer}")
        for name in names:
            assert not hasattr(module, name) and not hasattr(qsdlab, name), name
    assert not hasattr(GridMeasure, "mass")
    assert list(inspect.signature(principal_eigenpair).parameters) == ["op", "with_lambda1"]
