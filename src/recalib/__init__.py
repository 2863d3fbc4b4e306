"""Binned probability recalibration with finite-sample risk bounds.

The package splits into four layers: `core` holds the recalibrator
types and fitting routines, `bounds` the finite-sample guarantees and
bin-count selection, `oracle` an analytic Gaussian-mixture task whose
population risks are computable exactly, and `experiments` the
simulation harness that ties them together. The `recalib` console
script exposes the same functionality from the shell.

`oracle` and `experiments`, and the oracle names re-exported here, load
on first use (PEP 562), so `import recalib` and the CLI commands that
need no oracle start without importing scipy.
"""

from importlib import import_module as _import_module

from ._version import __version__
from .core import (
    BinningScheme,
    ClassAbsentError,
    Composite,
    Constant,
    DegenerateBinsError,
    EmptyBinError,
    Identity,
    LabeledSample,
    PiecewiseRecalibrator,
    Recalibrator,
    ShiftCorrector,
    ShiftWeights,
    apply,
    apply_batch,
    compose,
    estimate_weights,
    fit_recalibrator,
    umb_fit,
)
from .bounds import (
    DEFAULT_C,
    BoundParams,
    BoundReport,
    InsufficientSampleError,
    ShiftBoundParams,
    cal_risk_bound,
    chernoff_sample_requirement,
    epsilon_delta,
    optimal_bins,
    phi_approx,
    phi_balance,
    phi_ratio,
    risk_bound_report,
    sample_size_ok,
    sha_risk_bound,
    shift_risk_bound_apriori,
    shift_risk_bound_realized,
    zeta,
)

__all__ = [
    "__version__",
    "BinningScheme",
    "BoundParams",
    "BoundReport",
    "ClassAbsentError",
    "Composite",
    "Constant",
    "DEFAULT_C",
    "DegenerateBinsError",
    "EmptyBinError",
    "GaussianMixtureTask",
    "Identity",
    "InsufficientSampleError",
    "LabeledSample",
    "MonotoneRecalibrator",
    "PiecewiseRecalibrator",
    "QuadratureFailureError",
    "Recalibrator",
    "RiskReport",
    "ShiftBoundParams",
    "ShiftCorrector",
    "ShiftWeights",
    "ZeroMassError",
    "apply",
    "apply_batch",
    "cal_risk_bound",
    "chernoff_sample_requirement",
    "compose",
    "empirical_risk_plugin",
    "epsilon_delta",
    "estimate_K",
    "estimate_weights",
    "exact_shift_weights",
    "fit_recalibrator",
    "hstar",
    "interval_mass",
    "interval_mean",
    "logit",
    "optimal_bins",
    "phi_approx",
    "phi_balance",
    "phi_ratio",
    "population_risk",
    "posterior",
    "risk_bound_report",
    "sample",
    "sample_size_ok",
    "sha_risk_bound",
    "shift_risk_bound_apriori",
    "shift_risk_bound_realized",
    "sigmoid",
    "umb_fit",
    "zeta",
]

# Names resolved on first use, each mapped to the submodule that holds it,
# so that `import recalib` and the CLI start without loading scipy.
_LAZY = {
    "oracle": "oracle",
    "experiments": "experiments",
    **dict.fromkeys((
        "GaussianMixtureTask",
        "MonotoneRecalibrator",
        "QuadratureFailureError",
        "RiskReport",
        "ZeroMassError",
        "empirical_risk_plugin",
        "estimate_K",
        "exact_shift_weights",
        "hstar",
        "interval_mass",
        "interval_mean",
        "logit",
        "population_risk",
        "posterior",
        "sample",
        "sigmoid",
    ), "oracle"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = _import_module(f"{__name__}.{module}")
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
