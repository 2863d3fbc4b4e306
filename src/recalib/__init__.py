"""Binned probability recalibration with finite-sample risk bounds.

The package splits into four layers: `core` holds the recalibrator
types and fitting routines, `bounds` the finite-sample guarantees and
bin-count selection, `oracle` an analytic Gaussian-mixture task whose
population risks are computable exactly, and `experiments` the
simulation harness that ties them together. The `recalib` console
script exposes the same functionality from the shell.

The package namespace holds the public names of `core` and `bounds`.
Oracle and experiment names are imported from `recalib.oracle` and
`recalib.experiments`, which load scipy; `import recalib` does not.
"""

from . import bounds, core
from ._version import __version__
from .bounds import *
from .core import *

__all__ = ["__version__", *core.__all__, *bounds.__all__]
