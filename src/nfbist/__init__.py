"""Noise-figure measurement toolkit built around a 1-bit comparator chain.

Simulates Y-factor and direct-method noise-figure measurements, including
the comparator digitizer, reference-normalized spectra and the supporting
noise algebra.
"""

__version__ = "0.1.0"

from . import capture, digitizer, dut, errors, nfcore, pipeline, signals, spectral
from .capture import *  # noqa: F403
from .digitizer import *  # noqa: F403
from .dut import *  # noqa: F403
from .errors import *  # noqa: F403
from .nfcore import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .signals import *  # noqa: F403
from .spectral import *  # noqa: F403

__all__ = ["__version__"]
for _module in (capture, digitizer, dut, errors, nfcore, pipeline, signals, spectral):
    __all__ += _module.__all__
del _module
