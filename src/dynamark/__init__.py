"""Piano dynamics, change-point, beat and downbeat estimation from audio."""

__version__ = "0.1.0"

from . import parallel  # noqa: E402,F401  (sets one BLAS thread on import)
