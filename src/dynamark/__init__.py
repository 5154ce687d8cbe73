"""Piano dynamics, change-point, beat and downbeat estimation from audio."""

__version__ = "0.1.0"
