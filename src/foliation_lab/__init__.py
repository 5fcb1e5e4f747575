"""foliation-lab: spectral laboratory for basic Dirac operators on model flows."""

__version__ = "0.1.0"
