"""Fourier-Hermite spectral toolkit for the 2D quadratic Klein-Gordon
equation with a harmonic trap in the second direction.

Submodules
----------
hermite     normalized Hermite functions, quadrature, triple interaction tensor
transform   grid and spectral state, composite norms, checkpoint file
phase       three-wave phase functions, stationary points, resonance classification
triples     integer enumeration of space-time resonant mode triples
oscillatory oscillatory quadrature and the stationary-phase approximation
evolution   full pseudo-spectral integrator and the resonant reduced system
cli         experiment orchestration (``reslab`` console entry point)
"""

__version__ = "0.1.0"
