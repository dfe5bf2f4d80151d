"""ramseyforge: finite-geometry pseudorandom graphs, exact structural and
spectral verification, randomized transference, and replayable Ramsey
lower-bound certificates."""

__version__ = "0.1.0"
