"""Differentiable feature-map shifting with correlation attention, plus
the small interleaved pose network, a desk-scale trainer, and analysis
tools built on a numpy reverse-mode tape.

The package root re-exports nothing: import each name from its submodule
(``shiftpose.autodiff``, ``shiftpose.network``, ...)."""

__version__ = "0.1.0"
