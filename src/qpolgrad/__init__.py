"""Quantum policy-gradient reinforcement learning, self-contained on numpy.

Subpackages:

- qsim: batched row-operator simulation for <= 8 qubits
- vqpolicy: variational softmax policy: encoding, Z readout, adjoint and
  parameter-shift gradients
- envs: CartPole, Acrobot, and single-qubit state-preparation control
- reinforce: trajectory collection, baseline, gradient estimator, Adam
- classical: bias-free ReLU network baselines with manual backprop
- analysis: Fisher spectrum diagnostics and sample-complexity bounds
- config / cli: experiment configuration, presets, and the command line
  with its `run` subcommand
- tools: every other subcommand: charts, run summaries, checkpoint
  spectra and the bounds

Importing the package pins numpy's OpenBLAS to one thread: a threaded product
or eigen-solve rounds differently, so a run's bits would depend on the machine.
"""
import ctypes

from numpy.linalg import _umath_linalg

from .errors import ConfigError, ContractError

__all__ = ["ConfigError", "ContractError", "blas_threads"]

__version__ = "0.1.0"

_LIB = ctypes.CDLL(_umath_linalg.__file__)  # numpy's linalg, linked to its OpenBLAS
_SET_THREADS = next((name for name in (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "openblas_set_num_threads") if hasattr(_LIB, name)), None)
if _SET_THREADS:
    ctypes.CFUNCTYPE(None, ctypes.c_int)((_SET_THREADS, _LIB))(1)


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read back from it; None if nothing was pinned."""
    if not _SET_THREADS:
        return None
    return ctypes.CFUNCTYPE(ctypes.c_int)((_SET_THREADS.replace("set", "get"), _LIB))()
