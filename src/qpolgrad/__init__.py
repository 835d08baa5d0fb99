"""Quantum policy-gradient reinforcement learning, self-contained on numpy.

Subpackages:

- qsim: batched row-operator simulation and Z readout for <= 8 qubits
- vqpolicy: variational softmax policy with adjoint and parameter-shift gradients
- envs: CartPole, Acrobot, and single-qubit state-preparation control
- reinforce: trajectory collection, baseline, gradient estimator, Adam
- classical: bias-free ReLU network baselines with manual backprop
- analysis: Fisher spectrum diagnostics and sample-complexity bounds
- config / cli: experiment configuration, presets, and the command line
"""

from .errors import ConfigError, ContractError

__all__ = ["ConfigError", "ContractError"]

__version__ = "0.1.0"
