"""Episodic domain-generalization training with semantic feature regularization.

Subpackages:
  autodiff  reverse-mode AD with differentiable (second-order capable) gradients
  nets      functional feature / task / metric networks over explicit params
  losses    task, global class-alignment and local metric-learning losses
  engine    the episodic meta-training loop
  bench     synthetic multi-domain benchmark with controllable shift
  harness   evaluation, diagnostics, ablation grid and CSV reports
  keys      each settable key's kind and bound, and their one reader
"""

from . import autodiff, bench, engine, harness, keys, losses, nets

__all__ = ["autodiff", "bench", "engine", "harness", "keys", "losses", "nets"]
__version__ = "0.1.0"
