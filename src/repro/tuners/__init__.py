"""Tuning policies evaluated in the paper (§5, §6).

* :mod:`base` — the §6.1 search space (:class:`ConfigSpace`, the one
  mapping from knob values to a ``MemoryConfig``) and the objective;
* :mod:`exhaustive` — grid search baseline (§6.1);
* :mod:`bo` — Bayesian Optimization with a Gaussian-Process surrogate,
  Expected Improvement, LHS bootstrap, CherryPick stopping (§5.1);
* :mod:`gbo` — Guided BO: the GP over (x, q(x)) (§5.2);
* :mod:`ddpg` — Deep Deterministic Policy Gradient actor–critic RL with
  CDBTune-style state and reward (§5.3);
* :mod:`rf` — Random-Forest surrogate variant (§6.5).
"""
