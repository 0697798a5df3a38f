"""Deep Deterministic Policy Gradient tuner (paper §5.3).

A model-free actor–critic RL agent in pure numpy (the paper uses
PyTorch with CDBTune's network shapes; no torch exists offline, so the
two-hidden-layer MLPs and their backprop are implemented by hand):

* **state** — resource-usage metrics of the last run (CDBTune-style):
  CPU/disk utilization, cache hit ratio, spill fraction, GC overhead,
  plus the Q-model metrics q1..q3 (§5.3 follows GBO's philosophy and
  feeds internal-pool visibility into the state);
* **action** — a point of the continuous [-1,1]^4 knob space, decoded
  through :class:`~repro.tuners.base.ConfigSpace`;
* **reward** — CDBTune's shaped reward comparing performance against
  both the initial and the previous observation.

Exploration adds Ornstein–Uhlenbeck noise to the actor's action; the
critic learns from an experience-replay buffer with soft-updated target
networks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec
from ..config import MemoryConfig, config_rows
from ..core.qmodel import q_metrics
from ..profiler.stats import ProfileStats
from .base import ConfigSpace, Objective, Sample, TuningResult
from .gbo import Q_CLIP

STATE_DIM = 8
HIDDEN = 32
GAMMA = 0.9
TAU = 0.02
LR_ACTOR = 1e-3
LR_CRITIC = 1e-2
BATCH = 16
OU_THETA = 0.15
OU_SIGMA = 0.35
OU_SIGMA_DECAY = 0.95
#: Uniform-random warm-up actions before trusting the (cold) actor —
#: standard DDPG practice; without it a cold-start session explores
#: only the actor's arbitrary initial preference.
WARMUP_STEPS = 6
#: Gradient steps per environment step — observations are expensive
#: (a full application run each), network updates are not.
TRAIN_STEPS_PER_OBS = 8


class _MLP:
    """Two-hidden-layer MLP with manual backprop.

    ``out_act`` is ``"tanh"`` (actor: bounded actions) or ``"linear"``
    (critic: unbounded Q values); hidden activations are tanh.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, out_act: str):
        def init(fan_in, fan_out):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-lim, lim, (fan_in, fan_out))

        self.w = [init(in_dim, HIDDEN), init(HIDDEN, HIDDEN), init(HIDDEN, out_dim)]
        self.b = [np.zeros(HIDDEN), np.zeros(HIDDEN), np.zeros(out_dim)]
        self.out_act = out_act
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        h1 = np.tanh(x @ self.w[0] + self.b[0])
        h2 = np.tanh(h1 @ self.w[1] + self.b[1])
        z = h2 @ self.w[2] + self.b[2]
        out = np.tanh(z) if self.out_act == "tanh" else z
        self._cache = (x, h1, h2, z, out)
        return out

    def _backprop(self, grad_out: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Chain rule through the cached forward: each layer's (weight,
        bias) gradient and the gradient w.r.t. the input."""
        if self._cache is None:
            raise RuntimeError("backprop called before forward")
        x, h1, h2, _, out = self._cache
        g = grad_out * (1.0 - out**2) if self.out_act == "tanh" else grad_out
        gw2, gb2 = h2.T @ g, g.sum(0)
        g = (g @ self.w[2].T) * (1.0 - h2**2)
        gw1, gb1 = h1.T @ g, g.sum(0)
        g = (g @ self.w[1].T) * (1.0 - h1**2)
        return [(x.T @ g, g.sum(0)), (gw1, gb1), (gw2, gb2)], g @ self.w[0].T

    def backward(self, grad_out: np.ndarray, lr: float) -> None:
        """SGD step on the cached forward."""
        grads, _ = self._backprop(grad_out)
        n = len(self._cache[0])
        for w, b, (gw, gb) in zip(self.w, self.b, grads):
            w -= lr * gw / n
            b -= lr * gb / n

    def input_gradient(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. input without touching the weights."""
        return self._backprop(grad_out)[-1]

    def copy_from(self, other: "_MLP", tau: float = 1.0) -> None:
        for i in range(3):
            self.w[i] = (1 - tau) * self.w[i] + tau * other.w[i]
            self.b[i] = (1 - tau) * self.b[i] + tau * other.b[i]


REWARD_CLIP = 10.0


def cdbtune_reward(runtime0: float, runtime_prev: float, runtime_t: float) -> float:
    """CDBTune's reward: improvement vs both the initial and previous run.

    Clipped to ±REWARD_CLIP — the §6.1 abort penalty (2× worst runtime)
    otherwise produces reward spikes that destabilize the critic.
    """
    d0 = (runtime0 - runtime_t) / runtime0
    dp = (runtime_prev - runtime_t) / runtime_prev
    if d0 > 0:
        r = ((1.0 + d0) ** 2 - 1.0) * abs(1.0 + dp)
    else:
        r = -(((1.0 - d0) ** 2) - 1.0) * abs(1.0 - dp)
    return float(np.clip(r, -REWARD_CLIP, REWARD_CLIP))


def state_vector(sample: Sample, stats: ProfileStats, cluster: ClusterSpec) -> np.ndarray:
    """CDBTune-style resource-metric state, plus Q-model pool metrics."""
    q = np.clip(q_metrics(config_rows([sample.config]), stats, cluster)[0], 0.0, Q_CLIP) / Q_CLIP
    usage = [
        sample.cpu_avg_pct / 100.0,
        sample.disk_avg_pct / 100.0,
        sample.layout.cache_hit_ratio,
        sample.layout.spill_fraction,
        sample.gc_overhead,
    ]
    return np.concatenate([usage, q])


@dataclass
class DDPGAgent:
    """The DDPG networks + replay buffer. Reusable across sessions
    (§6.6: reward-feedback training transfers across environments)."""

    space: ConfigSpace
    seed: int = 0
    actor: _MLP = field(init=False)
    critic: _MLP = field(init=False)
    actor_t: _MLP = field(init=False)
    critic_t: _MLP = field(init=False)
    replay: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        a_dim = self.space.dim
        self.actor = _MLP(STATE_DIM, a_dim, rng, "tanh")
        self.critic = _MLP(STATE_DIM + a_dim, 1, rng, "linear")
        self.actor_t = _MLP(STATE_DIM, a_dim, rng, "tanh")
        self.critic_t = _MLP(STATE_DIM + a_dim, 1, rng, "linear")
        self.actor_t.copy_from(self.actor)
        self.critic_t.copy_from(self.critic)

    def act(self, state: np.ndarray) -> np.ndarray:
        return self.actor.forward(state)[0]

    def train_step(self, rng: np.random.Generator) -> None:
        if len(self.replay) < BATCH:
            return
        idx = rng.choice(len(self.replay), BATCH, replace=False)
        s = np.array([self.replay[i][0] for i in idx])
        a = np.array([self.replay[i][1] for i in idx])
        r = np.array([self.replay[i][2] for i in idx])
        s2 = np.array([self.replay[i][3] for i in idx])

        # Critic: TD target with target networks.
        a2 = self.actor_t.forward(s2)
        q2 = self.critic_t.forward(np.concatenate([s2, a2], axis=1)).ravel()
        target = r + GAMMA * q2
        q = self.critic.forward(np.concatenate([s, a], axis=1)).ravel()
        self.critic.backward((q - target)[:, None], LR_CRITIC)

        # Actor: ascend Q(s, mu(s)).
        mu = self.actor.forward(s)
        self.critic.forward(np.concatenate([s, mu], axis=1))
        dq = self.critic.input_gradient(np.ones((BATCH, 1)))
        dq_da = dq[:, STATE_DIM:]
        self.actor.backward(-dq_da, LR_ACTOR)

        self.actor_t.copy_from(self.actor, TAU)
        self.critic_t.copy_from(self.critic, TAU)


def ddpg_tune(
    objective: Objective,
    space: ConfigSpace,
    stats: ProfileStats,
    initial_config: MemoryConfig,
    *,
    seed: int = 0,
    max_steps: int = 10,
    agent: DDPGAgent | None = None,
    stop_runtime_sec: float | None = None,
) -> tuple[TuningResult, DDPGAgent]:
    """One DDPG tuning session.

    Starts from ``initial_config`` (the profiled default), then probes
    ``max_steps`` actions — or fewer if ``stop_runtime_sec`` is reached
    (the Figure 16 "within top 5 percentile" stopping target). Pass a
    previously-trained ``agent`` to reuse knowledge across environments
    (the §6.6 cross-cluster / cross-dataset adaptability experiment).
    Probe times are the actor's forward passes after warm-up; fit times
    are each step's updates, once the buffer holds a training batch.
    """
    rng = np.random.default_rng(seed + 1)
    agent = agent or DDPGAgent(space=space, seed=seed)

    first = objective(initial_config)
    runtime0 = first.objective
    prev_runtime = runtime0
    state = state_vector(first, stats, objective.cluster)
    ou = np.zeros(space.dim)
    sigma = OU_SIGMA

    warm = WARMUP_STEPS if not agent.replay else 0  # pre-trained agents skip warm-up
    fit_times: list[float] = []
    probe_times: list[float] = []
    for step in range(max_steps):
        ou = ou + OU_THETA * (-ou) + sigma * rng.normal(0.0, 1.0, space.dim)
        sigma *= OU_SIGMA_DECAY
        if step < warm:
            action = rng.uniform(-1.0, 1.0, space.dim)
        else:
            t0 = time.perf_counter()
            mu = agent.act(state)
            probe_times.append(time.perf_counter() - t0)
            action = np.clip(mu + ou, -1.0, 1.0)
        (cfg,) = space.configs(space.decode((action + 1.0) / 2.0))
        sample = objective(cfg)
        reward = cdbtune_reward(runtime0, prev_runtime, sample.objective)
        next_state = state_vector(sample, stats, objective.cluster)
        agent.replay.append((state, action, reward, next_state))
        # A short buffer trains nothing (and draws nothing from rng).
        if len(agent.replay) >= BATCH:
            t0 = time.perf_counter()
            for _ in range(TRAIN_STEPS_PER_OBS):
                agent.train_step(rng)
            fit_times.append(time.perf_counter() - t0)
        state, prev_runtime = next_state, sample.objective
        if stop_runtime_sec is not None and sample.meets(stop_runtime_sec):
            break

    return objective.result(fit_times=fit_times, probe_times=probe_times), agent
