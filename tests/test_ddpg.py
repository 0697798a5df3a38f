"""DDPG tuner (§5.3): network gradients, reward shaping, tuning loop."""
import numpy as np
import pytest

from repro.cluster import CLUSTER_A
from repro.config import MemoryConfig
from repro.experiments.common import default_config, profiled_stats
from repro.tuners.base import ConfigSpace, Objective
from repro.tuners.ddpg import (
    REWARD_CLIP,
    STATE_DIM,
    DDPGAgent,
    _MLP,
    cdbtune_reward,
    ddpg_tune,
    state_vector,
)
from repro.workloads import dominant_pool, workload_model


class TestMLP:
    def test_forward_shapes(self):
        rng = np.random.default_rng(0)
        net = _MLP(5, 3, rng, "tanh")
        out = net.forward(np.zeros((7, 5)))
        assert out.shape == (7, 3)
        assert (np.abs(out) <= 1).all()

    def test_linear_head_unbounded(self):
        rng = np.random.default_rng(0)
        net = _MLP(4, 1, rng, "linear")
        out = net.forward(np.random.default_rng(1).random((3, 4)) * 10)
        assert out.shape == (3, 1)

    def test_backward_reduces_mse(self):
        rng = np.random.default_rng(0)
        net = _MLP(3, 1, rng, "linear")
        x = np.random.default_rng(1).random((32, 3))
        y = (x @ np.array([1.0, -1.0, 0.5]))[:, None]
        losses = []
        for _ in range(300):
            pred = net.forward(x)
            losses.append(float(((pred - y) ** 2).mean()))
            net.backward(pred - y, lr=0.05)
        assert losses[-1] < 0.1 * losses[0]

    def test_input_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        net = _MLP(4, 1, rng, "linear")
        x = np.random.default_rng(1).random((1, 4))
        net.forward(x)
        grad = net.input_gradient(np.ones((1, 1)))
        eps = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += eps
            xm[0, i] -= eps
            num = (net.forward(xp)[0, 0] - net.forward(xm)[0, 0]) / (2 * eps)
            assert grad[0, i] == pytest.approx(num, abs=1e-4)

    def test_soft_update_interpolates(self):
        rng = np.random.default_rng(0)
        a, b = _MLP(3, 2, rng, "tanh"), _MLP(3, 2, rng, "tanh")
        w_before = b.w[0].copy()
        b.copy_from(a, tau=0.5)
        assert np.allclose(b.w[0], 0.5 * w_before + 0.5 * a.w[0])


class TestReward:
    def test_improvement_positive(self):
        assert cdbtune_reward(100, 100, 80) > 0

    def test_regression_negative(self):
        assert cdbtune_reward(100, 100, 150) < 0

    def test_bigger_improvement_bigger_reward(self):
        assert cdbtune_reward(100, 100, 60) > cdbtune_reward(100, 100, 90)

    def test_clipped(self):
        assert cdbtune_reward(100, 100, 10000) == -REWARD_CLIP
        assert abs(cdbtune_reward(100, 1000, 1)) <= REWARD_CLIP

    def test_no_change_zero(self):
        assert cdbtune_reward(100, 100, 100) == pytest.approx(0.0)


class TestStateVector:
    def test_shape_and_bounds(self):
        stats = profiled_stats("SVM", "A", 0)
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        s = obj(MemoryConfig(2, 2, 0.5, 0.1, 3))
        v = state_vector(s, stats, CLUSTER_A)
        assert v.shape == (STATE_DIM,)
        assert (v >= 0).all() and (v <= 1.5).all()


class TestAgent:
    def test_act_in_range(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        agent = DDPGAgent(space=space, seed=0)
        a = agent.act(np.zeros(STATE_DIM))
        assert a.shape == (space.dim,)
        assert (np.abs(a) <= 1).all()

    def test_train_step_noop_below_batch(self):
        space = ConfigSpace(CLUSTER_A, "cache")
        agent = DDPGAgent(space=space, seed=0)
        w = agent.actor.w[0].copy()
        agent.train_step(np.random.default_rng(0))
        assert np.array_equal(w, agent.actor.w[0])

    def test_training_moves_actor_toward_reward(self):
        # Toy environment: reward = -(a0 - 0.5)^2; the actor's first
        # action dim should drift toward 0.5.
        space = ConfigSpace(CLUSTER_A, "cache")
        agent = DDPGAgent(space=space, seed=0)
        rng = np.random.default_rng(0)
        state = np.full(STATE_DIM, 0.5)
        for _ in range(400):
            a = np.clip(agent.act(state) + rng.normal(0, 0.3, space.dim), -1, 1)
            r = -((a[0] - 0.5) ** 2)
            agent.replay.append((state, a, r, state))
            agent.train_step(rng)
        final = agent.act(state)
        assert abs(final[0] - 0.5) < 0.35


class TestDdpgTune:
    def test_session_runs(self):
        name = "SVM"
        space = ConfigSpace(CLUSTER_A, dominant_pool(name))
        stats = profiled_stats(name, "A", 0)
        obj = Objective(workload_model(name), CLUSTER_A)
        res, agent = ddpg_tune(obj, space, stats, default_config(name), seed=0, max_steps=6)
        assert res.iterations == 7  # initial + 6 steps
        assert len(agent.replay) == 6

    def test_stop_on_threshold(self):
        name = "SVM"
        space = ConfigSpace(CLUSTER_A, dominant_pool(name))
        stats = profiled_stats(name, "A", 0)
        obj = Objective(workload_model(name), CLUSTER_A)
        res, _ = ddpg_tune(
            obj, space, stats, default_config(name), seed=0, max_steps=60,
            stop_runtime_sec=1e9,  # any clean run qualifies
        )
        assert res.iterations <= 3  # initial + first clean probe

    def test_agent_reuse_continues_replay(self):
        # §6.6: a pre-trained agent can be handed to a new session.
        name = "SVM"
        space = ConfigSpace(CLUSTER_A, dominant_pool(name))
        stats = profiled_stats(name, "A", 0)
        _, agent = ddpg_tune(
            Objective(workload_model(name), CLUSTER_A), space, stats,
            default_config(name), seed=0, max_steps=5,
        )
        n0 = len(agent.replay)
        _, agent2 = ddpg_tune(
            Objective(workload_model(name), CLUSTER_A), space, stats,
            default_config(name), seed=1, max_steps=3, agent=agent,
        )
        assert agent2 is agent
        assert len(agent.replay) == n0 + 3
