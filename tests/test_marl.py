"""Learner tests: advantage estimation, the hybrid action distribution,
clipped-update mechanics and the end-to-end training contract."""

import numpy as np
import pytest

import meqc.marl as marl
from meqc.env import MeqcEnv
from meqc.marl import (
    HybridAgent,
    LearnedPolicy,
    TrainConfig,
    TrainingError,
    _make_optimizers,
    gae,
    load_checkpoint,
    ppo_update,
    save_checkpoint,
    train,
)
from meqc.nn import Mlp
from meqc.solvers import evaluate
from meqc.workload import gen_scenario


def discounted_advantage_oracle(rewards, values, discount, lam):
    """Forward-evaluated sum of discounted one-step errors."""
    steps = len(rewards)
    out = np.zeros(steps)
    for t in range(steps):
        acc = 0.0
        for k in range(steps - t):
            delta = rewards[t + k] + discount * values[t + k + 1] - values[t + k]
            acc += (discount * lam) ** k * delta
        out[t] = acc
    return out


class TestGae:
    def test_lambda_zero_is_td_error(self):
        rewards = np.array([1.0, 2.0, -1.0])
        values = np.array([0.5, 0.2, 0.1, 0.4])
        adv, _ = gae(rewards, values, 0.9, 0.0)
        expected = rewards + 0.9 * values[1:] - values[:-1]
        assert np.allclose(adv, expected, rtol=1e-15)

    def test_lambda_one_is_discounted_return(self):
        rng = np.random.default_rng(3)
        rewards = rng.normal(size=10)
        values = rng.normal(size=11)
        adv, returns = gae(rewards, values, 0.95, 1.0)
        for t in range(10):
            tail = sum(0.95**k * rewards[t + k] for k in range(10 - t))
            tail += 0.95 ** (10 - t) * values[-1]
            assert adv[t] == pytest.approx(tail - values[t], rel=1e-12)
            assert returns[t] == pytest.approx(tail, rel=1e-12)

    def test_zeros_in_zeros_out(self):
        adv, returns = gae(np.zeros(5), np.zeros(6), 0.95, 0.95)
        assert not adv.any() and not returns.any()

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(4)
        for lam in (0.0, 0.5, 0.95, 1.0):
            rewards = rng.normal(size=8)
            values = rng.normal(size=9)
            adv, _ = gae(rewards, values, 0.9, lam)
            assert np.allclose(
                adv, discounted_advantage_oracle(rewards, values, 0.9, lam),
                rtol=1e-12, atol=1e-12,
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gae(np.zeros(3), np.zeros(3), 0.9, 0.5)


class TestHybridSampling:
    def test_server_frequencies_near_uniform(self):
        agent = HybridAgent(obs_dim=6, num_servers=4, hidden=16,
                            rng=np.random.default_rng(0))
        for net in agent.nets.values():
            for w in net.weights:
                w[:] = 0.0
        obs = np.zeros(6)
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[agent.sample_action(obs, rng).server] += 1
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)

    def test_ratio_strictly_inside_unit_interval(self):
        agent = HybridAgent(obs_dim=4, num_servers=2, hidden=8,
                            rng=np.random.default_rng(2))
        obs = np.ones(4)
        rng = np.random.default_rng(3)
        for _ in range(500):
            sample = agent.sample_action(obs, rng)
            assert 0.0 < sample.ratio < 1.0
            assert np.isfinite(sample.logp_server)
            assert np.isfinite(sample.logp_ratio)

    def test_greedy_mode_deterministic(self):
        agent = HybridAgent(obs_dim=4, num_servers=3, hidden=8,
                            rng=np.random.default_rng(4))
        obs = np.full(4, 0.3)
        assert agent.greedy_action(obs) == agent.greedy_action(obs)

    def test_squashed_density_integrates_to_one(self):
        # change-of-variables check: integrate the implied density over (0, 1)
        agent = HybridAgent(obs_dim=3, num_servers=2, hidden=8,
                            rng=np.random.default_rng(5))
        obs = np.full(3, 0.7)
        mean, log_std = agent.ratio_params(obs)
        mean, std = float(mean), float(np.exp(log_std))
        ratios = np.linspace(1e-7, 1.0 - 1e-7, 200_001)
        z = np.log(ratios / (1.0 - ratios))
        gauss = np.exp(-0.5 * ((z - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi))
        density = gauss / (ratios * (1.0 - ratios))
        mass = float(np.sum((density[1:] + density[:-1]) / 2 * np.diff(ratios)))
        assert mass == pytest.approx(1.0, abs=1e-3)


def constant_batch(agent, obs, server, advantage, rng, n=32):
    """Batch of identical transitions sampled from the agent's current policy."""
    samples = [agent.sample_action(obs, rng) for _ in range(n)]
    return {
        "obs": np.tile(obs, (n, 1)),
        "server": np.array([server if server is not None else s.server for s in samples]),
        "pre_squash": np.array([s.pre_squash for s in samples]),
        "logp_server": np.array(
            [agent.server_logits(obs)[server if server is not None else s.server]
             - _lse(agent.server_logits(obs)) for s in samples]
        ),
        "logp_ratio": np.array([s.logp_ratio for s in samples]),
        "squash_correction": np.array([s.squash_correction for s in samples]),
        "adv_server": np.full(n, advantage),
        "adv_ratio": np.zeros(n),
        "ret_server": np.zeros(n),
        "ret_ratio": np.zeros(n),
    }


def _lse(x):
    m = np.max(x)
    return m + np.log(np.sum(np.exp(x - m)))


class TestPpoUpdate:
    def make_agent(self, seed=0):
        return HybridAgent(obs_dim=4, num_servers=3, hidden=8,
                           rng=np.random.default_rng(seed))

    def test_positive_advantage_raises_action_logprob(self):
        agent = self.make_agent()
        cfg = TrainConfig(entropy_coef=0.0, normalize_advantages=False,
                          learning_rate=0.01, optimizer="sgd")
        obs = np.full(4, 0.2)
        batch = constant_batch(agent, obs, server=1, advantage=2.0,
                               rng=np.random.default_rng(1))
        logits = agent.server_logits(obs)
        before = logits[1] - _lse(logits)
        ppo_update(agent, _make_optimizers(agent, cfg), batch, cfg)
        logits = agent.server_logits(obs)
        assert logits[1] - _lse(logits) > before

    def test_clipped_ratio_stops_gradient(self):
        agent = self.make_agent(seed=1)
        cfg = TrainConfig(entropy_coef=0.0, normalize_advantages=False,
                          learning_rate=0.05, optimizer="sgd", clip_epsilon=0.2)
        obs = np.full(4, -0.4)
        batch = constant_batch(agent, obs, server=0, advantage=1.0,
                               rng=np.random.default_rng(2))
        # pretend the old policy found this action much less likely:
        # ratio = exp(logp_new - logp_old) = 1 + 2*eps > 1 + eps, advantage > 0
        batch["logp_server"] = batch["logp_server"] - np.log(1 + 2 * cfg.clip_epsilon)
        before = agent.nets["pi_server"].flat_params()
        ppo_update(agent, _make_optimizers(agent, cfg), batch, cfg)
        assert np.array_equal(agent.nets["pi_server"].flat_params(), before)

    def test_two_armed_bandit_concentrates(self):
        agent = HybridAgent(obs_dim=2, num_servers=2, hidden=16,
                            rng=np.random.default_rng(7))
        cfg = TrainConfig(
            learning_rate=0.01, entropy_coef=0.001, normalize_advantages=True,
            discount=0.0, gae_lambda=0.0, optimizer="adam",
        )
        opts = _make_optimizers(agent, cfg)
        obs = np.ones(2)
        rng = np.random.default_rng(8)
        for _ in range(200):
            samples = [agent.sample_action(obs, rng) for _ in range(64)]
            rewards = np.array([1.0 if s.server == 0 else 0.0 for s in samples])
            value = agent.values(obs)[0]
            batch = {
                "obs": np.tile(obs, (64, 1)),
                "server": np.array([s.server for s in samples]),
                "pre_squash": np.array([s.pre_squash for s in samples]),
                "logp_server": np.array([s.logp_server for s in samples]),
                "logp_ratio": np.array([s.logp_ratio for s in samples]),
                "squash_correction": np.array([s.squash_correction for s in samples]),
                "adv_server": rewards - value,
                "adv_ratio": np.zeros(64),
                "ret_server": rewards,
                "ret_ratio": rewards,
            }
            ppo_update(agent, opts, batch, cfg)
            probs = np.exp(agent.server_logits(obs) - _lse(agent.server_logits(obs)))
            assert abs(probs.sum() - 1.0) < 1e-6
        logits = agent.server_logits(obs)
        probs = np.exp(logits - _lse(logits))
        assert probs[0] >= 0.95

    def test_non_finite_loss_aborts(self):
        agent = self.make_agent(seed=2)
        cfg = TrainConfig()
        obs = np.full(4, 0.1)
        batch = constant_batch(agent, obs, server=0, advantage=1.0,
                               rng=np.random.default_rng(3))
        batch["adv_server"] = np.full(32, np.nan)
        with pytest.raises(TrainingError, match="non-finite"):
            ppo_update(agent, _make_optimizers(agent, cfg), batch, cfg)


class TestTrain:
    def smoke_config(self, **overrides):
        defaults = dict(
            epochs=3, steps_per_epoch=16, updates_per_epoch=2, batch_size=8,
            hidden_units=16,
        )
        defaults.update(overrides)
        return TrainConfig(**defaults)

    def test_same_seed_same_curve(self):
        scenario = gen_scenario(2, 2, seed=0)
        cfg = self.smoke_config()
        a = train(scenario, cfg, seed=5)
        b = train(scenario, cfg, seed=5)
        assert a.curve == b.curve

    def test_rollout_runs_each_network_once_per_epoch(self, monkeypatch):
        counts = {"rollout": 0, "update": 0}
        in_update = [False]
        real_forward, real_update = Mlp.forward_cached, marl.ppo_update

        def counting_forward(self, x):
            counts["update" if in_update[0] else "rollout"] += 1
            return real_forward(self, x)

        def flagged_update(*args):
            in_update[0] = True
            try:
                return real_update(*args)
            finally:
                in_update[0] = False

        monkeypatch.setattr(Mlp, "forward_cached", counting_forward)
        monkeypatch.setattr(marl, "ppo_update", flagged_update)
        cfg = self.smoke_config()
        train(gen_scenario(3, 2, seed=0), cfg, seed=0)
        agents = 3
        assert counts["rollout"] == 4 * agents * cfg.epochs
        assert counts["update"] == 4 * agents * cfg.epochs * cfg.updates_per_epoch

    @pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redraw"])
    def test_epoch_scored_in_one_batch(self, monkeypatch, redraw):
        calls = {"step": 0, "rewards": []}
        real_rewards = MeqcEnv.rewards

        def counting_step(self, actions):
            calls["step"] += 1
            raise AssertionError("train must not call MeqcEnv.step")

        def counting_rewards(self, servers, ratios):
            calls["rewards"].append(len(servers))
            return real_rewards(self, servers, ratios)

        monkeypatch.setattr(MeqcEnv, "step", counting_step)
        monkeypatch.setattr(MeqcEnv, "rewards", counting_rewards)
        cfg = self.smoke_config(redraw_tasks=redraw)
        train(gen_scenario(3, 2, seed=0), cfg, seed=0)
        assert calls["step"] == 0
        assert calls["rewards"] == [cfg.steps_per_epoch] * cfg.epochs

    def test_curve_finite_and_complete(self):
        scenario = gen_scenario(2, 2, seed=1)
        result = train(scenario, self.smoke_config(), seed=0)
        assert len(result.curve) == 3
        for row in result.curve:
            for key in ("mean_cost", "policy_loss", "value_loss", "entropy"):
                assert np.isfinite(row[key])

    def test_zero_learning_rate_freezes_parameters(self):
        scenario = gen_scenario(2, 2, seed=2)
        cfg = self.smoke_config(learning_rate=0.0, epochs=1)
        result = train(scenario, cfg, seed=3)
        fresh = train(scenario, cfg, seed=3)  # same init stream
        for a, b in zip(result.agents, fresh.agents):
            for name in a.nets:
                assert np.array_equal(
                    a.nets[name].flat_params(), b.nets[name].flat_params()
                )
        # and identical to a run that never updates at all
        reference = train(scenario, self.smoke_config(epochs=1, learning_rate=0.0,
                                                      updates_per_epoch=1), seed=3)
        assert np.array_equal(
            result.agents[0].nets["pi_server"].flat_params(),
            reference.agents[0].nets["pi_server"].flat_params(),
        )

    def test_toy_instance_approaches_oracle(self):
        from meqc.solvers import solve_exhaustive

        scenario = gen_scenario(1, 1, seed=4)
        _, oracle_cost = solve_exhaustive(scenario)
        cfg = TrainConfig(
            epochs=40, steps_per_epoch=64, updates_per_epoch=4, batch_size=64,
            hidden_units=32, discount=0.0, gae_lambda=0.0,
        )
        result = train(scenario, cfg, seed=0)
        stats = evaluate(
            LearnedPolicy(result.agents), scenario, 1, np.random.default_rng(0)
        )
        assert stats.mean_cost <= 1.05 * oracle_cost

    def test_curve_written(self, tmp_path):
        scenario = gen_scenario(2, 2, seed=3)
        path = tmp_path / "curve.csv"
        train(scenario, self.smoke_config(), seed=1, curve_path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,mean_cost,policy_loss,value_loss,entropy"
        assert len(lines) == 4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        scenario = gen_scenario(2, 2, seed=0)
        cfg = TrainConfig(epochs=2, steps_per_epoch=8, updates_per_epoch=1,
                          batch_size=8, hidden_units=16)
        result = train(scenario, cfg, seed=9)
        path = tmp_path / "agents.npz"
        save_checkpoint(path, result.agents)
        # older checkpoints also carry an unread scenario_seed entry
        older = tmp_path / "older.npz"
        with np.load(path) as data:
            assert "scenario_seed" not in data
            np.savez(older, **data, scenario_seed=np.float64(0))
        obs = np.full(12, 0.4)
        for restored in (load_checkpoint(path), load_checkpoint(older)):
            for a, b in zip(result.agents, restored, strict=True):
                assert a.greedy_action(obs) == b.greedy_action(obs)
                for name in a.nets:
                    assert np.array_equal(
                        a.nets[name].flat_params(), b.nets[name].flat_params()
                    )

    def test_schema_version_checked(self, tmp_path):
        scenario = gen_scenario(1, 1, seed=0)
        cfg = TrainConfig(epochs=1, steps_per_epoch=4, updates_per_epoch=1,
                          batch_size=4, hidden_units=8)
        result = train(scenario, cfg, seed=0)
        path = tmp_path / "agents.npz"
        save_checkpoint(path, result.agents)
        import numpy as np_mod

        data = dict(np_mod.load(path))
        data["schema_version"] = np_mod.int64(42)
        np_mod.savez(path, **data)
        with pytest.raises(ValueError, match="schema_version"):
            load_checkpoint(path)
