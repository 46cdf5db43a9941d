"""Learner tests: advantage estimation, the hybrid action distribution,
clipped-update mechanics and the end-to-end training contract."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import meqc.marl as marl
from meqc.env import MeqcEnv
from meqc.marl import (
    _LOG_2PI,
    LOG_STD_MAX,
    LOG_STD_MIN,
    HybridAgent,
    LearnedPolicy,
    TrainConfig,
    TrainingError,
    UpdateStats,
    _log_sigmoid_slope,
    _make_optimizers,
    _normalize,
    _read_heads,
    _sigmoid,
    _surrogate_coef,
    draw_actions,
    gae,
    load_checkpoint,
    ppo_update,
    save_checkpoint,
    train,
)
from meqc.nn import Mlp
from meqc.solvers import evaluate
from meqc.workload import gen_scenario

from test_nn import reference_backward, reference_forward


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


def reference_gae(rewards, values, discount, lam):
    """GAE's backward loop on numpy scalars, writing each step into an array."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    advantages = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + discount * values[t + 1] - values[t]
        acc = delta + discount * lam * acc
        advantages[t] = acc
    return advantages, advantages + values[:-1]


class TestGae:
    @pytest.mark.parametrize("steps", [0, 1, 2, 500])
    def test_bitwise_equal_to_reference_loop(self, steps):
        rng = np.random.default_rng(steps)
        for lam in (0.0, 0.5, 0.95, 1.0):
            rewards = rng.normal(scale=1e3, size=steps)
            values = rng.normal(size=steps + 1)
            ours = gae(rewards, values, 0.99, lam)
            for got, want in zip(ours, reference_gae(rewards, values, 0.99, lam)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("steps", [0, 1, 32, 500])
    @pytest.mark.parametrize("heads_shape", [(1,), (5,), (2, 3)], ids=["1", "5", "2x3"])
    def test_heads_bitwise_equal_to_one_call_per_head(self, steps, heads_shape):
        rng = np.random.default_rng(steps)
        rewards = rng.normal(scale=1e3, size=steps)
        values = rng.normal(size=(steps + 1, *heads_shape))
        for discount in (0.0, 0.95, 1.0):
            for lam in (0.0, 0.95, 1.0):
                adv, ret = gae(rewards, values, discount, lam)
                assert adv.shape == ret.shape == values[:-1].shape
                assert adv.dtype == ret.dtype == np.float64
                for head in np.ndindex(*heads_shape):
                    column = (slice(None), *head)
                    want = reference_gae(rewards, values[column], discount, lam)
                    assert adv[column].tobytes() == want[0].tobytes()
                    assert ret[column].tobytes() == want[1].tobytes()


def policy_rows(agents, obs):
    """``[U, E + 2]``: every agent's policy output at the one row ``obs``."""
    return np.stack([agent.nets["policy"].forward(obs) for agent in agents])


def server_logits(agent, obs):
    return agent.nets["policy"].forward(obs)[:-2]


def draw_one(agent, obs, n, rng):
    """``n`` actions of one agent at ``obs``, as per-sample columns."""
    return {key: col[:, 0] for key, col in draw_actions(policy_rows([agent], obs), n, rng).items()}


def reference_draw_actions(out, steps, rng):
    """The per-agent draw: each agent's own log-softmax and probabilities,
    then ``np.searchsorted(..., side="right")`` of its uniforms in its cdf."""
    logp_all = np.array([row[:-2] - _lse(row[:-2]) for row in out])
    probs = [np.exp(logp) for logp in logp_all]
    mean = np.array([float(row[-2]) for row in out])
    log_std = np.array([float(np.clip(row[-1], LOG_STD_MIN, LOG_STD_MAX)) for row in out])
    uniform = rng.random((steps, len(out)))
    normal = rng.standard_normal((steps, len(out)))
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    server = np.stack(
        [np.searchsorted(c, x, side="right") for c, x in zip(cdf, uniform.T)], axis=1
    )
    z = mean + np.exp(log_std) * normal
    correction = _log_sigmoid_slope(z)
    gauss = -0.5 * ((z - mean) / np.exp(log_std)) ** 2 - log_std - 0.5 * _LOG_2PI
    return {
        "server": server,
        "ratio": _sigmoid(z),
        "pre_squash": z,
        "logp_server": logp_all[np.arange(len(out)), server],
        "logp_ratio": gauss - correction,
        "squash_correction": correction,
    }


def greedy_reference(agents, obs):
    """Each agent's greedy pair, one agent at a time: argmax logit, squashed mean."""
    pairs = []
    for agent, o in zip(agents, obs):
        out = agent.nets["policy"].forward(o)
        pairs.append((int(np.argmax(out[:-2])), float(_sigmoid(float(out[-2])))))
    return pairs


def greedy_act(agents, obs):
    """``LearnedPolicy(agents).act`` with every agent observing the row ``obs``."""
    env = SimpleNamespace(observations=lambda: np.tile(obs, (len(agents), 1)))
    return LearnedPolicy(agents).act(env, None)


class TestHybridSampling:
    def test_server_frequencies_near_uniform(self):
        agent = HybridAgent(obs_dim=6, num_servers=4, hidden=16,
                            rng=np.random.default_rng(0))
        for net in agent.nets.values():
            for w in net.weights:
                w[:] = 0.0
        obs = np.zeros(6)
        rng = np.random.default_rng(1)
        counts = np.bincount(draw_one(agent, obs, 10_000, rng)["server"], minlength=4)
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)

    def test_ratio_strictly_inside_unit_interval(self):
        agent = HybridAgent(obs_dim=4, num_servers=2, hidden=8,
                            rng=np.random.default_rng(2))
        obs = np.ones(4)
        rng = np.random.default_rng(3)
        samples = draw_one(agent, obs, 500, rng)
        assert np.all((0.0 < samples["ratio"]) & (samples["ratio"] < 1.0))
        assert np.isfinite(samples["logp_server"]).all()
        assert np.isfinite(samples["logp_ratio"]).all()

    @pytest.mark.parametrize("num_servers", [1, 2, 3, 5])
    def test_draws_follow_generator_streams(self, num_servers):
        # servers by Generator.choice's rule on a random block, then the
        # pre-squash ratio from a standard_normal block
        agent = HybridAgent(obs_dim=4, num_servers=num_servers, hidden=8,
                            rng=np.random.default_rng(num_servers))
        for net in agent.nets.values():
            net.weights[-1] *= 100.0  # far from uniform
        obs = np.linspace(-1.0, 1.0, 4)
        out = agent.nets["policy"].forward(obs)
        logp_server = out[:-2] - _lse(out[:-2])
        log_std = np.clip(out[-1], LOG_STD_MIN, LOG_STD_MAX)
        for seed in range(5):
            samples = draw_one(agent, obs, 257, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            expected = rng.choice(num_servers, size=257, p=np.exp(logp_server))
            assert np.array_equal(samples["server"], expected)
            normal = rng.standard_normal(257)
            assert np.array_equal(samples["pre_squash"], out[-2] + np.exp(log_std) * normal)
            assert np.array_equal(samples["logp_server"], logp_server[expected])

    @pytest.mark.parametrize("num_servers", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("agents", [1, 3, 10])
    def test_matches_per_agent_reference(self, agents, num_servers):
        # the stacked draw against one log-softmax and one searchsorted per
        # agent, bit for bit; rows far from uniform, with a probability that
        # underflows to zero, and with log-stds beyond either clamp
        rng = np.random.default_rng(100 * agents + num_servers)
        for case in ("plain", "logits_x100", "underflow"):
            out = rng.normal(size=(agents, num_servers + 2))
            out[:, -1] *= 4.0
            if case == "logits_x100":
                out[0, :-2] *= 100.0
            elif case == "underflow" and num_servers > 1:
                out[-1, 0] = out[-1, 1:-2].max() - 800.0  # exp underflows to 0.0
                assert np.exp(out[-1, 0] - _lse(out[-1, :-2])) == 0.0
            for seed in range(3):
                got = draw_actions(out, 257, np.random.default_rng(seed))
                want = reference_draw_actions(out, 257, np.random.default_rng(seed))
                assert list(got) == list(want)
                for key in want:
                    assert got[key].dtype == want[key].dtype, key
                    assert got[key].tobytes() == want[key].tobytes(), key

    def test_agents_draw_from_their_own_heads(self):
        agents = [HybridAgent(obs_dim=3, num_servers=3, hidden=8,
                              rng=np.random.default_rng(seed)) for seed in (0, 1)]
        agents[1].nets["policy"].biases[-1][:3] = (-50.0, -50.0, 50.0)  # server logits
        obs = np.full(3, 0.5)
        actions = draw_actions(policy_rows(agents, obs), 300, np.random.default_rng(6))
        assert actions["server"].shape == (300, 2)
        assert (actions["server"][:, 1] == 2).all()
        assert len(np.unique(actions["server"][:, 0])) == 3

    def test_greedy_mode_deterministic(self):
        # LearnedPolicy acts on all agents' rows at once, bit for bit as one
        # agent at a time would, and the same way every time
        rng = np.random.default_rng(4)
        for num_servers in (1, 2, 3, 5):
            for _ in range(10):
                agents = [HybridAgent(obs_dim=4, num_servers=num_servers, hidden=8,
                                      rng=rng) for _ in range(6)]
                for agent in agents:
                    agent.nets["policy"].weights[-1] *= rng.choice([1.0, 100.0])
                obs = rng.normal(size=(6, 4))
                env = SimpleNamespace(observations=lambda: obs)
                pairs = LearnedPolicy(agents).act(env, None)
                assert pairs.shape == (6, 2) and pairs.dtype == np.float64
                want = np.array(greedy_reference(agents, obs), dtype=np.float64)
                assert pairs.tobytes() == want.tobytes()
                assert LearnedPolicy(agents).act(env, None).tobytes() == pairs.tobytes()

    def test_squashed_density_integrates_to_one(self):
        # change-of-variables check: integrate the implied density over (0, 1)
        agent = HybridAgent(obs_dim=3, num_servers=2, hidden=8,
                            rng=np.random.default_rng(5))
        obs = np.full(3, 0.7)
        _, mean, log_std = _read_heads(agent.nets["policy"].forward(obs))
        mean, std = float(mean), float(np.exp(log_std))
        ratios = np.linspace(1e-7, 1.0 - 1e-7, 200_001)
        z = np.log(ratios / (1.0 - ratios))
        gauss = np.exp(-0.5 * ((z - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi))
        density = gauss / (ratios * (1.0 - ratios))
        mass = float(np.sum((density[1:] + density[:-1]) / 2 * np.diff(ratios)))
        assert mass == pytest.approx(1.0, abs=1e-3)


def constant_batch(agent, obs, server, advantage, rng, n=32):
    """Batch of transitions at one observation sampled from the agent's current policy."""
    samples = draw_one(agent, obs, n, rng)
    if server is not None:
        logits = server_logits(agent, obs)
        samples["server"] = np.full(n, server)
        samples["logp_server"] = np.full(n, logits[server] - _lse(logits))
    return {
        "obs": obs,
        **samples,
        "adv": np.full(n, advantage),
        "ret": np.zeros(n),
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
        logits = server_logits(agent, obs)
        before = logits[1] - _lse(logits)
        ppo_update(agent, _make_optimizers([agent], cfg)[0], batch, cfg)
        logits = server_logits(agent, obs)
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
        out_w, out_b = agent.nets["policy"].weights[-1], agent.nets["policy"].biases[-1]
        before = out_w[:, :3].copy(), out_b[:3].copy()  # the server-logit columns
        ppo_update(agent, _make_optimizers([agent], cfg)[0], batch, cfg)
        assert np.array_equal(out_w[:, :3], before[0])
        assert np.array_equal(out_b[:3], before[1])

    def test_two_armed_bandit_concentrates(self):
        agent = HybridAgent(obs_dim=2, num_servers=2, hidden=16,
                            rng=np.random.default_rng(7))
        cfg = TrainConfig(
            learning_rate=0.01, entropy_coef=0.001, normalize_advantages=True,
            discount=0.0, gae_lambda=0.0, optimizer="adam",
        )
        opts = _make_optimizers([agent], cfg)[0]
        obs = np.ones(2)
        rng = np.random.default_rng(8)
        for _ in range(200):
            samples = draw_one(agent, obs, 64, rng)
            rewards = (samples["server"] == 0).astype(float)
            batch = {"obs": obs, **samples, "adv": rewards - agent.values(obs), "ret": rewards}
            ppo_update(agent, opts, batch, cfg)
            logits = server_logits(agent, obs)
            probs = np.exp(logits - _lse(logits))
            assert abs(probs.sum() - 1.0) < 1e-6
        logits = server_logits(agent, obs)
        probs = np.exp(logits - _lse(logits))
        assert probs[0] >= 0.95

    @pytest.mark.parametrize("normalize", [True, False], ids=["norm", "raw"])
    def test_both_heads_take_one_advantage(self, monkeypatch, normalize):
        # one critic: the server and ratio heads are weighted by the same
        # advantages, normalised once
        seen = []
        real_coef = marl._surrogate_coef

        def recording_coef(ratio, adv, clip_eps):
            seen.append(adv.copy())
            return real_coef(ratio, adv, clip_eps)

        monkeypatch.setattr(marl, "_surrogate_coef", recording_coef)
        agent = self.make_agent(seed=3)
        cfg = TrainConfig(normalize_advantages=normalize)
        batch = perturbed_batch(agent, np.full(4, 0.3), 64, seed=4)
        ppo_update(agent, _make_optimizers([agent], cfg)[0], batch, cfg)
        want = _normalize(batch["adv"]) if normalize else batch["adv"]
        assert len(seen) == 2  # the server head, then the ratio head
        for adv in seen:
            assert adv.tobytes() == want.tobytes()

    def test_non_finite_loss_aborts(self):
        agent = self.make_agent(seed=2)
        cfg = TrainConfig()
        obs = np.full(4, 0.1)
        batch = constant_batch(agent, obs, server=0, advantage=1.0,
                               rng=np.random.default_rng(3))
        batch["adv"] = np.full(32, np.nan)
        with pytest.raises(TrainingError, match="non-finite"):
            ppo_update(agent, _make_optimizers([agent], cfg)[0], batch, cfg)


def reference_ppo_update(agent, optimizers, batch, cfg):
    """The tiled update: every network runs on ``batch["obs"]``, one row per
    sample, and steps along the sum of the per-sample gradients; the policy
    along both heads' at once."""
    obs = batch["obs"]
    n = len(obs)
    adv = batch["adv"]
    if cfg.normalize_advantages and n > 1:
        adv = _normalize(adv)

    out, cache_p = reference_forward(agent.nets["policy"], obs)
    logits = out[:, :-2]
    logp_all = logits - np.array([_lse(row) for row in logits])[:, None]
    probs = np.exp(logp_all)
    logp_new = logp_all[np.arange(n), batch["server"]]
    ratio = np.exp(logp_new - batch["logp_server"])
    surr_a = np.minimum(
        ratio * adv, np.clip(ratio, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon) * adv
    )
    entropy_a = -(probs * logp_all).sum(axis=1)
    coef = _surrogate_coef(ratio, adv, cfg.clip_epsilon)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), batch["server"]] = 1.0
    up_out = np.zeros_like(out)
    up_out[:, :-2] = -(coef / n)[:, None] * (one_hot - probs)
    up_out[:, :-2] += (cfg.entropy_coef / n) * probs * (logp_all + entropy_a[:, None])

    mean = out[:, -2]
    raw_ls = out[:, -1]
    log_std = np.clip(raw_ls, LOG_STD_MIN, LOG_STD_MAX)
    ls_open = (raw_ls > LOG_STD_MIN) & (raw_ls < LOG_STD_MAX)
    std = np.exp(log_std)
    zscore = (batch["pre_squash"] - mean) / std
    logp_new_r = (
        -0.5 * zscore**2 - log_std - 0.5 * _LOG_2PI - batch["squash_correction"]
    )
    ratio_r = np.exp(logp_new_r - batch["logp_ratio"])
    surr_r = np.minimum(
        ratio_r * adv, np.clip(ratio_r, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon) * adv
    )
    entropy_r = log_std + 0.5 * (_LOG_2PI + 1.0)
    coef_r = _surrogate_coef(ratio_r, adv, cfg.clip_epsilon)
    up_out[:, -2] = -(coef_r / n) * (zscore / std)
    up_out[:, -1] = (-(coef_r / n) * (zscore**2 - 1.0) - cfg.entropy_coef / n) * ls_open
    optimizers["policy"].step(reference_backward(agent.nets["policy"], cache_p, up_out))

    v, cache_v = reference_forward(agent.nets["value"], obs)
    err = v[:, 0] - batch["ret"]
    up_v = (2.0 * err / n)[:, None]
    optimizers["value"].step(reference_backward(agent.nets["value"], cache_v, up_v))

    return UpdateStats(
        policy_loss=float(-(surr_a.mean() + surr_r.mean())),
        value_loss=float(np.mean(err**2)),
        entropy=float(entropy_a.mean() + entropy_r.mean()),
    )


def perturbed_batch(agent, obs, n, seed):
    """Batch at ``obs`` whose old log-probs, advantages and returns are jittered,
    so that some samples sit outside the clipping range on either side."""
    rng = np.random.default_rng(seed)
    batch = constant_batch(agent, obs, None, 0.0, rng, n=n)
    batch["logp_server"] = batch["logp_server"] + rng.normal(0.0, 0.3, n)
    batch["logp_ratio"] = batch["logp_ratio"] + rng.normal(0.0, 0.3, n)
    for key in ("adv", "ret"):
        batch[key] = rng.normal(0.0, 2.0, n)
    return batch


class TestOneRowUpdate:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("normalize", [True, False], ids=["norm", "raw"])
    @pytest.mark.parametrize("num_servers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 128])
    @pytest.mark.parametrize("log_std_bias", [0.0, LOG_STD_MAX + 1.0], ids=["open", "clamped"])
    def test_matches_tiled_reference(self, optimizer, normalize, num_servers, n, log_std_bias):
        cfg = TrainConfig(optimizer=optimizer, normalize_advantages=normalize,
                          learning_rate=0.01)
        agents = [HybridAgent(obs_dim=6, num_servers=num_servers, hidden=32,
                              rng=np.random.default_rng(num_servers)) for _ in range(2)]
        for agent in agents:
            agent.nets["policy"].biases[-1][-1] = log_std_bias
        obs = np.linspace(0.0, 1.0, 6)
        batch = perturbed_batch(agents[0], obs, n, seed=10 * num_servers + n)
        tiled = dict(batch, obs=np.tile(obs, (n, 1)))
        before = {name: net.params.copy() for name, net in agents[0].nets.items()}
        ref = reference_ppo_update(agents[0], _make_optimizers([agents[0]], cfg)[0], tiled, cfg)
        got = ppo_update(agents[1], _make_optimizers([agents[1]], cfg)[0], batch, cfg)
        for name, net in agents[0].nets.items():
            vec = net.params
            if n > 1:
                assert not np.array_equal(vec, before[name]), name
            delta = np.abs(agents[1].nets[name].params - vec).max()
            assert delta <= 1e-12 * np.abs(vec).max(), name
        for field in ("policy_loss", "value_loss", "entropy"):
            assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12, abs=0)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_one_server_policy_untouched(self, optimizer):
        # with one server the discrete head's gradient is exactly zero
        # (probs == [1.0]), so its column of the output layer never moves;
        # any rounding residue would become a full-size Adam step
        cfg = TrainConfig(optimizer=optimizer)
        agent = HybridAgent(obs_dim=5, num_servers=1, hidden=16, rng=np.random.default_rng(3))
        obs = np.full(5, 0.3)
        out_w, out_b = agent.nets["policy"].weights[-1], agent.nets["policy"].biases[-1]
        before = out_w[:, 0].copy(), out_b[0]
        opts = _make_optimizers([agent], cfg)[0]
        for seed in range(5):
            ppo_update(agent, opts, perturbed_batch(agent, obs, 128, seed), cfg)
        assert np.array_equal(out_w[:, 0], before[0]) and out_b[0] == before[1]


def head_losses(net, batch, cfg):
    """The server head's and the ratio head's loss at ``net``'s parameters:
    each its negated mean clipped surrogate minus its entropy bonus."""
    adv = batch["adv"]
    if cfg.normalize_advantages and len(adv) > 1:
        adv = _normalize(adv)
    out = net.forward(batch["obs"])
    logits, mean, log_std = out[:-2], out[-2], np.clip(out[-1], LOG_STD_MIN, LOG_STD_MAX)
    low, high = 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon

    logp_all = logits - _lse(logits)
    ratio = np.exp(logp_all[batch["server"]] - batch["logp_server"])
    surr = np.minimum(ratio * adv, np.clip(ratio, low, high) * adv)
    entropy = -(np.exp(logp_all) * logp_all).sum()
    server_loss = -surr.mean() - cfg.entropy_coef * entropy

    std = np.exp(log_std)
    logp_r = (-0.5 * ((batch["pre_squash"] - mean) / std) ** 2 - log_std - 0.5 * _LOG_2PI
              - batch["squash_correction"])
    ratio_r = np.exp(logp_r - batch["logp_ratio"])
    surr_r = np.minimum(ratio_r * adv, np.clip(ratio_r, low, high) * adv)
    ratio_loss = -surr_r.mean() - cfg.entropy_coef * (log_std + 0.5 * (_LOG_2PI + 1.0))
    return server_loss, ratio_loss


class TestSharedTorso:
    @pytest.mark.parametrize("normalize", [True, False], ids=["norm", "raw"])
    def test_policy_gradient_sums_both_heads(self, normalize):
        # the policy steps along the server head's loss gradient plus the
        # ratio head's, each taken by central differences; on the shared
        # layers both heads contribute
        cfg = TrainConfig(entropy_coef=0.05, normalize_advantages=normalize)
        agent = HybridAgent(obs_dim=5, num_servers=3, hidden=8, rng=np.random.default_rng(11))
        batch = perturbed_batch(agent, np.linspace(-0.5, 0.5, 5), 16, seed=12)
        opts = _make_optimizers([agent], cfg)[0]
        steps = []
        opts["policy"].step = lambda grad: steps.append(grad.copy())
        ppo_update(agent, opts, batch, cfg)
        (grad,) = steps

        net = agent.nets["policy"]
        theta = net.params.copy()
        h = 1e-6
        numeric = np.zeros((2, net.num_params))
        for i in range(net.num_params):
            for sign in (1.0, -1.0):
                net.params[i] = theta[i] + sign * h
                numeric[:, i] += sign * np.array(head_losses(net, batch, cfg)) / (2 * h)
            net.params[i] = theta[i]
        scale = np.abs(grad).max()
        assert np.abs(grad - numeric.sum(axis=0)).max() <= 1e-6 * scale
        torso = net.num_params - net.weights[-1].size - net.biases[-1].size
        for head in numeric:
            assert np.abs(head[:torso]).max() > 1e-3 * scale


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
        assert counts["rollout"] == 2 * agents * cfg.epochs
        assert counts["update"] == 2 * agents * cfg.epochs * cfg.updates_per_epoch

    def test_one_gae_call_per_epoch(self, monkeypatch):
        shapes = []
        real_gae = marl.gae

        def counting_gae(rewards, values, discount, lam):
            shapes.append(np.shape(values))
            return real_gae(rewards, values, discount, lam)

        monkeypatch.setattr(marl, "gae", counting_gae)
        cfg = self.smoke_config()
        train(gen_scenario(3, 2, seed=0), cfg, seed=0)
        assert shapes == [(cfg.steps_per_epoch + 1, 3)] * cfg.epochs

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
                assert np.array_equal(a.nets[name].params, b.nets[name].params)
        # and identical to a run that never updates at all
        reference = train(scenario, self.smoke_config(epochs=1, learning_rate=0.0,
                                                      updates_per_epoch=1), seed=3)
        assert np.array_equal(
            result.agents[0].nets["policy"].params,
            reference.agents[0].nets["policy"].params,
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

    def test_non_finite_parameters_restore_last_good_checkpoint(
        self, tmp_path, monkeypatch
    ):
        scenario = gen_scenario(2, 2, seed=0)
        cfg = self.smoke_config(epochs=3, updates_per_epoch=1)
        after_epoch0 = train(scenario, self.smoke_config(epochs=1, updates_per_epoch=1),
                             seed=4).agents
        calls = []
        real_update = marl.ppo_update

        def poisoning_update(agent, optimizers, batch, cfg):
            stats = real_update(agent, optimizers, batch, cfg)
            calls.append(agent)
            if len(calls) == len(scenario.columns.f_local) + 1:  # epoch 1, first agent
                agent.nets["value"].weights[1][0, 0] = np.nan
            return stats

        monkeypatch.setattr(marl, "ppo_update", poisoning_update)
        path = tmp_path / "agents.npz"
        with pytest.raises(TrainingError, match=r"non-finite parameters for agents \[0\]"):
            train(scenario, cfg, seed=4, checkpoint_path=path)
        for want, got in zip(after_epoch0, load_checkpoint(path), strict=True):
            for name in want.nets:
                assert np.array_equal(want.nets[name].params, got.nets[name].params)
        assert np.isfinite(calls[0].params).all()  # agent 0, poisoned, was rolled back

        # without a path nothing is kept or written: the poisoned row stays
        saved = []
        monkeypatch.setattr(marl, "save_checkpoint", lambda *args: saved.append(args))
        monkeypatch.chdir(tmp_path)
        calls.clear()
        with pytest.raises(TrainingError, match="non-finite parameters"):
            train(scenario, cfg, seed=4)
        assert saved == []
        assert np.isnan(calls[0].nets["value"].weights[1][0, 0])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["agents.npz"]

    def test_curve_written(self, tmp_path):
        scenario = gen_scenario(2, 2, seed=3)
        path = tmp_path / "curve.csv"
        train(scenario, self.smoke_config(), seed=1, curve_path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,mean_cost,policy_loss,value_loss,entropy"
        assert len(lines) == 4

    def test_curve_rows_follow_curve_columns(self):
        result = train(gen_scenario(2, 2, seed=3), self.smoke_config(), seed=1)
        assert [list(row) for row in result.curve] == [list(marl.CURVE_COLUMNS)] * 3
        assert [row["epoch"] for row in result.curve] == [0, 1, 2]


class TestMemoryBlocks:
    """A run keeps its parameters in one block and its optimizer state in another."""

    users, servers, hidden = 3, 2, 8

    def run(self, monkeypatch, optimizer="adam"):
        """Train briefly; return the result and every optimizer the run updated with."""
        seen = []
        real_update = marl.ppo_update

        def recording_update(agent, optimizers, batch, cfg):
            seen.extend(optimizers.values())
            return real_update(agent, optimizers, batch, cfg)

        monkeypatch.setattr(marl, "ppo_update", recording_update)
        cfg = TrainConfig(epochs=2, steps_per_epoch=8, updates_per_epoch=1, batch_size=8,
                          hidden_units=self.hidden, optimizer=optimizer)
        result = train(gen_scenario(self.users, self.servers, seed=0), cfg, seed=3)
        return result, list({id(opt): opt for opt in seen}.values())

    def test_networks_are_rows_of_one_parameter_block(self, monkeypatch):
        result, _ = self.run(monkeypatch)
        agent0 = result.agents[0]
        size = HybridAgent.param_count(agent0.obs_dim, self.servers, self.hidden)
        block = agent0.params.base
        assert block.shape == (self.users, size)
        # nothing but parameters: a returned result pins no optimizer state
        assert block.nbytes == self.users * size * 8
        for u, agent in enumerate(result.agents):
            assert agent.params.base is block and np.shares_memory(agent.params, block[u])
            offset = 0
            names = ("policy", "value")
            for name, net in zip(names, agent.nets.values(), strict=True):
                assert net is agent.nets[name] and net.params.base is block
                assert np.shares_memory(net.params, block[u, offset : offset + net.num_params])
                offset += net.num_params
            assert offset == size

    def test_optimizer_state_shares_another_block(self, monkeypatch):
        result, optimizers = self.run(monkeypatch)
        params = result.agents[0].params.base
        assert len(optimizers) == 2 * self.users
        state = optimizers[0].m.base
        assert state is not None and not np.shares_memory(state, params)
        start = state.__array_interface__["data"][0]
        cover = np.zeros(state.size, dtype=int)
        for opt in optimizers:
            assert opt.grad.base is state
            for moment in (opt.m, opt.v):
                assert moment.base is state and moment.size == opt.net.num_params
                offset = (moment.__array_interface__["data"][0] - start) // 8
                cover[offset : offset + moment.size] += 1
        assert cover.max() == 1  # no two moments overlap
        assert cover.sum() == 2 * params.size

    def test_sgd_run_has_no_moments(self, monkeypatch):
        result, optimizers = self.run(monkeypatch, optimizer="sgd")
        widest = max(net.num_params for net in result.agents[0].nets.values())
        assert {opt.grad.base.shape for opt in optimizers} == {(3 * widest,)}

    def test_copies_leave_the_block(self, monkeypatch, tmp_path):
        result, _ = self.run(monkeypatch)
        agents = result.agents
        block = agents[0].params.base
        path = tmp_path / "agents.npz"
        save_checkpoint(path, agents)
        restored = load_checkpoint(path)
        for agent, copy in zip(agents, restored, strict=True):
            assert copy.params.tobytes() == agent.params.tobytes()
            assert not np.shares_memory(copy.params, block)
        before = block.copy()
        agents[1].params[:] = 0.0
        assert not block[1].any()
        assert np.array_equal(block[[0, 2]], before[[0, 2]])
        for copy, row in zip(restored, before, strict=True):
            assert copy.params.tobytes() == row.tobytes()

    def test_finiteness_check_names_each_bad_row(self, monkeypatch):
        real_update = marl.ppo_update
        poison = {1: np.inf, 2: -np.inf}
        calls = []

        def poisoning_update(agent, optimizers, batch, cfg):
            stats = real_update(agent, optimizers, batch, cfg)
            if len(calls) in poison:
                agent.nets["policy"].biases[0][0] = poison[len(calls)]
            calls.append(agent)
            return stats

        monkeypatch.setattr(marl, "ppo_update", poisoning_update)
        cfg = TrainConfig(epochs=2, steps_per_epoch=8, updates_per_epoch=1, batch_size=8,
                          hidden_units=self.hidden)
        with pytest.raises(TrainingError, match=r"non-finite parameters for agents \[1, 2\]"):
            train(gen_scenario(self.users, self.servers, seed=0), cfg, seed=3)
        assert len(calls) == self.users

    def test_agent_draws_into_a_caller_vector_as_into_its_own(self):
        own = HybridAgent(obs_dim=5, num_servers=2, hidden=8, rng=np.random.default_rng(4))
        vec = np.full(own.params.size, 7.0)  # biases must come out zero all the same
        placed = HybridAgent(obs_dim=5, num_servers=2, hidden=8,
                             rng=np.random.default_rng(4), params=vec)
        assert placed.params is vec
        assert vec.tobytes() == own.params.tobytes()
        with pytest.raises(ValueError, match="parameters per agent"):
            HybridAgent(obs_dim=5, num_servers=2, hidden=8, rng=np.random.default_rng(4),
                        params=np.zeros(own.params.size + 1))

    def test_agent_views_a_given_row_without_drawing(self):
        source = HybridAgent(obs_dim=5, num_servers=2, hidden=8, rng=np.random.default_rng(4))
        source.params += 0.25  # biases too: a view must not zero them
        block = np.stack([np.full(source.params.size, 7.0), source.params])
        before = block.tobytes()
        agent = HybridAgent(obs_dim=5, num_servers=2, hidden=8, params=block[1])
        assert block.tobytes() == before  # nothing drawn or zeroed
        assert np.shares_memory(agent.params, block[1])
        assert all(net.params.base is block for net in agent.nets.values())
        obs = np.linspace(0.0, 1.0, 5)
        assert greedy_act([agent], obs).tobytes() == greedy_act([source], obs).tobytes()
        assert agent.values(obs) == source.values(obs)
        assert not HybridAgent(obs_dim=5, num_servers=2, hidden=8).params.any()


def trained_agents(users, servers, hidden=16):
    """Agents of a short training run on a ``users`` x ``servers`` scenario."""
    cfg = TrainConfig(epochs=2, steps_per_epoch=8, updates_per_epoch=1,
                      batch_size=8, hidden_units=hidden)
    return train(gen_scenario(users, servers, seed=0), cfg, seed=9).agents


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        agents = trained_agents(2, 2)
        path = tmp_path / "agents.npz"
        save_checkpoint(path, agents)
        # a reader ignores entries it does not know, such as a scenario_seed
        other = tmp_path / "other.npz"
        with np.load(path) as data:
            assert "scenario_seed" not in data
            np.savez(other, **data, scenario_seed=np.float64(0))
        obs = np.full(12, 0.4)
        for restored in (load_checkpoint(path), load_checkpoint(other)):
            assert greedy_act(restored, obs).tobytes() == greedy_act(agents, obs).tobytes()
            for a, b in zip(agents, restored, strict=True):
                for name in a.nets:
                    assert np.array_equal(a.nets[name].params, b.nets[name].params)

    def test_file_holds_the_parameter_block(self, tmp_path):
        agents = trained_agents(3, 2)
        path = tmp_path / "agents.npz"
        save_checkpoint(path, agents)
        with np.load(path) as data:
            assert sorted(data.files) == [
                "hidden_units", "num_servers", "obs_dim", "params", "schema_version"
            ]
            assert int(data["schema_version"]) == 4
            first = agents[0]
            assert [int(data[key]) for key in ("obs_dim", "num_servers", "hidden_units")] == [
                first.obs_dim, first.num_servers, first.hidden
            ]
            params = data["params"]
        assert params.dtype == np.float64
        assert params.tobytes() == first.params.base.tobytes()  # train's [U, P] block

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        scenario = gen_scenario(2, 3, seed=0)
        cfg = TrainConfig(epochs=1, steps_per_epoch=8, updates_per_epoch=1,
                          batch_size=8, hidden_units=16)
        agents = train(scenario, cfg, seed=9).agents
        path = tmp_path / "agents.npz"
        save_checkpoint(path, agents)
        # a network draws only from a generator it is given, and none can be
        # made without one of these
        drawn, real_init = [], Mlp.__init__

        def recording_init(self, sizes, rng=None, *args, **kwargs):
            if rng is not None:
                drawn.append(sizes)
            real_init(self, sizes, rng, *args, **kwargs)

        monkeypatch.setattr(Mlp, "__init__", recording_init)
        for name in ("default_rng", "Generator", "RandomState"):
            monkeypatch.setattr(np.random, name, lambda *args, **kwargs: drawn.append(args))
        restored = load_checkpoint(path)
        assert drawn == []
        # one loaded [U, P] block: every agent is a row of its buffer
        block = restored[0].params.base
        assert block.nbytes == 2 * restored[0].params.nbytes
        assert not np.shares_memory(restored[0].params, restored[1].params)
        for a, b in zip(agents, restored, strict=True):
            assert (a.obs_dim, a.num_servers, a.hidden) == (b.obs_dim, b.num_servers, b.hidden)
            assert b.params.base is block
            assert list(a.nets) == list(b.nets)
            for name in a.nets:
                assert a.nets[name].sizes == b.nets[name].sizes
                assert np.array_equal(a.nets[name].params, b.nets[name].params)
                assert b.nets[name].params.base is block
                assert np.shares_memory(b.nets[name].params, b.params)

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


class TestPickle:
    def test_agent_pickles_as_its_row(self):
        agents = trained_agents(3, 2, hidden=32)
        block = agents[0].params.base
        data = pickle.dumps(agents)
        # one copy of the parameters, not one per view
        assert len(data) < 1.05 * block.nbytes
        obs = np.linspace(0.0, 1.0, agents[0].obs_dim)
        copies = pickle.loads(data)
        assert greedy_act(copies, obs).tobytes() == greedy_act(agents, obs).tobytes()
        for agent, copy in zip(agents, copies, strict=True):
            assert not np.shares_memory(copy.params, block)
            assert copy.params.tobytes() == agent.params.tobytes()
            assert list(copy.nets) == list(agent.nets)
            for net in copy.nets.values():
                assert net.params.base is copy.params
                assert all(w.base is copy.params for w in net.weights + net.biases)
