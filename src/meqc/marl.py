"""Multi-agent PPO over the hybrid server/ratio action space.

Every user is an independent learner holding one policy network and one
critic.  The policy's shared torso feeds two heads, a categorical head
over servers and a sigmoid-squashed Gaussian head for the local ratio,
both judged by the one value network, as in H-PPO (Fan et al. 2019,
arXiv:1903.01344).  A policy output row is the server logits, then the
ratio's pre-squash mean and log-std; one reader, ``_read_heads``, turns
rows into the action distribution for the rollout's draw and the update,
and ``LearnedPolicy`` acts on the same stacked rows.  Rollouts come from
the shared environment (team reward), advantages from generalized
advantage estimation against the agent's critic, and updates from the
clipped surrogate objective.  An agent's observation is fixed within a
training epoch, so every network call is on that one row: each network
runs once per epoch in the rollout, whose epoch is one table of
``[T, U]`` columns (one batched draw from the stacked ``[U, E + 2]``
policy rows, one ``gae`` pass over all U constant critic baselines), and
once forward and backward per update, fed the per-sample gradients
summed over the minibatch, both heads' at once.
All numerics run on the hand-rolled, one-row ``nn.Mlp``.  An agent and
each of its networks are views of a given parameter vector, or of zeros,
and draw only when given a generator.  A run lives in two blocks: agent
``u`` views row ``u`` of one parameter block, and every optimizer's
moments, gradient row and step scratch are views of one optimizer-state
block, freed when ``train`` returns.  A checkpoint holds the parameter
block and the shape it was cut by; loading one puts the agents back over
its rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import MeqcEnv, observation_length
from .nn import Adam, Mlp, Sgd
from .workload import Scenario

CHECKPOINT_SCHEMA_VERSION = 4
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))
# one learning-curve row per epoch: its mean per-step cost, then the
# epoch means of the ``UpdateStats`` fields named after it (``value_loss``
# is the one critic's squared error)
CURVE_COLUMNS = ("epoch", "mean_cost", "policy_loss", "value_loss", "entropy")


class TrainingError(RuntimeError):
    """Raised when an update produces non-finite numbers."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    epochs: int = 500
    steps_per_epoch: int = 2000
    updates_per_epoch: int = 2
    batch_size: int = 128
    discount: float = 0.95
    learning_rate: float = 1e-3
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    entropy_coef: float = 0.01
    normalize_advantages: bool = True
    hidden_units: int = 256
    optimizer: str = "adam"
    redraw_tasks: bool = False

    def __post_init__(self):
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must lie in [0, 1]")
        for name in ("epochs", "steps_per_epoch", "updates_per_epoch", "batch_size",
                     "hidden_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.clip_epsilon <= 0.0:
            raise ValueError("clip_epsilon must be > 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -700.0, 700.0)))


def _log_sigmoid_slope(z):
    """log of d(sigmoid)/dz, computed stably for large |z|."""
    return -(_softplus(z) + _softplus(-z))


def _read_heads(out):
    """Server log-probabilities, pre-squash mean and clamped log-std of
    policy rows ``[..., E + 2]``."""
    logits = out[..., :-2]
    top = logits.max(axis=-1, keepdims=True)
    logp_server = logits - (top + np.log(np.exp(logits - top).sum(axis=-1, keepdims=True)))
    return logp_server, out[..., -2], np.clip(out[..., -1], LOG_STD_MIN, LOG_STD_MAX)


def _gaussian_log_density(zscore, log_std):
    """Log-density of a Gaussian with ``log_std`` at ``zscore`` deviations from its mean."""
    return -0.5 * zscore**2 - log_std - 0.5 * _LOG_2PI


def draw_actions(out: np.ndarray, steps: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """``steps`` (server, ratio) draws per agent from its policy row of ``out``
    (``[agents, E + 2]``), as ``[steps, agents]`` columns.

    Consumes one ``random`` block, then one ``standard_normal`` block.
    Servers follow ``Generator.choice(p=probs)``: the right insertion point
    of the uniform draw in the normalised cumulative probabilities.  The
    ratio is a squashed Gaussian draw; its log-density carries the
    change-of-variables correction ``-log sigmoid'(z)``, so the reported
    value is the density of the ratio itself.
    """
    logp_all, mean, log_std = _read_heads(out)
    uniform = rng.random((steps, len(out)))
    normal = rng.standard_normal((steps, len(out)))
    cdf = np.cumsum(np.exp(logp_all), axis=1)
    cdf /= cdf[:, -1:]
    server = (uniform[..., None] >= cdf).sum(-1)
    std = np.exp(log_std)
    z = mean + std * normal
    correction = _log_sigmoid_slope(z)
    return {
        "server": server,
        "ratio": _sigmoid(z),
        "pre_squash": z,
        "logp_server": logp_all[np.arange(len(out)), server],
        "logp_ratio": _gaussian_log_density((z - mean) / std, log_std) - correction,
        "squash_correction": correction,
    }


def _net_layouts(obs_dim: int, num_servers: int, hidden: int) -> dict:
    """``(sizes, out_scale)`` of each of an agent's networks, in draw order.

    The policy's outputs are the server logits, then the ratio's pre-squash
    mean and log-std.
    """
    return {
        "policy": ((obs_dim, hidden, hidden, num_servers + 2), 0.01),
        "value": ((obs_dim, hidden, hidden, 1), 1.0),
    }


class HybridAgent:
    """One user's policy network, whose torso feeds both heads, and its value network.

    ``params`` holds the parameters of both networks, one after another
    in ``_net_layouts`` order, and each network's ``params`` is a view of it.
    The agent views a given ``params``, such as a row of a run's parameter
    block, or zeros of its own; only with ``rng`` do its networks draw their
    initial weights into it, in that order.  An agent pickles as its shape
    and ``params``, so its networks stay views.
    """

    def __init__(self, obs_dim: int, num_servers: int, hidden: int,
                 rng: np.random.Generator | None = None, params: np.ndarray | None = None):
        self.obs_dim = obs_dim
        self.num_servers = num_servers
        self.hidden = hidden
        if params is None:
            params = np.zeros(self.param_count(obs_dim, num_servers, hidden))
        self.params = params
        views = self.split(params)
        self.nets = {
            name: Mlp(sizes, rng, out_scale=out_scale, params=views[name])
            for name, (sizes, out_scale) in _net_layouts(obs_dim, num_servers, hidden).items()
        }

    def __reduce__(self):
        return HybridAgent, (self.obs_dim, self.num_servers, self.hidden, None, self.params)

    @staticmethod
    def param_count(obs_dim: int, num_servers: int, hidden: int) -> int:
        """Length of an agent's ``params``: the sum over its networks."""
        layouts = _net_layouts(obs_dim, num_servers, hidden).values()
        return sum(Mlp.param_count(sizes) for sizes, _ in layouts)

    def split(self, array: np.ndarray) -> dict[str, np.ndarray]:
        """Per-network views of ``array``'s last axis, laid out like ``params``."""
        views = {}
        offset = 0
        for name, (sizes, _) in _net_layouts(self.obs_dim, self.num_servers, self.hidden).items():
            count = Mlp.param_count(sizes)
            views[name] = array[..., offset : offset + count]
            offset += count
        if array.shape[-1] != offset:
            raise ValueError(f"expected {offset} parameters per agent, got {array.shape[-1]}")
        return views

    def values(self, obs) -> float:
        """The critic's estimate at one observation."""
        return float(self.nets["value"].forward(obs)[0])


def _policy_rows(agents: list[HybridAgent], obs: np.ndarray) -> np.ndarray:
    """``[U, E + 2]``: each agent's policy output at its observation row."""
    return np.stack([agent.nets["policy"].forward(o) for agent, o in zip(agents, obs)])


def _non_finite_rows(params: np.ndarray) -> list[int]:
    """Indices of the rows of a ``[U, P]`` block holding a NaN or infinity."""
    # a row is finite iff its extremes are, as min and max propagate NaN;
    # np.isfinite(params) would add a block-sized temporary
    finite = np.isfinite(params.min(axis=1)) & np.isfinite(params.max(axis=1))
    return np.flatnonzero(~finite).tolist()


def gae(
    rewards: np.ndarray, values: np.ndarray, discount: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over one or more critics sharing ``rewards``.

    ``values`` is ``[T+1]`` or ``[T+1, ...]``: one entry per step plus the
    bootstrap value of the state after the last step, each trailing
    column one critic's baseline.  Returns (advantages, returns) shaped like
    ``values[:-1]``, where returns are advantages plus the baseline.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    steps = len(rewards)
    if len(values) != steps + 1:
        raise ValueError("values must have one more entry than rewards")
    step_rewards = rewards.reshape((steps,) + (1,) * (values.ndim - 1))
    deltas = step_rewards + discount * values[1:] - values[:-1]
    # Python floats: numpy's IEEE operations in its order, without per-step scalar boxing
    decay = discount * lam
    per_head = []
    for column in deltas.reshape(steps, values[0].size).T.tolist():
        backward = []
        acc = 0.0
        for delta in reversed(column):
            acc = delta + decay * acc
            backward.append(acc)
        per_head.append(backward[::-1])
    advantages = np.array(per_head).T.reshape(deltas.shape)
    return advantages, advantages + values[:-1]


@dataclass(frozen=True)
class UpdateStats:
    """An update's summed policy loss, its critic's mean squared error and
    its summed entropy."""

    policy_loss: float
    value_loss: float
    entropy: float


def _normalize(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def _surrogate_coef(ratio, adv, clip_eps):
    """Per-sample d(clipped surrogate)/d(log-prob); zero where clipping gates."""
    gated = ((ratio > 1.0 + clip_eps) & (adv > 0)) | (
        (ratio < 1.0 - clip_eps) & (adv < 0)
    )
    return np.where(gated, 0.0, ratio * adv)


def ppo_update(agent: HybridAgent, optimizers: dict, batch: dict, cfg: TrainConfig) -> UpdateStats:
    """One clipped-surrogate update of both networks on one minibatch.

    ``batch["obs"]`` is the observation every sample shares, so each
    network runs forward and backward once, on that row, fed the sum of the
    per-sample upstream gradients (backprop is linear in the upstream).
    Both policy heads maximize the clipped objective plus an entropy bonus,
    on the same (normalised) advantages, and the policy steps once along
    the sum of their gradients; the critic descends on squared error
    against the GAE returns.  Raises ``TrainingError`` if any loss goes
    non-finite.
    """
    obs = batch["obs"]
    server = batch["server"]
    n = len(server)
    adv = batch["adv"]
    if cfg.normalize_advantages and n > 1:
        adv = _normalize(adv)
    out, cache_p = agent.nets["policy"].forward_cached(obs)
    logp_all, mean, log_std = _read_heads(out)

    # Discrete head.
    probs = np.exp(logp_all)
    ratio = np.exp(logp_all[server] - batch["logp_server"])
    surr_a = np.minimum(
        ratio * adv, np.clip(ratio, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon) * adv
    )
    entropy_a = -(probs * logp_all).sum()
    coef = _surrogate_coef(ratio, adv, cfg.clip_epsilon)
    up_logits = -(coef / n)[:, None] * (np.eye(len(probs))[server] - probs)
    up_logits += (cfg.entropy_coef / n) * probs * (logp_all + entropy_a)

    # Continuous head.
    ls_open = LOG_STD_MIN < out[-1] < LOG_STD_MAX
    std = np.exp(log_std)
    zscore = (batch["pre_squash"] - mean) / std
    logp_new_r = _gaussian_log_density(zscore, log_std) - batch["squash_correction"]
    ratio_r = np.exp(logp_new_r - batch["logp_ratio"])
    surr_r = np.minimum(
        ratio_r * adv, np.clip(ratio_r, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon) * adv
    )
    entropy_r = log_std + 0.5 * (_LOG_2PI + 1.0)
    coef_r = _surrogate_coef(ratio_r, adv, cfg.clip_epsilon)
    up_mean = -(coef_r / n) * (zscore / std)
    up_ls = (-(coef_r / n) * (zscore**2 - 1.0) - cfg.entropy_coef / n) * ls_open

    # Both heads through the shared torso: one backward of their joint upstream.
    up_out = np.concatenate([up_logits.sum(0), [up_mean.sum(), up_ls.sum()]])
    optimizers["policy"].descend(cache_p, up_out)

    # Critic.
    v, cache_v = agent.nets["value"].forward_cached(obs)
    err = v[0] - batch["ret"]
    optimizers["value"].descend(cache_v, np.array([(2.0 * err / n).sum()]))

    stats = UpdateStats(
        policy_loss=float(-(surr_a.mean() + surr_r.mean())),
        value_loss=float(np.mean(err**2)),
        entropy=float(entropy_a + entropy_r),
    )
    if not all(np.isfinite(v) for v in (stats.policy_loss, stats.value_loss, stats.entropy)):
        raise TrainingError(
            f"non-finite update: policy_loss={stats.policy_loss} "
            f"value_loss={stats.value_loss} entropy={stats.entropy}"
        )
    return stats


def _make_optimizers(agents: list[HybridAgent], cfg: TrainConfig) -> list[dict]:
    """One optimizer per network of every agent, all state in one fresh block.

    Updates run one network at a time, so every network of every agent
    shares one gradient row and step scratch pair, sized to the largest
    network.  Adam's moments follow as ``[U, 2, P]``: each agent's ``m``
    and ``v`` rows, laid out like its ``params``.  This block stays apart
    from the parameter block, so the agents a run returns keep none of it.
    """
    width = max(net.num_params for net in agents[0].nets.values())
    count = agents[0].params.size
    adam = cfg.optimizer == "adam"
    state = np.zeros(3 * width + (2 * len(agents) * count if adam else 0))
    buffers = state[: 3 * width].reshape(3, width)
    if not adam:
        return [
            {name: Sgd(net, cfg.learning_rate, buffers=buffers)
             for name, net in agent.nets.items()}
            for agent in agents
        ]
    optimizers = []
    for agent, moments in zip(agents, state[3 * width :].reshape(len(agents), 2, count)):
        views = agent.split(moments)
        optimizers.append({
            name: Adam(net, cfg.learning_rate, buffers=buffers, moments=views[name])
            for name, net in agent.nets.items()
        })
    return optimizers


@dataclass
class TrainResult:
    agents: list[HybridAgent]
    curve: list[dict] = field(default_factory=list)

    @property
    def final_mean_cost(self) -> float:
        return self.curve[-1]["mean_cost"]


def train(
    scenario: Scenario,
    cfg: TrainConfig,
    seed: int,
    *,
    curve_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
) -> TrainResult:
    """Train independent PPO learners on one scenario.

    Deterministic in ``seed``.  Writes a per-epoch learning curve CSV and
    a parameter checkpoint when paths are given.  If parameters go
    non-finite, the last good parameters are saved to the checkpoint path
    (when one is given; only then are they kept) before ``TrainingError``
    propagates.
    """
    root = np.random.SeedSequence(seed)
    env_ss, sample_ss, batch_ss, agents_ss = root.spawn(4)
    env = MeqcEnv(
        scenario,
        redraw_tasks=cfg.redraw_tasks,
        rng=np.random.default_rng(env_ss),
    )
    obs_dim = observation_length(env.num_servers)
    # the run's parameter block: agent u's networks are views of row u
    params = np.zeros(
        (env.num_users, HybridAgent.param_count(obs_dim, env.num_servers, cfg.hidden_units))
    )
    agents = [
        HybridAgent(obs_dim, env.num_servers, cfg.hidden_units, np.random.default_rng(ss), row)
        for ss, row in zip(agents_ss.spawn(env.num_users), params)
    ]
    optimizers = _make_optimizers(agents, cfg)
    sample_rng = np.random.default_rng(sample_ss)
    batch_rng = np.random.default_rng(batch_ss)

    result = TrainResult(agents=agents)
    last_good = None if checkpoint_path is None else params.copy()
    for epoch in range(cfg.epochs):
        # Observations only change on reset, so each agent's policy and
        # values are fixed for the epoch: evaluate them once, draw the whole
        # epoch in one batch, then score all steps in one batch.
        env.reset()
        obs = env.observations()
        actions = draw_actions(_policy_rows(agents, obs), cfg.steps_per_epoch, sample_rng)
        rewards = env.rewards(actions["server"], actions["ratio"])
        # each critic's value is the same at every step and after the last
        values = np.array([agent.values(o) for agent, o in zip(agents, obs)])  # [U]
        baselines = np.broadcast_to(values, (cfg.steps_per_epoch + 1, len(values)))
        adv, ret = gae(rewards, baselines, cfg.discount, cfg.gae_lambda)
        rollout = dict(actions, adv=adv, ret=ret)

        stats: list[UpdateStats] = []
        try:
            for _ in range(cfg.updates_per_epoch):
                idx = batch_rng.choice(
                    cfg.steps_per_epoch,
                    size=min(cfg.batch_size, cfg.steps_per_epoch),
                    replace=False,
                )
                batch = {key: col[idx] for key, col in rollout.items()}
                for u, (agent, opts, o) in enumerate(zip(agents, optimizers, obs)):
                    agent_batch = {key: col[:, u] for key, col in batch.items()}
                    agent_batch["obs"] = o
                    stats.append(ppo_update(agent, opts, agent_batch, cfg))
            bad = _non_finite_rows(params)
            if bad:
                raise TrainingError(f"non-finite parameters for agents {bad}")
        except TrainingError:
            if last_good is not None:
                params[:] = last_good
                save_checkpoint(checkpoint_path, agents)
            raise
        if last_good is not None:
            last_good[:] = params

        means = [float(np.mean([getattr(s, name) for s in stats])) for name in CURVE_COLUMNS[2:]]
        result.curve.append(dict(zip(CURVE_COLUMNS, [epoch, float(-rewards.mean()), *means])))

    if curve_path is not None:
        write_learning_curve(curve_path, result.curve)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, agents)
    return result


def write_learning_curve(path: str | Path, curve: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_COLUMNS)
        for row in curve:
            writer.writerow([repr(row[name]) for name in CURVE_COLUMNS])


def save_checkpoint(path: str | Path, agents: list[HybridAgent]) -> None:
    """Versioned dump of the agents' ``[U, P]`` parameter block and its shape."""
    first = agents[0]
    # a file handle, because np.savez appends ".npz" to a path without it
    with open(path, "wb") as fh:
        np.savez(
            fh,
            schema_version=CHECKPOINT_SCHEMA_VERSION,
            obs_dim=first.obs_dim,
            num_servers=first.num_servers,
            hidden_units=first.hidden,
            params=np.stack([agent.params for agent in agents]),
        )


def load_checkpoint(path: str | Path) -> list[HybridAgent]:
    """The checkpoint's agents, each a view of one row of its parameter block.

    Nothing is copied or drawn.  Raises ``ValueError`` for another schema
    version, a dimension below 1, an ``obs_dim`` that does not fit
    ``num_servers``, a block that is not ``[U, P]`` with ``P`` fitting the
    shape, or rows holding a NaN or infinity.
    """
    with np.load(path) as data:
        version = int(data["schema_version"])
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"unsupported checkpoint schema_version {version}")
        obs_dim, num_servers, hidden = dims = [
            int(data[key]) for key in ("obs_dim", "num_servers", "hidden_units")
        ]
        params = data["params"]
    if min(dims) < 1:
        raise ValueError(f"dimensions must be >= 1, got obs_dim {obs_dim}, "
                         f"num_servers {num_servers}, hidden_units {hidden}")
    if obs_dim != observation_length(num_servers):
        raise ValueError(f"obs_dim {obs_dim} does not fit {num_servers} servers, "
                         f"whose observations have {observation_length(num_servers)} entries")
    if params.ndim != 2:
        raise ValueError(f"expected a [agents, parameters] block, got shape {params.shape}")
    agents = [HybridAgent(*dims, params=row) for row in params]
    bad = _non_finite_rows(params)
    if bad:
        raise ValueError(f"non-finite parameters for agents {bad}")
    return agents


class LearnedPolicy:
    """Deterministic policy adapter over trained agents (for evaluation)."""

    def __init__(self, agents: list[HybridAgent]):
        self.agents = agents

    def act(self, env, rng):
        """``[U, 2]`` pairs: each agent's argmax server logit and squashed mean ratio."""
        out = _policy_rows(self.agents, env.observations())
        return np.stack([out[:, :-2].argmax(axis=1), _sigmoid(out[:, -2])], axis=1)
