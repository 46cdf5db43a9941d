"""Multi-agent PPO over the hybrid server/ratio action space.

Every user is an independent learner holding one network.  Its shared
torso feeds three heads: a categorical head over servers and a
sigmoid-squashed Gaussian head for the local ratio, as in H-PPO (Fan et
al. 2019, arXiv:1903.01344), and the critic's value, as in PPO's
shared-parameter form (Schulman et al. 2017, arXiv:1707.06347, eq. 9).
An output row is the server logits, the ratio's pre-squash mean and
log-std, then the value; one reader, ``_read_heads``, turns rows into the
action distribution for the rollout's draw and the update, and
``LearnedPolicy`` acts on the same stacked rows.  Rollouts come from the
shared environment (team reward), advantages from generalized advantage
estimation against the value head, and updates from the clipped
surrogate objective plus the value head's squared error, divided by 1 +
the minibatch's return variance so that the costs' scale stays off the
shared torso.
A run's agents train as one stack: agent ``u`` views row ``u`` of one
``[U, P]`` parameter block, and one ``nn.Mlp`` over the block runs every
agent's network on its own row at once.  An agent's observation is fixed
within a training epoch, so the rollout runs the stack once per epoch; its
epoch is one table of ``[T, U]`` columns (one batched draw from the
``[U, E + 3]`` output rows, one ``gae`` pass over the U constant values of
the same rows).  Each update round is one ``ppo_update`` of all agents:
one forward, one backward fed each agent's per-sample gradients summed
over its minibatch, all three heads' at once, and one optimizer step.
An agent and its one-row network are views of a given parameter vector,
or of zeros, and draw only when given a generator.  The optimizer's state
is one block, freed when ``train`` returns.  A checkpoint holds the
parameter block and the shape it was cut by; loading one puts the agents
back over its rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import MeqcEnv, observation_length
from .nn import Adam, Mlp, Sgd
from .workload import Scenario

CHECKPOINT_SCHEMA_VERSION = 5
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))
# one learning-curve row per epoch: its mean per-step cost, then the
# epoch means of the ``UpdateStats`` fields named after it (``value_loss``
# is the value head's squared error)
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError("learning_rate must be finite and >= 0")
        if not self.clip_epsilon > 0.0:
            raise ValueError("clip_epsilon must be > 0")
        if math.isnan(self.entropy_coef):
            raise ValueError("entropy_coef must be a number, not NaN")
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
    network rows ``[..., E + 3]``."""
    logits = out[..., :-3]
    top = logits.max(axis=-1, keepdims=True)
    logp_server = logits - (top + np.log(np.exp(logits - top).sum(axis=-1, keepdims=True)))
    return logp_server, out[..., -3], np.clip(out[..., -2], LOG_STD_MIN, LOG_STD_MAX)


def _gaussian_log_density(zscore, log_std):
    """Log-density of a Gaussian with ``log_std`` at ``zscore`` deviations from its mean."""
    return -0.5 * zscore**2 - log_std - 0.5 * _LOG_2PI


def draw_actions(out: np.ndarray, steps: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """``steps`` (server, ratio) draws per agent from its row of ``out``
    (``[agents, E + 3]``), as ``[steps, agents]`` columns.

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


def _layer_sizes(obs_dim: int, num_servers: int, hidden: int) -> tuple[int, ...]:
    """Layer widths of an agent's network: E logits, the ratio's mean and log-std, the value."""
    return (obs_dim, hidden, hidden, num_servers + 3)


class HybridAgent:
    """One user's network, whose torso feeds the server, ratio and value heads.

    ``net`` is ``Mlp((obs_dim, H, H, E + 3), out_scale=0.01)`` over
    ``params``.  The value column is drawn at that out_scale too (a
    separate critic drew its output at 1.0): either way the first values
    sit orders of magnitude below returns of 1e2-1e7 cost units, so the
    critic starts from about zero in both.  The agent views a given ``params``, such
    as a row of a run's parameter block, or zeros of its own; only with
    ``rng`` does its network draw its initial weights into it.  An agent
    pickles as its shape and ``params``, so its network stays a view.
    """

    def __init__(self, obs_dim: int, num_servers: int, hidden: int,
                 rng: np.random.Generator | None = None, params: np.ndarray | None = None):
        self.obs_dim = obs_dim
        self.num_servers = num_servers
        self.hidden = hidden
        count = self.param_count(obs_dim, num_servers, hidden)
        if params is None:
            params = np.zeros(count)
        elif params.shape[-1:] != (count,):
            raise ValueError(f"expected {count} parameters per agent, got {params.shape[-1]}")
        self.params = params
        self.net = Mlp(_layer_sizes(obs_dim, num_servers, hidden), rng, out_scale=0.01,
                       params=params)

    def __reduce__(self):
        return HybridAgent, (self.obs_dim, self.num_servers, self.hidden, None, self.params)

    @staticmethod
    def param_count(obs_dim: int, num_servers: int, hidden: int) -> int:
        """Length of an agent's ``params``."""
        return Mlp.param_count(_layer_sizes(obs_dim, num_servers, hidden))


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
    """An update's per-agent ``[U]`` summed policy losses, value heads' mean
    squared errors and summed entropies."""

    policy_loss: np.ndarray
    value_loss: np.ndarray
    entropy: np.ndarray


def _normalize(adv: np.ndarray) -> np.ndarray:
    """Each row of ``adv`` shifted and scaled to mean 0 and standard deviation 1."""
    return (adv - adv.mean(axis=-1, keepdims=True)) / (adv.std(axis=-1, keepdims=True) + 1e-8)


def _surrogate_coef(ratio, adv, clip_eps):
    """Per-sample d(clipped surrogate)/d(log-prob); zero where clipping gates."""
    gated = ((ratio > 1.0 + clip_eps) & (adv > 0)) | (
        (ratio < 1.0 - clip_eps) & (adv < 0)
    )
    return np.where(gated, 0.0, ratio * adv)


def ppo_update(net: Mlp, optimizer: Adam | Sgd, batch: dict, cfg: TrainConfig) -> UpdateStats:
    """One clipped-surrogate update of U agents' networks, each on its own minibatch.

    ``net`` runs the agents' ``[U, P]`` parameter block (one agent is
    ``U = 1``) and ``optimizer`` steps it.  ``batch["obs"]`` is
    ``[U, obs_dim]``, row u the observation all of agent u's samples share;
    every other column is ``[U, n]``, row u agent u's samples, contiguous so
    that each sum over samples runs as over one agent's own column.  Each
    network runs forward and backward once, on its row, fed the sum of its
    per-sample upstream gradients (backprop is linear in the upstream).
    Both policy heads maximize the clipped objective plus an
    entropy bonus, on the same (normalised) advantages, and the value head
    descends on its mean squared error against the GAE returns divided by
    1 + their variance over the minibatch; each network steps once along
    the sum of the three gradients, PPO's combined loss (arXiv:1707.06347,
    eq. 9) with value coefficient 1.  ``value_loss`` reports the undivided
    squared error.  Raises ``TrainingError`` naming the agents whose losses
    went non-finite.
    """
    server = batch["server"]
    n = server.shape[-1]
    adv = batch["adv"]
    if cfg.normalize_advantages and n > 1:
        adv = _normalize(adv)
    out, cache = net.forward_cached(batch["obs"])
    logp_all, mean, log_std = _read_heads(out)
    mean, log_std = mean[:, None], log_std[:, None]

    # Discrete head.
    probs = np.exp(logp_all)
    ratio = np.exp(np.take_along_axis(logp_all, server, axis=1) - batch["logp_server"])
    surr_a = np.minimum(
        ratio * adv, np.clip(ratio, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon) * adv
    )
    entropy_a = -(probs * logp_all).sum(axis=1)
    coef = _surrogate_coef(ratio, adv, cfg.clip_epsilon)
    up_logits = -(coef / n)[..., None] * (np.eye(probs.shape[1])[server] - probs[:, None])
    up_logits += ((cfg.entropy_coef / n) * probs * (logp_all + entropy_a[:, None]))[:, None]

    # Continuous head.
    ls_open = (LOG_STD_MIN < out[:, -2:-1]) & (out[:, -2:-1] < LOG_STD_MAX)
    std = np.exp(log_std)
    zscore = (batch["pre_squash"] - mean) / std
    logp_new_r = _gaussian_log_density(zscore, log_std) - batch["squash_correction"]
    ratio_r = np.exp(logp_new_r - batch["logp_ratio"])
    surr_r = np.minimum(
        ratio_r * adv, np.clip(ratio_r, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon) * adv
    )
    entropy_r = log_std[:, 0] + 0.5 * (_LOG_2PI + 1.0)
    coef_r = _surrogate_coef(ratio_r, adv, cfg.clip_epsilon)
    up_mean = -(coef_r / n) * (zscore / std)
    up_ls = (-(coef_r / n) * (zscore**2 - 1.0) - cfg.entropy_coef / n) * ls_open

    # Value head: its squared error over 1 + the minibatch's return variance,
    # so that returns of 1e2-1e7 cost units do not swamp the policy heads'
    # upstream on the shared torso; the 1 keeps equal returns at plain error.
    ret = batch["ret"]
    err = out[:, -1:] - ret
    up_v = 2.0 * err / (n * (1.0 + ret.var(axis=1, keepdims=True)))

    # All three heads through the shared torso: one backward of their joint upstream.
    optimizer.descend(cache, np.column_stack(
        [up_logits.sum(axis=1), up_mean.sum(axis=1), up_ls.sum(axis=1), up_v.sum(axis=1)]
    ))

    stats = UpdateStats(
        policy_loss=-(surr_a.mean(axis=1) + surr_r.mean(axis=1)),
        value_loss=np.mean(err**2, axis=1),
        entropy=entropy_a + entropy_r,
    )
    bad = ~(np.isfinite(stats.policy_loss) & np.isfinite(stats.value_loss)
            & np.isfinite(stats.entropy))
    if bad.any():
        raise TrainingError(
            f"non-finite update for agents {np.flatnonzero(bad).tolist()}: "
            f"policy_loss={stats.policy_loss[bad].tolist()} "
            f"value_loss={stats.value_loss[bad].tolist()} entropy={stats.entropy[bad].tolist()}"
        )
    return stats


def _make_optimizer(net: Mlp, cfg: TrainConfig) -> Adam | Sgd:
    """The optimizer of the agents' ``[U, P]`` networks, all its state in one fresh block.

    The block holds the ``[U, P]`` gradient rows and one scratch pair, then
    Adam's moments as ``[2, U, P]``: every agent's ``m`` rows, then its
    ``v`` rows.  It stays apart from the parameter block, so the agents a
    run returns keep none of it.
    """
    rows, count = net.params.shape
    adam = cfg.optimizer == "adam"
    state = np.zeros((rows + 2 + (2 * rows if adam else 0), count))
    buffers = state[: rows + 2]
    if not adam:
        return Sgd(net, cfg.learning_rate, buffers=buffers)
    moments = state[rows + 2 :].reshape(2, rows, count)
    return Adam(net, cfg.learning_rate, buffers=buffers, moments=moments)


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
    sizes = _layer_sizes(obs_dim, env.num_servers, cfg.hidden_units)
    # the run's parameter block: agent u's network is a view of row u, and
    # ``net`` runs all of them at once
    params = np.zeros((env.num_users, Mlp.param_count(sizes)))
    agents = [
        HybridAgent(obs_dim, env.num_servers, cfg.hidden_units, np.random.default_rng(ss), row)
        for ss, row in zip(agents_ss.spawn(env.num_users), params)
    ]
    net = Mlp(sizes, params=params)
    optimizer = _make_optimizer(net, cfg)
    sample_rng = np.random.default_rng(sample_ss)
    batch_rng = np.random.default_rng(batch_ss)

    result = TrainResult(agents=agents)
    last_good = None if checkpoint_path is None else params.copy()
    for epoch in range(cfg.epochs):
        # Observations only change on reset, so each agent's policy and
        # value are fixed for the epoch: run the networks once, draw the
        # whole epoch in one batch, then score all steps in one batch.
        env.reset()
        obs = env.observations()
        out = net.forward(obs)
        actions = draw_actions(out, cfg.steps_per_epoch, sample_rng)
        rewards = env.rewards(actions["server"], actions["ratio"])
        # each value head's output is the same at every step and after the last
        baselines = np.broadcast_to(out[:, -1], (cfg.steps_per_epoch + 1, len(out)))
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
                # agent-major [U, n] columns, whose sums over samples run
                # along contiguous rows: take makes them so, col.T[:, idx] not
                batch = {key: col.T.take(idx, axis=1) for key, col in rollout.items()}
                batch["obs"] = obs
                stats.append(ppo_update(net, optimizer, batch, cfg))
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

        # each column's mean over the epoch's updates, update-major, agent-minor
        means = [float(np.mean(np.concatenate([getattr(s, name) for s in stats])))
                 for name in CURVE_COLUMNS[2:]]
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
    """Deterministic policy adapter over trained agents (for evaluation).

    Stacks the agents' rows once, into one network over a ``[U, P]`` copy,
    so that an action is one forward; the agents' later changes do not
    reach it.
    """

    def __init__(self, agents: list[HybridAgent]):
        self.net = Mlp(agents[0].net.sizes, params=np.stack([agent.params for agent in agents]))

    def act(self, env, rng):
        """``[U, 2]`` pairs: each agent's argmax server logit and squashed mean ratio."""
        out = self.net.forward(env.observations())
        return np.stack([out[:, :-3].argmax(axis=1), _sigmoid(out[:, -3])], axis=1)
