"""Desk-scale lab for multi-user computation offloading to edge servers
carrying both CPUs and cryogenic quantum processors."""

from .costs import (
    CostBreakdown,
    JointAction,
    ScenarioEvaluator,
    ServerProfile,
)
from .device import (
    CryostatConfig,
    GatePowerProfile,
    LogicalResources,
    QubitTech,
    StageProfile,
    bose_einstein,
    cryostat_stages,
    gate_power_profile,
    logical_resources,
    physical_error_rate,
)
from .env import MeqcEnv, StepResult
from .marl import HybridAgent, LearnedPolicy, TrainConfig, gae, ppo_update, train
from .solvers import (
    BaselinePolicy,
    EvalStats,
    PolicyKind,
    evaluate,
    solve_baseline,
    solve_exhaustive,
    solve_greedy,
)
from .workload import (
    Scenario,
    gen_scenario,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"
