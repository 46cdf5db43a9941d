"""Cryogenic quantum device physics.

Pure functions describing the hardware side of an edge quantum server:
the cryostat attenuation chain, thermal-photon noise on the control line,
per-gate and per-qubit power draw, concatenated-code resource scaling and
the logical error suppression that sets a circuit's success probability
(tabulated by ``costs.ScenarioEvaluator``).  Everything here is stateless
and safe to call from any number of workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# CODATA values.
HBAR = 1.054571817e-34  # J*s
BOLTZMANN = 1.380649e-23  # J/K

# The supported concatenation levels k.  A logical qubit at level k is
# PHYS_PER_LOGICAL**k physical qubits; the per-step physical gate counts are
# fixed rationals of 64**k.
CONCAT_LEVELS = (1, 2, 3)
PHYS_PER_LOGICAL = 91
_GATES_1QB_FRACTION = 28.0 / 185.0
_GATES_2QB_FRACTION = 64.0 / 185.0
_GATES_MEAS_FRACTION = 28.0 / 185.0


@dataclass(frozen=True)
class CryostatConfig:
    """Cooling-chain geometry and static heat loads of one quantum server.

    The chain has ``num_stages`` cooling stages between the qubit plate
    (``t_qubit``) and the room-temperature signal generator (``t_gen``),
    with ``num_stages - 1`` equal attenuators totalling
    ``total_attenuation_db`` on the ingoing microwave line.  Static heat
    loads are lifted from their respective stages to ``t_gen``.
    """

    total_attenuation_db: float = 40.0
    num_stages: int = 5
    t_qubit: float = 0.1
    t_gen: float = 300.0
    heat_gen: float = 10e-6
    heat_hemt: float = 50e-6
    t_hemt: float = 70.0
    heat_para: float = 10e-9
    t_para: float = 4.0

    def __post_init__(self):
        # an int, not an equal float: stages are counted, and equal configs
        # share their physics (``costs`` computes it once per device)
        if operator.index(self.num_stages) < 2:
            raise ValueError(f"num_stages must be >= 2, got {self.num_stages}")
        if not 0.0 < self.t_qubit < self.t_gen:
            raise ValueError(
                f"need 0 < t_qubit < t_gen, got {self.t_qubit}, {self.t_gen}"
            )
        if self.total_attenuation_db < 0.0:
            raise ValueError("total_attenuation_db must be >= 0")
        for name in ("heat_gen", "heat_hemt", "heat_para"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.t_hemt <= 0.0 or self.t_para <= 0.0:
            raise ValueError("amplifier stage temperatures must be > 0")


@dataclass(frozen=True)
class QubitTech:
    """Qubit technology constants: transition frequency and gate timings.

    ``decoherence_time`` is the inverse spontaneous-emission rate.  One
    machine timestep is ``tau_step``; a 1qb gate occupies the fraction
    ``tau_1qb / tau_step`` of a step, so ``tau_step >= tau_1qb`` is
    required.
    """

    frequency: float = 6e9
    decoherence_time: float = 1e-3
    tau_1qb: float = 25e-9
    tau_2qb: float = 100e-9
    tau_meas: float = 100e-9
    tau_step: float = 100e-9

    def __post_init__(self):
        for name in (
            "frequency",
            "decoherence_time",
            "tau_1qb",
            "tau_2qb",
            "tau_meas",
            "tau_step",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.tau_step < self.tau_1qb:
            raise ValueError("tau_step must be >= tau_1qb")


@dataclass(frozen=True)
class StageProfile:
    """Resolved per-stage temperatures and attenuations of a cryostat.

    ``temperatures[i]`` is the i-th stage temperature (qubit plate first,
    generator last).  ``stage_attenuation`` is the linear attenuation of
    each of the ``K - 1`` identical attenuators.  ``cumulative[i]`` is the
    total linear attenuation between stage i and the qubits (1 at the
    qubit stage, the full chain at the generator stage).
    """

    temperatures: tuple[float, ...]
    stage_attenuation: float
    cumulative: tuple[float, ...]


def cryostat_stages(cfg: CryostatConfig) -> StageProfile:
    """Lay out cooling stages geometrically in temperature with equal attenuators.

    Stage temperatures follow an exact geometric progression from
    ``t_qubit`` to ``t_gen``; the total linear attenuation is split into
    ``num_stages - 1`` equal factors.  Endpoints are pinned exactly.
    """
    k = cfg.num_stages
    total_linear = 10.0 ** (cfg.total_attenuation_db / 10.0)
    temps = [
        cfg.t_qubit * (cfg.t_gen / cfg.t_qubit) ** (i / (k - 1)) for i in range(k)
    ]
    temps[0] = cfg.t_qubit
    temps[-1] = cfg.t_gen
    cumulative = [total_linear ** (i / (k - 1)) for i in range(k)]
    cumulative[0] = 1.0
    cumulative[-1] = total_linear
    return StageProfile(
        temperatures=tuple(temps),
        stage_attenuation=total_linear ** (1.0 / (k - 1)),
        cumulative=tuple(cumulative),
    )


def bose_einstein(temperature: float, frequency: float) -> float:
    """Mean thermal photon occupation 1/(exp(h_bar*w/kT) - 1) at angular w = 2*pi*f."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if frequency <= 0.0:
        raise ValueError(f"frequency must be > 0, got {frequency}")
    x = HBAR * 2.0 * math.pi * frequency / (BOLTZMANN * temperature)
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def physical_error_rate(cfg: CryostatConfig, tech: QubitTech) -> float:
    """Error probability per physical qubit per timestep.

    Combines spontaneous emission over one timestep with the thermal-photon
    population that survives the attenuation chain: photons entering at
    stage i+1 pass i attenuators before reaching the qubits.  Clamped to
    [0, 1].
    """
    stages = cryostat_stages(cfg)
    occupation = [bose_einstein(t, tech.frequency) for t in stages.temperatures]
    photon_load = 0.5 + occupation[0]
    for i in range(cfg.num_stages - 1):
        photon_load += (occupation[i + 1] - occupation[i]) / stages.cumulative[i + 1]
    decay_rate = 1.0 / tech.decoherence_time
    err = 0.5 * decay_rate * tech.tau_step * photon_load
    return min(1.0, max(0.0, err))


@dataclass(frozen=True)
class LogicalResources:
    """Per-logical-qubit resource counts at one concatenation level.

    ``phys_per_logical`` physical qubits make up one logical qubit;
    ``n_1qb``/``n_2qb``/``n_meas`` are the average numbers of physical
    1qb, 2qb and measurement gates run in parallel per circuit timestep.
    """

    level: int
    phys_per_logical: int
    n_1qb: float
    n_2qb: float
    n_meas: float


def logical_resources(level: int) -> LogicalResources:
    """Concatenated-code overhead at level k in {1, 2, 3}."""
    if level not in CONCAT_LEVELS:
        raise ValueError(f"unsupported concatenation level {level}; expected 1, 2 or 3")
    scale = 64.0**level
    return LogicalResources(
        level=level,
        phys_per_logical=PHYS_PER_LOGICAL**level,
        n_1qb=_GATES_1QB_FRACTION * scale,
        n_2qb=_GATES_2QB_FRACTION * scale,
        n_meas=_GATES_MEAS_FRACTION * scale,
    )


@dataclass(frozen=True)
class GatePowerProfile:
    """Steady-state powers (W) and per-step energies (J) of physical operations.

    ``p_pi`` is the microwave power of a full qubit flip and sets the
    scale of all gate powers.  ``p_qubit`` is the static per-physical-qubit
    power of heat lifting for signal generation and amplification.
    Energies are the matching powers integrated over one timestep.
    """

    p_pi: float
    p_1qb: float
    p_2qb: float
    p_meas: float
    p_qubit: float
    e_1qb: float
    e_2qb: float
    e_meas: float
    e_qubit: float


def gate_power_profile(
    cfg: CryostatConfig, tech: QubitTech, stages: StageProfile
) -> GatePowerProfile:
    """Per-gate and per-qubit power draw of the cryogenic control chain.

    The 2qb-gate power weighs the flip power by the Carnot cost of every
    attenuator stage; 1qb and measurement gates scale it by their duty
    cycle within a timestep.  Static per-qubit power lifts the generator,
    HEMT and paramp heat loads to the generator temperature.
    """
    omega = 2.0 * math.pi * tech.frequency
    decay_rate = 1.0 / tech.decoherence_time
    p_pi = HBAR * omega * math.pi**2 / (4.0 * decay_rate * tech.tau_1qb**2)

    p_2qb = 0.0
    prev_cum = 0.0
    for temp, cum in zip(stages.temperatures, stages.cumulative):
        p_2qb += ((cfg.t_gen - temp) / temp) * (cum - prev_cum)
        prev_cum = cum
    p_2qb *= p_pi

    p_1qb = (tech.tau_1qb / tech.tau_step) * p_2qb
    p_meas = (tech.tau_meas / tech.tau_step) * p_2qb
    # external temperature equals the generator temperature, so the first
    # heat term is lifted with unit ratio
    p_qubit = (
        cfg.heat_gen
        + (cfg.t_gen / cfg.t_hemt) * cfg.heat_hemt
        + (cfg.t_gen / cfg.t_para) * cfg.heat_para
    )
    step = tech.tau_step
    return GatePowerProfile(
        p_pi=p_pi,
        p_1qb=p_1qb,
        p_2qb=p_2qb,
        p_meas=p_meas,
        p_qubit=p_qubit,
        e_1qb=p_1qb * step,
        e_2qb=p_2qb * step,
        e_meas=p_meas * step,
        e_qubit=p_qubit * step,
    )


def error_suppression(level: int, err_rate: float, err_threshold: float) -> float:
    """Logical error suppression ``(err_rate / err_threshold) ** (2 ** level)``."""
    if err_threshold <= 0.0:
        raise ValueError(f"err_threshold must be > 0, got {err_threshold}")
    if err_rate < 0.0:
        raise ValueError(f"err_rate must be >= 0, got {err_rate}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return (err_rate / err_threshold) ** (2**level)
