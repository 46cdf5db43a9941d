"""Device-physics unit tests with independently derived expected values."""

import math
from fractions import Fraction

import pytest

from meqc.device import (
    BOLTZMANN,
    HBAR,
    CryostatConfig,
    QubitTech,
    bose_einstein,
    cryostat_stages,
    gate_power_profile,
    logical_resources,
    physical_error_rate,
)

from cost_spec import success_probability


def default_stack():
    return CryostatConfig(), QubitTech()


class TestCryostatStages:
    def test_default_temperature_ladder(self):
        stages = cryostat_stages(CryostatConfig())
        # geometric ladder 0.1 K -> 300 K over 5 stages, ratio 3000**(1/4)
        expected = [0.1, 0.7400828044922854, 5.477225575051662, 40.53600464421103, 300.0]
        assert list(stages.temperatures) == pytest.approx(expected, rel=1e-12)
        assert stages.temperatures[0] == 0.1
        assert stages.temperatures[-1] == 300.0

    def test_default_attenuation_ladder(self):
        stages = cryostat_stages(CryostatConfig())
        assert stages.stage_attenuation == pytest.approx(10.0, rel=1e-12)
        assert list(stages.cumulative) == pytest.approx(
            [1.0, 10.0, 100.0, 1000.0, 10000.0], rel=1e-12
        )
        # exact by construction
        assert stages.cumulative[-1] == 10.0 ** (40.0 / 10.0)
        assert stages.cumulative[0] == 1.0

    def test_zero_attenuation_two_stages(self):
        stages = cryostat_stages(CryostatConfig(total_attenuation_db=0.0, num_stages=2))
        assert stages.stage_attenuation == 1.0
        assert stages.temperatures == (0.1, 300.0)

    def test_temperatures_strictly_increasing(self):
        stages = cryostat_stages(CryostatConfig(num_stages=9))
        temps = stages.temperatures
        assert all(a < b for a, b in zip(temps, temps[1:]))

    def test_too_few_stages_rejected(self):
        with pytest.raises(ValueError, match="num_stages"):
            CryostatConfig(num_stages=1)

    def test_invalid_temperatures_rejected(self):
        with pytest.raises(ValueError):
            CryostatConfig(t_qubit=300.0, t_gen=0.1)


class TestBoseEinstein:
    def test_qubit_plate_value(self):
        # x = hbar*2*pi*6e9 / (kB*0.1) ~ 2.880, n = 1/(e^x - 1)
        assert bose_einstein(0.1, 6e9) == pytest.approx(0.0595019052914, rel=1e-9)

    def test_room_temperature_value(self):
        # classical regime: n ~ 1/x - 1/2 ~ 1041
        assert bose_einstein(300.0, 6e9) == pytest.approx(1041.331036792, rel=1e-9)

    def test_vanishes_at_low_temperature(self):
        assert bose_einstein(1e-6, 6e9) == 0.0
        assert bose_einstein(1e-3, 6e9) < 1e-100

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bose_einstein(0.0, 6e9)
        with pytest.raises(ValueError):
            bose_einstein(-1.0, 6e9)
        with pytest.raises(ValueError):
            bose_einstein(0.1, 0.0)


class TestPhysicalErrorRate:
    def test_default_value_against_direct_sum(self):
        cfg, tech = default_stack()
        # independent evaluation of the photon sum
        temps = [0.1 * 3000.0 ** (i / 4) for i in range(5)]
        occ = [
            1.0 / (math.exp(HBAR * 2 * math.pi * 6e9 / (BOLTZMANN * t)) - 1.0)
            for t in temps
        ]
        load = 0.5 + occ[0]
        for i in range(4):
            load += (occ[i + 1] - occ[i]) / 10.0 ** (i + 1)
        expected = 0.5 * (1.0 / 1e-3) * 100e-9 * load
        got = physical_error_rate(cfg, tech)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(5.7e-5, rel=2e-3)

    def test_infinite_attenuation_limit(self):
        cfg = CryostatConfig(total_attenuation_db=400.0)
        tech = QubitTech()
        limit = 0.5 * (1.0 / tech.decoherence_time) * tech.tau_step * (
            0.5 + bose_einstein(cfg.t_qubit, tech.frequency)
        )
        assert physical_error_rate(cfg, tech) == pytest.approx(limit, rel=1e-6)

    def test_linear_in_decay_rate(self):
        cfg = CryostatConfig()
        full = physical_error_rate(cfg, QubitTech(decoherence_time=1e-3))
        half = physical_error_rate(cfg, QubitTech(decoherence_time=0.5e-3))
        assert half == pytest.approx(2.0 * full, rel=1e-12)

    def test_decreasing_in_attenuation(self):
        tech = QubitTech()
        rates = [
            physical_error_rate(CryostatConfig(total_attenuation_db=db), tech)
            for db in range(10, 80, 5)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_clamped_to_unit_interval(self):
        # absurdly fast decay pushes the raw value above 1
        bad = physical_error_rate(CryostatConfig(), QubitTech(decoherence_time=1e-12))
        assert bad == 1.0


class TestLogicalResources:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_exact_rationals(self, level):
        res = logical_resources(level)
        assert res.phys_per_logical == 91**level
        assert res.n_1qb == pytest.approx(float(Fraction(28, 185) * 64**level), rel=1e-15)
        assert res.n_2qb == pytest.approx(float(Fraction(64, 185) * 64**level), rel=1e-15)
        assert res.n_meas == res.n_1qb

    def test_level_one_values(self):
        res = logical_resources(1)
        assert res.phys_per_logical == 91
        assert res.n_1qb == pytest.approx(9.686486486486487, rel=1e-12)
        assert res.n_2qb == pytest.approx(22.14054054054054, rel=1e-12)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_gate_count_sum(self, level):
        res = logical_resources(level)
        assert res.n_1qb + res.n_2qb + res.n_meas == pytest.approx(
            120.0 / 185.0 * 64.0**level, rel=1e-14
        )

    @pytest.mark.parametrize("level", [0, 4, -1])
    def test_unsupported_levels(self, level):
        with pytest.raises(ValueError, match="level"):
            logical_resources(level)


class TestGatePowerProfile:
    def test_flip_power(self):
        cfg, tech = default_stack()
        profile = gate_power_profile(cfg, tech, cryostat_stages(cfg))
        expected = HBAR * 2 * math.pi * 6e9 * math.pi**2 * 1e-3 / (4 * (25e-9) ** 2)
        assert profile.p_pi == pytest.approx(expected, rel=1e-12)
        assert profile.p_pi == pytest.approx(1.57e-11, rel=5e-3)

    def test_static_qubit_power(self):
        cfg, tech = default_stack()
        profile = gate_power_profile(cfg, tech, cryostat_stages(cfg))
        assert profile.p_qubit == pytest.approx(
            10e-6 + (300.0 / 70.0) * 50e-6 + (300.0 / 4.0) * 10e-9, rel=1e-12
        )

    def test_gate_duty_cycle_scaling(self):
        cfg = CryostatConfig()
        tech = QubitTech(tau_1qb=100e-9)  # 1qb gate fills the whole step
        profile = gate_power_profile(cfg, tech, cryostat_stages(cfg))
        assert profile.p_1qb == profile.p_2qb
        assert profile.p_meas == profile.p_2qb

    def test_flip_power_scalings(self):
        cfg = CryostatConfig()
        stages = cryostat_stages(cfg)
        base = gate_power_profile(cfg, QubitTech(), stages).p_pi
        doubled = gate_power_profile(cfg, QubitTech(decoherence_time=2e-3), stages).p_pi
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)
        half_tau = gate_power_profile(cfg, QubitTech(tau_1qb=12.5e-9), stages).p_pi
        assert half_tau == pytest.approx(4.0 * base, rel=1e-12)

    def test_energies_are_power_times_step(self):
        cfg, tech = default_stack()
        profile = gate_power_profile(cfg, tech, cryostat_stages(cfg))
        assert profile.e_2qb == profile.p_2qb * tech.tau_step
        assert profile.e_qubit == profile.p_qubit * tech.tau_step
        for value in (profile.p_1qb, profile.p_2qb, profile.p_meas, profile.p_qubit,
                      profile.e_1qb, profile.e_2qb, profile.e_meas, profile.e_qubit):
            assert value >= 0.0


class TestSuccessProbability:
    def test_reference_circuit(self):
        cfg, tech = default_stack()
        err = physical_error_rate(cfg, tech)
        assert success_probability(20, 813, 2, err, 2e-4) == pytest.approx(
            0.978, abs=1e-3
        )
        assert success_probability(20, 813, 1, err, 2e-4) == pytest.approx(
            0.736, abs=1e-3
        )

    def test_perfect_gates(self):
        assert success_probability(20, 813, 1, 0.0, 2e-4) == 1.0

    def test_clamped_below_zero(self):
        assert success_probability(26, 6460, 1, 5.7e-5, 2e-4) == 0.0

    def test_monotone_in_level_below_threshold(self):
        err = 5.7e-5
        p1 = success_probability(20, 813, 1, err, 2e-4)
        p2 = success_probability(20, 813, 2, err, 2e-4)
        p3 = success_probability(20, 813, 3, err, 2e-4)
        assert p1 < p2 < p3

    def test_decreasing_in_circuit_size(self):
        err = 5.7e-5
        probs = [success_probability(20, d, 2, err, 2e-4) for d in (100, 500, 2000)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_threshold_domain_error(self):
        with pytest.raises(ValueError):
            success_probability(20, 813, 1, 5.7e-5, 0.0)
        with pytest.raises(ValueError):
            success_probability(20, 813, 1, -1e-5, 2e-4)
