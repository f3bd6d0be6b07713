"""Vertical plant dynamics and the quantized altitude sensor."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from spikepid.plant import (
    Integrator,
    PlantParams,
    PlantState,
    SensorModel,
    battery_sag,
    hover_thrust,
    plant_step,
    sense,
)


class TestHoverThrust:
    def test_weight_compensation(self):
        assert hover_thrust(PlantParams(mass=0.68)) == pytest.approx(0.68 * 9.81)

    def test_hand_adjustment_adds(self):
        p = PlantParams(mass=0.68, hover_adjust=0.1)
        assert hover_thrust(p) == pytest.approx(0.68 * 9.81 + 0.1)

    def test_unit_mass(self):
        assert hover_thrust(PlantParams(mass=1.0)) == pytest.approx(9.81)


class TestPlantStep:
    def test_equilibrium(self):
        p = PlantParams(mass=0.68, drag=0.0, motor_tau=0.0)
        s = PlantState(z=1.0, vz=0.0, thrust=0.0)
        for _ in range(100):
            s = plant_step(s, 0.68 * 9.81, 0.001, p)
        assert s.z == pytest.approx(1.0)
        assert s.vz == pytest.approx(0.0)

    def test_thrust_offset_accelerates_by_newtons_law(self):
        p = PlantParams(mass=0.68, drag=0.0, motor_tau=0.0)
        s = PlantState(z=1.0, vz=0.0)
        dt = 1e-4
        s2 = plant_step(s, 0.68 * 9.81 + 1.25, dt, p)
        accel = (s2.vz - s.vz) / dt
        assert accel == pytest.approx(1.25 / 0.68)

    def test_ground_clamp(self):
        p = PlantParams(mass=0.68)
        s = PlantState(z=0.0, vz=0.0)
        for _ in range(50):
            s = plant_step(s, 0.0, 0.01, p)
        assert s.z == 0.0 and s.vz == 0.0

    def test_thrust_clamped_to_limits(self):
        p = PlantParams(mass=0.68, motor_tau=0.0)
        s = plant_step(PlantState(z=1.0), 1e6, 0.01, p)
        assert s.thrust == p.thrust_max

    def test_motor_lag_relaxes_exponentially(self):
        p = PlantParams(mass=0.68, motor_tau=0.1)
        s = PlantState(z=5.0, thrust=0.0)
        s = plant_step(s, 1.0, 0.1, p)
        assert s.thrust == pytest.approx(1 - math.exp(-1.0))

    def test_velocity_decays_under_drag_at_hover(self):
        p = PlantParams(mass=0.68, drag=0.4, motor_tau=0.0)
        s = PlantState(z=5.0, vz=1.5)
        hover = hover_thrust(p)
        speeds = []
        for _ in range(10_000):  # 10 s >> m/drag = 1.7 s
            s = plant_step(s, hover, 0.001, p)
            speeds.append(abs(s.vz))
        assert all(a >= b for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] < 0.01

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PlantParams(mass=0.0)
        with pytest.raises(ValueError):
            PlantParams(drag=-1.0)
        with pytest.raises(ValueError):
            plant_step(PlantState(), 1.0, 0.0, PlantParams())


def chained(state, command, dt, params, k):
    for _ in range(k):
        state = plant_step(state, command, dt, params)
    return state


def same_state(a, b):
    return (a.z, a.vz, a.thrust, a.t) == (b.z, b.vz, b.thrust, b.t)


class TestSubsteps:
    """plant_step(s, u, dt, p, k) must equal k chained single steps
    exactly, not approximately: the closed-loop traces depend on it."""

    @pytest.mark.parametrize("k", [1, 2, 10, 20])
    @pytest.mark.parametrize("tau", [0.0, 0.02])
    @pytest.mark.parametrize("state,command", [
        (PlantState(z=1.0, vz=0.3, thrust=6.0, t=2.5), 7.1),       # free flight
        (PlantState(z=1.0, vz=0.0, thrust=6.0, t=0.0), 1e6),       # clamped high
        (PlantState(z=1.0, vz=0.0, thrust=6.0, t=0.0), -3.0),      # clamped low
        (PlantState(z=0.004, vz=-0.6, thrust=0.0, t=1.0), 0.0),    # lands mid-span
        (PlantState(), 0.68 * 9.81 + 0.4),                         # take-off
    ])
    def test_equals_chained_single_steps(self, k, tau, state, command):
        p = PlantParams(mass=0.68, drag=0.25, motor_tau=tau)
        dt = 1 / 700
        assert same_state(plant_step(state, command, dt, p, k),
                          chained(state, command, dt, p, k))

    def test_ground_contact_mid_span_is_clamped(self):
        p = PlantParams(mass=0.68, motor_tau=0.0)
        s = plant_step(PlantState(z=0.004, vz=-0.6), 0.0, 1 / 700, p, 10)
        assert s.z == 0.0 and s.vz == 0.0
        # The contact lands inside the span, not on its first step.
        assert plant_step(PlantState(z=0.004, vz=-0.6), 0.0, 1 / 700, p).z > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.floats(0.0, 10.0), vz=st.floats(-5.0, 5.0),
        thrust=st.floats(0.0, 30.0), t=st.floats(0.0, 100.0),
        command=st.floats(-50.0, 50.0),
        mass=st.floats(0.1, 3.0), drag=st.floats(0.0, 2.0),
        tau=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
        dt=st.floats(1e-5, 0.05), k=st.integers(1, 25),
    )
    def test_property_equals_chained(self, z, vz, thrust, t, command, mass,
                                     drag, tau, dt, k):
        """plant_step, and Integrator.advance on a copy in place, both
        equal k chained single steps."""
        p = PlantParams(mass=mass, drag=drag, motor_tau=tau)
        s = PlantState(z=z, vz=vz, thrust=thrust, t=t)
        moved = replace(s)
        Integrator(p, dt, k).advance(moved, command)
        want = chained(s, command, dt, p, k)
        assert same_state(plant_step(s, command, dt, p, k), want)
        assert same_state(moved, want)

    def test_plant_step_leaves_its_input_as_it_is(self):
        s = PlantState(z=1.0, vz=0.3, thrust=6.0, t=2.5)
        after = plant_step(s, 7.1, 1 / 700, PlantParams(), 10)
        assert after is not s and not same_state(after, s)
        assert same_state(s, PlantState(z=1.0, vz=0.3, thrust=6.0, t=2.5))


class TestNonFinitePolicy:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_command_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="command"):
            plant_step(PlantState(z=1.0), bad, 0.001, PlantParams(), 10)

    @pytest.mark.parametrize("bad", [0.0, -0.001, math.nan, math.inf])
    def test_bad_dt_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="dt"):
            plant_step(PlantState(z=1.0), 6.0, bad, PlantParams())

    @pytest.mark.parametrize("bad", [0, -1, 2.0, 2.5])
    def test_bad_substeps_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="substeps"):
            plant_step(PlantState(z=1.0), 6.0, 0.001, PlantParams(), bad)

    @pytest.mark.parametrize("bad", [0.0, -0.001, math.nan, math.inf])
    def test_integrator_rejects_bad_dt_by_name(self, bad):
        with pytest.raises(ValueError, match="^dt "):
            Integrator(PlantParams(), bad, 10)

    @pytest.mark.parametrize("bad", [0, -1, 2.0, 2.5])
    def test_integrator_rejects_bad_substeps_by_name(self, bad):
        with pytest.raises(ValueError, match="^substeps "):
            Integrator(PlantParams(), 0.001, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_advance_rejects_non_finite_command_and_keeps_state(self, bad):
        s = PlantState(z=1.0, vz=0.3, thrust=6.0, t=2.5)
        with pytest.raises(ValueError, match="^command "):
            Integrator(PlantParams(), 0.001, 10).advance(s, bad)
        assert same_state(s, PlantState(z=1.0, vz=0.3, thrust=6.0, t=2.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sense_rejects_non_finite_altitude_by_name(self, bad):
        with pytest.raises(ValueError, match="state.z"):
            sense(SensorModel(), PlantState(z=bad), 1 / 70)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_sense_rejects_bad_control_period_by_name(self, bad):
        with pytest.raises(ValueError, match="dt_ctrl"):
            sense(SensorModel(), PlantState(z=1.0), bad)

    @pytest.mark.parametrize("name,bad", [
        ("mass", 0.0), ("mass", -1.0), ("mass", math.nan), ("mass", math.inf),
        ("drag", -1.0), ("drag", math.nan), ("drag", math.inf),
        ("motor_tau", -1.0), ("motor_tau", math.nan), ("motor_tau", math.inf),
        ("hover_adjust", -7.0), ("hover_adjust", 21.0), ("hover_adjust", math.nan),
        ("hover_adjust", math.inf), ("hover_adjust", -math.inf),
    ])
    def test_plant_params_reject_bad_field_by_name(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} "):
            PlantParams(**{name: bad})

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_battery_sag_rejects_bad_rate_by_name(self, bad):
        with pytest.raises(ValueError, match="beta"):
            battery_sag(1.0, bad)


class TestSensor:
    def test_floor_quantization(self):
        model = SensorModel()
        z_hat, _ = sense(model, PlantState(z=1.507), 1 / 70)
        assert z_hat == pytest.approx(1.50)

    def test_exact_multiple_not_floored_down(self):
        """Every altitude k * 0.01 reads back exactly.  1.50 / 0.01
        divides exactly, but 0.29 / 0.01 is 28.999999999999996, which
        floors into the bin below without the epsilon."""
        for k in range(401):
            z_hat, _ = sense(SensorModel(), PlantState(z=k * 0.01), 1 / 70)
            assert z_hat == k * 0.01, k

    def test_quantization_error_bound(self):
        model = SensorModel()
        for z in (0.0, 0.004, 0.7321, 1.999, 3.0101):
            z_hat, _ = sense(model, PlantState(z=z), 1 / 70)
            assert -1e-9 <= z - z_hat < 0.01

    def test_constant_altitude_zero_rate(self):
        model = SensorModel()
        for _ in range(10):
            _, d = sense(model, PlantState(z=2.0), 1 / 70)
        assert d == 0.0

    def test_one_quantum_per_tick_reads_seventy_centimeters_per_second(self):
        model = SensorModel(window=1)
        dt = 1 / 70
        d = 0.0
        for k in range(5):
            _, d = sense(model, PlantState(z=k * 0.01), dt)
        assert d == pytest.approx(0.70)

    def test_rate_zero_until_window_filled(self):
        model = SensorModel(window=3)
        dt = 1 / 70
        rates = []
        for k in range(5):
            _, d = sense(model, PlantState(z=k * 0.01), dt)
            rates.append(d)
        assert rates[:3] == [0.0, 0.0, 0.0]
        assert rates[3] == pytest.approx(0.70)

    def test_window_averages_slope(self):
        model = SensorModel(window=4)
        dt = 1 / 70
        for k in range(9):
            _, d = sense(model, PlantState(z=k * 0.01), dt)
        assert d == pytest.approx(0.70)

    def test_invalid_sensor(self):
        with pytest.raises(ValueError):
            SensorModel(quantum=0.0)
        with pytest.raises(ValueError):
            SensorModel(window=0)
        with pytest.raises(ValueError, match="window"):
            SensorModel(window=1.5)  # would divide by 1.5 ticks
        with pytest.raises(ValueError, match="quantum"):
            SensorModel(quantum=math.nan)


class TestBatterySag:
    def test_zero_at_start(self):
        assert battery_sag(0.0, 0.5) == 0.0

    def test_linear_ramp(self):
        assert battery_sag(60.0, 0.005) == pytest.approx(-0.3)

    def test_zero_rate(self):
        for t in (0.0, 10.0, 1e4):
            assert battery_sag(t, 0.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            battery_sag(1.0, -0.1)
