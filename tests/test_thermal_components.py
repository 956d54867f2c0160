"""Thermal building-block tests: viscous dissipation, VCM power,
correlations, and the generic network."""

import numpy as np
import pytest

from repro.errors import ThermalError
from repro.thermal import (
    ThermalNetwork,
    ThermalNode,
    conduction_g,
    enclosed_air_internal_h,
    external_forced_h,
    rotating_disk_h,
    rotational_reynolds,
    rpm_for_viscous_power,
    series_g,
    vcm_power_w,
    viscous_power_w,
    windage_torque_nm,
)


class TestViscous:
    def test_anchor_value(self):
        # Paper: 0.91 W for 1 platter, 2.6", 15,098 RPM (year 2002).
        assert viscous_power_w(15098, 2.6, 1) == pytest.approx(0.91)

    def test_rpm_exponent(self):
        ratio = viscous_power_w(30000, 2.6) / viscous_power_w(15000, 2.6)
        assert ratio == pytest.approx(2**2.8)

    def test_diameter_exponent(self):
        ratio = viscous_power_w(15000, 3.2) / viscous_power_w(15000, 1.6)
        assert ratio == pytest.approx(2**4.8)

    def test_linear_in_platters(self):
        assert viscous_power_w(15000, 2.6, 4) == pytest.approx(
            4 * viscous_power_w(15000, 2.6, 1)
        )

    def test_paper_2009_value(self):
        # Paper: ~35.55 W at 55,819 RPM (2009, 2.6").
        assert viscous_power_w(55819, 2.6) == pytest.approx(35.55, rel=0.02)

    def test_paper_2012_value(self):
        # Paper: ~499.73 W at 143,470 RPM (2012, 2.6").
        assert viscous_power_w(143470, 2.6) == pytest.approx(499.73, rel=0.02)

    def test_zero_rpm_dissipates_nothing(self):
        assert viscous_power_w(0, 2.6) == 0.0

    def test_inverse(self):
        rpm = rpm_for_viscous_power(viscous_power_w(23456, 2.1, 2), 2.1, 2)
        assert rpm == pytest.approx(23456)

    def test_torque_positive(self):
        assert windage_torque_nm(15000, 2.6) > 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ThermalError):
            viscous_power_w(-1, 2.6)
        with pytest.raises(ThermalError):
            viscous_power_w(15000, 0)
        with pytest.raises(ThermalError):
            viscous_power_w(15000, 2.6, 0)


class TestVCMPower:
    def test_paper_anchors(self):
        assert vcm_power_w(2.6) == pytest.approx(3.9)
        assert vcm_power_w(2.1) == pytest.approx(2.28)
        assert vcm_power_w(1.6) == pytest.approx(0.618)

    def test_sri_jayantha_ratio(self):
        # ~2x between 95 mm (3.7") and 65 mm (~2.6") class platters.
        assert vcm_power_w(3.7) / vcm_power_w(2.6) == pytest.approx(2.0, rel=0.05)

    def test_monotone_in_diameter(self):
        values = [vcm_power_w(d / 10) for d in range(16, 38, 2)]
        assert values == sorted(values)

    def test_clamped_outside_anchors(self):
        assert vcm_power_w(1.0) == vcm_power_w(1.6)
        assert vcm_power_w(5.0) == vcm_power_w(3.7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ThermalError):
            vcm_power_w(0)


class TestCorrelations:
    def test_reynolds_grows_with_rpm_and_radius(self):
        assert rotational_reynolds(20000, 0.033) > rotational_reynolds(10000, 0.033)
        assert rotational_reynolds(10000, 0.047) > rotational_reynolds(10000, 0.033)

    def test_disk_h_increases_with_rpm(self):
        assert rotating_disk_h(20000, 0.033) > rotating_disk_h(10000, 0.033)

    def test_disk_h_natural_floor_at_rest(self):
        assert rotating_disk_h(0, 0.033) == pytest.approx(5.0)

    def test_disk_h_turbulent_regime_continuity(self):
        # h should stay positive and finite across the laminar/turbulent
        # transition.
        values = [rotating_disk_h(rpm, 0.047) for rpm in range(5000, 120000, 5000)]
        assert all(v > 0 for v in values)

    def test_wall_h_default_speed_independent(self):
        assert enclosed_air_internal_h(10000) == enclosed_air_internal_h(40000)

    def test_wall_h_with_exponent(self):
        slow = enclosed_air_internal_h(10000, speed_exponent=0.5)
        fast = enclosed_air_internal_h(40000, speed_exponent=0.5)
        assert fast == pytest.approx(2 * slow)

    def test_external_h_scales(self):
        assert external_forced_h(2.0) == pytest.approx(2 * external_forced_h(1.0))

    def test_conduction_g(self):
        assert conduction_g(180.0, 0.01, 0.003) == pytest.approx(600.0)

    def test_series_g(self):
        assert series_g(2.0, 2.0) == pytest.approx(1.0)
        assert series_g(5.0) == pytest.approx(5.0)

    def test_series_g_rejects_nonpositive(self):
        with pytest.raises(ThermalError):
            series_g(2.0, 0.0)


class TestThermalNetwork:
    def make_two_node(self):
        net = ThermalNetwork(
            [ThermalNode("hot", 10.0), ThermalNode("cold", 100.0)], ambient_c=20.0
        )
        net.connect("hot", "cold", 2.0)
        net.connect_ambient("cold", 1.0)
        net.set_heat("hot", 6.0)
        return net

    def test_steady_state_hand_computed(self):
        net = self.make_two_node()
        steady = net.steady_state()
        # All 6 W exit through the 1 W/K ambient link: cold = 20 + 6 = 26;
        # hot = cold + 6/2 = 29.
        assert steady["cold"] == pytest.approx(26.0)
        assert steady["hot"] == pytest.approx(29.0)

    def test_transient_converges_to_steady(self):
        net = self.make_two_node()
        net.simulate(duration_s=5000.0, dt_s=1.0, record_every=1000)
        steady = net.steady_state()
        assert net.temperature("hot") == pytest.approx(steady["hot"], abs=0.01)
        assert net.temperature("cold") == pytest.approx(steady["cold"], abs=0.01)

    def test_no_heat_stays_at_ambient(self):
        net = ThermalNetwork([ThermalNode("n", 5.0)], ambient_c=28.0)
        net.connect_ambient("n", 0.5)
        assert net.steady_state()["n"] == pytest.approx(28.0)

    def test_implicit_euler_stable_with_stiff_node(self):
        net = ThermalNetwork(
            [ThermalNode("air", 0.01), ThermalNode("mass", 1000.0)], ambient_c=20.0
        )
        net.connect("air", "mass", 5.0)
        net.connect_ambient("mass", 1.0)
        net.set_heat("air", 3.0)
        result = net.simulate(duration_s=10.0, dt_s=0.1)
        assert all(np.isfinite(net.temperatures))
        assert max(result.series("air")) < 100.0

    def test_requires_ambient_path(self):
        net = ThermalNetwork([ThermalNode("a", 1.0), ThermalNode("b", 1.0)], ambient_c=20.0)
        net.connect("a", "b", 1.0)
        net.set_heat("a", 1.0)
        with pytest.raises(ThermalError):
            net.steady_state()

    def test_energy_balance_at_steady_state(self):
        net = self.make_two_node()
        steady = net.steady_state()
        outflow = 1.0 * (steady["cold"] - 20.0)
        assert outflow == pytest.approx(net.total_heat_w())

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(ThermalError):
            ThermalNetwork([ThermalNode("x", 1.0), ThermalNode("x", 2.0)], ambient_c=20.0)

    def test_self_connection_rejected(self):
        net = self.make_two_node()
        with pytest.raises(ThermalError):
            net.connect("hot", "hot", 1.0)

    def test_unknown_node_rejected(self):
        net = self.make_two_node()
        with pytest.raises(ThermalError):
            net.set_heat("missing", 1.0)

    def test_negative_heat_rejected(self):
        net = self.make_two_node()
        with pytest.raises(ThermalError):
            net.set_heat("hot", -1.0)

    def test_set_conductance_overwrites(self):
        net = self.make_two_node()
        net.set_conductance("hot", "cold", 4.0)
        steady = net.steady_state()
        assert steady["hot"] == pytest.approx(26.0 + 6.0 / 4.0)

    def test_transient_result_helpers(self):
        net = self.make_two_node()
        result = net.simulate(duration_s=100.0, dt_s=1.0)
        assert result.final("hot") == result.series("hot")[-1]
        crossed = result.time_to_reach("cold", 21.0, rising=True)
        assert crossed is not None and crossed > 0

    def test_stop_when_predicate(self):
        net = self.make_two_node()
        result = net.simulate(
            duration_s=1e6,
            dt_s=1.0,
            stop_when=lambda t, n: n.temperature("cold") >= 24.0,
        )
        assert result.times_s[-1] < 1e6
        assert net.temperature("cold") >= 24.0

    def test_conductance_introspection(self):
        net = self.make_two_node()
        edges = list(net.conductances())
        assert ("hot", "cold", 2.0) in edges


class TestStepMatrixCache:
    """The cached backward-Euler step matrix never changes a result."""

    @staticmethod
    def make_three_node():
        net = ThermalNetwork(
            [ThermalNode("air", 0.05), ThermalNode("stack", 40.0), ThermalNode("base", 900.0)],
            ambient_c=28.0,
        )
        net.connect("air", "stack", 1.9)
        net.connect("air", "base", 1.4)
        net.connect("stack", "base", 0.5)
        net.connect_ambient("base", 2.2)
        net.set_heat("air", 0.9)
        net.set_heat("stack", 10.4)
        return net

    MUTATIONS = {
        "connect": lambda net: net.connect("air", "stack", 0.3),
        "connect_ambient": lambda net: net.connect_ambient("stack", 0.7),
        "set_conductance": lambda net: net.set_conductance("air", "base", 0.8),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_step_after_mutation_matches_fresh_network(self, mutation):
        net = self.make_three_node()
        for _ in range(5):
            net.step(0.1)
        temperatures = net.temperatures.copy()
        self.MUTATIONS[mutation](net)
        net.step(0.1)
        fresh = self.make_three_node()
        self.MUTATIONS[mutation](fresh)
        fresh.temperatures = temperatures
        fresh.step(0.1)
        assert net.temperatures.tobytes() == fresh.temperatures.tobytes()
        assert net.steady_state() == fresh.steady_state()

    def test_same_value_set_conductance_keeps_cached_matrix(self, monkeypatch):
        net = self.make_three_node()
        builds = []
        original = ThermalNetwork._system_matrix

        def spy(self):
            builds.append(1)
            return original(self)

        monkeypatch.setattr(ThermalNetwork, "_system_matrix", spy)
        net.step(0.1)
        cached = net._step
        net.set_conductance("air", "base", 1.4)
        net.step(0.1)
        net.steady_state()
        assert len(builds) == 1
        assert net._step is cached
        net.set_conductance("air", "base", 1.5)
        net.step(0.1)
        assert len(builds) == 2

    def test_dt_change_rebuilds_step_matrix(self):
        net = self.make_three_node()
        net.step(0.1)
        cached = net._step
        temperatures = net.temperatures.copy()
        net.step(0.25)
        assert net._step is not cached
        fresh = self.make_three_node()
        fresh.temperatures = temperatures
        fresh.step(0.25)
        assert net.temperatures.tobytes() == fresh.temperatures.tobytes()

    def test_nodes_are_immutable(self):
        net = self.make_three_node()
        assert isinstance(net.nodes, tuple)


class TestHeatMemos:
    def test_memoized_heat_equals_its_terms(self):
        from repro.thermal import drive_heat_w
        from repro.thermal.model import DEFAULT_CALIBRATION

        expected = (
            viscous_power_w(17123.0, 2.6, 2)
            + DEFAULT_CALIBRATION.spm_power_w
            + 0.3 * vcm_power_w(2.6)
        )
        for _ in range(2):
            assert drive_heat_w(17123.0, 2.6, 2, vcm_duty=0.3) == expected

    def test_invalid_arguments_raise_on_every_call(self):
        from repro.thermal import drive_heat_w

        for _ in range(2):
            with pytest.raises(ThermalError):
                vcm_power_w(-2.6)
            with pytest.raises(ThermalError):
                drive_heat_w(15000.0, 2.6, vcm_duty=1.5)
            with pytest.raises(ThermalError):
                drive_heat_w(-15000.0, 2.6)
