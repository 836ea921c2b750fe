import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import beamshadow as bs
from beamshadow.codebook import directional_codebook, enh_phase_codebook, mrc_weights
from beamshadow.link import (
    ChannelInstance,
    Cluster,
    approx_rx_snr,
    channel_matrix,
    delta_snr_achieved,
    inequality_chain_check,
    rx_snr,
    theorem1_lb,
    theorem_trials,
    tx_steering,
    var_blockage,
    worst_case_dir_snr,
)

CHAIN_STEPS = (
    "residual-within-quantizer-halfstep",
    "amp-nearest-entry-floor",
    "amp-max-dominates-nearest-entry",
    "phase-cos-term-cap",
    "phase-sin-term-cap",
    "phase-max-cap",
    "bound-algebra-closure",
    "achieved-dominates-lower-bound",
)


class TestSteeringAndChannel:
    def test_steering_vector_norm_and_first_element(self):
        a = tx_steering(16, 75.0)
        assert a[0] == 1.0
        assert np.linalg.norm(a) == pytest.approx(4.0, rel=1e-12)
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)

    def test_steering_phase_progression(self):
        a = tx_steering(4, 60.0)
        step = np.angle(a[1:] / a[:-1])
        assert np.allclose(step, 2.0 * math.pi * 0.5 * math.cos(math.radians(60.0)), atol=1e-12)

    def test_channel_needs_sorted_clusters(self, free_field):
        c_big = Cluster(alpha=1.0, rx_theta=90.0, rx_phi=270.0, tx_theta=75.0)
        c_small = Cluster(alpha=0.1, rx_theta=60.0, rx_phi=250.0, tx_theta=130.0)
        with pytest.raises(ValueError, match="sorted"):
            ChannelInstance(rx_field=free_field, clusters=(c_small, c_big), n_tx=8)

    def test_channel_rejects_off_grid_cluster(self, free_field):
        c = Cluster(alpha=1.0, rx_theta=91.0, rx_phi=270.0, tx_theta=75.0)
        with pytest.raises(ValueError, match="not a sample"):
            ChannelInstance(rx_field=free_field, clusters=(c,), n_tx=8)

    def test_channel_matrix_shape(self, free_field):
        c = Cluster(alpha=1.0, rx_theta=90.0, rx_phi=270.0, tx_theta=75.0)
        ch = ChannelInstance(rx_field=free_field, clusters=(c,), n_tx=8)
        assert channel_matrix(ch).shape == (free_field.n_antennas, 8)


class TestRxSnr:
    def test_single_cluster_matched_filters(self, free_field):
        """MRC at the receiver and a matched unit-power precoder recover
        rho * M * sum|E|^2 exactly for a single-cluster channel."""
        M = 16
        c = Cluster(alpha=1.0, rx_theta=90.0, rx_phi=270.0, tx_theta=75.0)
        ch = ChannelInstance(rx_field=free_field, clusters=(c,), n_tx=M, rho=2.0)
        g = mrc_weights(free_field, 90.0, 270.0)
        f = tx_steering(M, 75.0) / math.sqrt(M)
        e = free_field.at(90.0, 270.0)
        expected = 2.0 * M * float((e.real**2 + e.imag**2).sum())
        assert rx_snr(ch, g, f) == pytest.approx(expected, rel=1e-12)

    def test_dominant_cluster_approximation_within_five_percent(self, free_field):
        M = 16
        c1 = Cluster(alpha=1.0, rx_theta=90.0, rx_phi=270.0, tx_theta=75.0)
        c2 = Cluster(alpha=0.1, rx_theta=75.0, rx_phi=260.0, tx_theta=130.0)
        ch = ChannelInstance(rx_field=free_field, clusters=(c1, c2), n_tx=M)
        g = mrc_weights(free_field, 90.0, 270.0)
        f = tx_steering(M, 75.0) / M  # per-element power convention
        exact = rx_snr(ch, g, f)
        approx = approx_rx_snr(free_field.at(90.0, 270.0), 1.0, g)
        rel = abs(exact - approx) / approx
        assert rel <= 0.05
        assert rel > 1e-6  # the secondary cluster genuinely perturbs the link

    def test_combiner_must_be_unit_norm(self, free_field):
        c = Cluster(alpha=1.0, rx_theta=90.0, rx_phi=270.0, tx_theta=75.0)
        ch = ChannelInstance(rx_field=free_field, clusters=(c,), n_tx=4)
        with pytest.raises(ValueError, match="unit-norm"):
            rx_snr(ch, np.ones(4, dtype=complex), np.ones(4, dtype=complex) / 2.0)

    def test_precoder_length_checked(self, free_field):
        c = Cluster(alpha=1.0, rx_theta=90.0, rx_phi=270.0, tx_theta=75.0)
        ch = ChannelInstance(rx_field=free_field, clusters=(c,), n_tx=4)
        g = mrc_weights(free_field, 90.0, 270.0)
        with pytest.raises(ValueError, match="length 4"):
            rx_snr(ch, g, np.ones(5, dtype=complex))


class TestBoundIngredients:
    def test_var_blockage_single_dominant(self):
        assert var_blockage([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.1875, abs=1e-15)

    def test_var_blockage_equal_amplitudes_is_zero(self):
        assert var_blockage([1.0, 1.0, 1.0, 1.0]) == 0.0
        assert var_blockage([1.0j, -1.0, 1.0, -1.0j]) == 0.0

    def test_lower_bound_single_dominant(self):
        lb = theorem1_lb([1.0, 0.0, 0.0, 0.0], 2)
        assert lb == pytest.approx(0.125, abs=1e-12)

    def test_lower_bound_scales_with_power(self):
        lb1 = theorem1_lb([1.0, 0.0, 0.0, 0.0], 2)
        lb5 = theorem1_lb([5.0, 0.0, 0.0, 0.0], 2)
        assert lb5 == pytest.approx(25.0 * lb1, rel=1e-12)

    def test_lower_bound_nonpositive_for_equal_amplitudes(self):
        for b in (1, 2, 3):
            assert theorem1_lb([1.0, 1.0, 1.0, 1.0], b) <= 0.0

    def test_achieved_single_dominant(self):
        assert delta_snr_achieved([1.0, 0.0, 0.0, 0.0], 2) == 0.75

    def test_achieved_equal_amplitudes_is_exactly_zero(self):
        # both codebooks contain the same matching entry, so the advantage
        # of amplitude adaptation vanishes identically
        assert delta_snr_achieved([1.0, 1.0, 1.0, 1.0], 2) == 0.0
        e = np.exp(1j * np.array([0.1, 2.0, 4.0, 5.5]))
        assert delta_snr_achieved(e, 3) == 0.0

    def test_achieved_dominates_bound(self, rng):
        for _ in range(200):
            e = rng.uniform(0.0, 2.0, 4) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 4))
            for b in (1, 2, 3):
                assert delta_snr_achieved(e, b) >= theorem1_lb(e, b) - 1e-9

    @given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8))
    def test_var_blockage_nonnegative(self, amps):
        assert var_blockage(np.asarray(amps, dtype=complex)) >= 0.0


class TestWorstCaseDirectional:
    def test_balanced_magnitudes_can_cancel(self):
        cbk = directional_codebook(4, 1)
        assert worst_case_dir_snr(np.ones(4, dtype=complex), np.ones(4), cbk) == 0.0

    def test_dominant_magnitude_leaves_a_floor(self):
        cbk = directional_codebook(4, 1)
        out = worst_case_dir_snr(np.array([4.0, 1, 1, 1], dtype=complex), np.ones(4), cbk)
        assert out == pytest.approx(0.25, abs=1e-12)

    def test_requires_directional_codebook(self):
        with pytest.raises(ValueError, match="directional"):
            worst_case_dir_snr(np.ones(4, dtype=complex), np.ones(4), enh_phase_codebook(4, 2))

    def test_enumeration_guard(self):
        n = 24
        cbk = directional_codebook(n, 1)
        with pytest.raises(ValueError, match="20"):
            worst_case_dir_snr(np.ones(n, dtype=complex), np.ones(n), cbk)


class TestInequalityChain:
    def random_case(self, rng, b):
        e = rng.uniform(0.0, 2.0, 4) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 4))
        amp = rng.uniform(0.0, 1.5, 4)
        phase = rng.uniform(0.0, 2 * math.pi, 4)
        return inequality_chain_check(e, amp, phase, b)

    def test_all_steps_hold_on_random_cases(self, rng):
        for k in range(200):
            rep = self.random_case(rng, 1 + k % 3)
            assert rep.ok, [s.name for s in rep.steps if s.lhs > s.rhs + rep.tolerance]
            assert rep.min_margin >= -rep.tolerance

    def test_step_names_and_order(self, rng):
        rep = self.random_case(rng, 2)
        assert tuple(s.name for s in rep.steps) == CHAIN_STEPS

    def test_residuals_within_quantizer_halfstep(self, rng):
        for b in (1, 2, 3):
            rep = self.random_case(rng, b)
            half = math.pi / 2**b
            assert np.all(np.abs(rep.residuals) <= half + 1e-12)

    def test_degenerate_one_bit_chain(self, rng):
        # with one phase bit the bound goes negative; the chain must still close
        rep = self.random_case(rng, 1)
        assert rep.ok
        assert rep.lower_bound <= rep.delta_achieved + rep.tolerance

    def test_zero_amplitude_antennas_are_tolerated(self):
        e = np.array([0.0, 1.0, 0.5, 0.0], dtype=complex)
        rep = inequality_chain_check(e, np.ones(4), np.zeros(4), 2)
        assert rep.ok
        assert rep.residuals[0] == 0.0 and rep.residuals[3] == 0.0

    def test_report_round_trips_through_json(self, rng):
        rep = self.random_case(rng, 2)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["n_antennas"] == 4
        assert back["b_bits"] == 2
        assert len(back["steps"]) == len(CHAIN_STEPS)


class TestTheoremTrials:
    def test_small_run_holds_and_counts(self):
        res = theorem_trials(50, b_values=(2, 3), seed=11)
        assert res.n_violations == 0
        assert res.min_margin >= -1e-9
        assert len(res.rows) == 100
        assert {r.b_bits for r in res.rows} == {2, 3}

    @pytest.mark.parametrize(
        "n, amp_low, amp_high",
        [(1, 0.0, 2.0), (2, 0.0, 2.0), (3, 0.5, 1.0), (4, 0.0, 2.0), (5, 0.0, 3.0),
         (6, 1.0, 1.0), (4, 0.0, 0.0)],
    )
    def test_rows_equal_per_trial_calls(self, n, amp_low, amp_high):
        """The batched audit returns, bit for bit, what the per-trial
        functions return on each trial's own field."""
        # seed 19, N=4: trial 31's sum and mean of magnitudes square to a
        # different last bit as an array (x*x) than as a scalar (pow)
        seed, b_values = 19, (1, 2, 3)
        res = theorem_trials(
            60, b_values=b_values, seed=seed, n_antennas=n, amp_low=amp_low, amp_high=amp_high
        )
        assert [(r.trial, r.b_bits) for r in res.rows] == [
            (t, b) for t in range(60) for b in b_values
        ]
        for r in res.rows:
            rng = np.random.default_rng([seed, r.trial])
            amps = rng.uniform(amp_low, amp_high, n)
            e = amps * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
            got = (r.var_blockage, r.lower_bound, r.delta_achieved)
            want = (var_blockage(e), theorem1_lb(e, r.b_bits), delta_snr_achieved(e, r.b_bits))
            assert all(type(v) is float for v in got)
            assert repr(got) == repr(want)
            # the closed forms on numpy scalars, independent of the library
            power = e.real * e.real + e.imag * e.imag
            c = np.sqrt(power)
            var = float(max(power.mean() - c.mean() ** 2, 0.0))
            half = math.pi / 2**r.b_bits
            lb = n * var * math.cos(half) ** 2 - (2.0 * math.sin(half) ** 2 / n) * c.sum() ** 2
            assert repr((r.var_blockage, r.lower_bound)) == repr((var, float(lb)))

    def test_seed_matters(self):
        a = theorem_trials(10, b_values=(2,), seed=1)
        b = theorem_trials(10, b_values=(2,), seed=2)
        assert [r.lower_bound for r in a.rows] != [r.lower_bound for r in b.rows]

    def test_margin_property(self):
        res = theorem_trials(5, b_values=(2,), seed=0)
        r = res.rows[0]
        assert r.margin == r.delta_achieved - r.lower_bound
