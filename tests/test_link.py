import json
import math
import multiprocessing
import os
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import beamshadow as bs
from test_experiment import needs_fork
from beamshadow.codebook import directional_codebook, enh_phase_codebook
from beamshadow import forked, link
from beamshadow.link import (
    delta_snr_achieved,
    inequality_chain_check,
    theorem1_lb,
    theorem_trials,
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


# the audit ``theorem-check`` runs by default
AUDIT_B = (1, 2, 3)
AUDIT = {"b_values": AUDIT_B, "seed": 0, "n_antennas": 4, "out": None}


def _assert_rows_equal_per_vector_calls(fields, rows):
    """``rows`` = (var_blockage, lower_bound, delta_achieved) of the audit
    equal, bit for bit, the per-vector functions on each field vector for
    every B of ``AUDIT_B``, and the closed forms on numpy scalars."""
    var, lower, delta = (np.asarray(column).tolist() for column in rows)
    assert len(var) == len(fields)
    for t, e in enumerate(fields):
        n = len(e)
        for j, b in enumerate(AUDIT_B):
            got = (var[t], lower[t][j], delta[t][j])
            want = (var_blockage(e), theorem1_lb(e, b), delta_snr_achieved(e, b))
            assert all(type(v) is float for v in got)
            assert repr(got) == repr(want)
            # the closed forms on numpy scalars, independent of the library
            power = e.real * e.real + e.imag * e.imag
            c = np.sqrt(power)
            v = float(max(power.mean() - c.mean() ** 2, 0.0))
            half = math.pi / 2**b
            lb = n * v * math.cos(half) ** 2 - (2.0 * math.sin(half) ** 2 / n) * c.sum() ** 2
            assert repr((var[t], lower[t][j])) == repr((v, float(lb)))


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
        cbk = directional_codebook(4, 1, 0.5, 5)
        assert worst_case_dir_snr(np.ones(4, dtype=complex), np.ones(4), cbk) == 0.0

    def test_dominant_magnitude_leaves_a_floor(self):
        cbk = directional_codebook(4, 1, 0.5, 5)
        out = worst_case_dir_snr(np.array([4.0, 1, 1, 1], dtype=complex), np.ones(4), cbk)
        assert out == pytest.approx(0.25, abs=1e-12)

    def test_requires_directional_codebook(self):
        with pytest.raises(ValueError, match="directional"):
            worst_case_dir_snr(np.ones(4, dtype=complex), np.ones(4), enh_phase_codebook(4, 2))

    def test_enumeration_guard(self):
        n = 24
        cbk = directional_codebook(n, 1, 0.5, 5)
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
            assert rep.ok, [s.name for s in rep.steps if s.lhs > s.rhs + link.BOUND_TOLERANCE]
            assert rep.min_margin >= -link.BOUND_TOLERANCE

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
        assert rep.lower_bound <= rep.delta_achieved + link.BOUND_TOLERANCE

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
        res = theorem_trials(50, b_values=(2, 3), seed=11, n_antennas=4, out=None)
        assert res.n_violations == 0
        assert res.min_margin >= -1e-9
        assert res.margin.size == 100
        assert res.b_values == (2, 3) and res.margin.shape == (50, 2)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_rows_equal_per_trial_calls(self, n):
        """The batched audit returns, bit for bit, what the per-trial
        functions return on each trial's own field."""
        # seed 19, N=4: trial 31's sum and mean of magnitudes square to a
        # different last bit as an array (x*x) than as a scalar (pow)
        seed = 19
        res = theorem_trials(60, b_values=AUDIT_B, seed=seed, n_antennas=n, out=None)
        assert res.var_blockage.shape == (60,)
        assert res.lower_bound.shape == res.delta_achieved.shape == res.margin.shape == (60, 3)
        fields = []
        for t in range(60):
            rng = np.random.default_rng([seed, t])
            amps = rng.uniform(0.0, 2.0, n)
            fields.append(amps * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))
        _assert_rows_equal_per_vector_calls(
            fields, (res.var_blockage, res.lower_bound, res.delta_achieved)
        )

    @pytest.mark.parametrize(
        "n, amp_low, amp_high",
        [(3, 0.5, 1.0), (5, 0.0, 3.0), (6, 1.0, 1.0), (4, 0.0, 0.0)],
    )
    def test_audit_rows_equal_per_vector_calls(self, n, amp_low, amp_high):
        """The same on hand-built rows whose magnitudes the audit's draw
        does not reach: equal (1, 1), all zero (0, 0) and other ranges."""
        rng = np.random.default_rng([19, n])
        amps = rng.uniform(amp_low, amp_high, (60, n))
        rows = amps * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (60, n)))
        _assert_rows_equal_per_vector_calls(rows, link._audit_rows(rows, AUDIT_B))

    def test_seed_matters(self):
        a = theorem_trials(10, b_values=(2,), seed=1, n_antennas=4, out=None)
        b = theorem_trials(10, b_values=(2,), seed=2, n_antennas=4, out=None)
        assert a.lower_bound.tolist() != b.lower_bound.tolist()

    def test_margin_property(self):
        res = theorem_trials(5, b_values=(2,), seed=0, n_antennas=4, out=None)
        assert res.margin[0, 0] == res.delta_achieved[0, 0] - res.lower_bound[0, 0]
        assert np.array_equal(res.margin, res.delta_achieved - res.lower_bound)

    def test_per_b_summary_comes_from_the_margin_columns(self):
        res = theorem_trials(40, b_values=(1, 3), seed=4, n_antennas=4, out=None)
        res.margin[7, 1] = -1.0  # plant one violation under B=3
        assert res.violations_by_b.tolist() == [0, 1]
        assert res.min_margin_by_b.tolist() == [res.margin[:, 0].min(), -1.0]
        assert (res.n_violations, res.min_margin) == (1, -1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"n_antennas": 0}, "n_antennas"), ({"n_antennas": 40}, "entries"),
         ({"b_values": ()}, "b_values"), ({"b_values": (2, 0)}, "b_values"),
         ({"b_values": (2, 3, 2)}, "repeats bit width 2"),
         ({"n_trials": 0}, "n_trials"),
         ({"n_antennas": 1, "b_values": (40,)}, "b_bits must be in 1..16")],
    )
    def test_bad_arguments_fail_before_any_draw(self, monkeypatch, kwargs, message):
        def no_draw(*args):
            raise AssertionError("drew a trial")

        monkeypatch.setattr(link, "_trial_field", no_draw)
        monkeypatch.setattr(link, "_trial_fields", no_draw)
        with pytest.raises(ValueError, match=message):
            theorem_trials(**{**AUDIT, "n_trials": 10, **kwargs})


def _numpy_fields(seed, n_trials, n, start=0):
    return np.array([link._trial_field(seed, t, n) for t in range(start, start + n_trials)])


# seeds of one to four 32-bit words, then arbitrary ones up to five words
SEEDS = st.one_of(
    st.sampled_from([0, 7, 19, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**96 + 1]),
    st.integers(0, 2**130),
)


class TestTrialStream:
    """The vectorized draw is numpy's ``default_rng([seed, t])``, bit for bit."""

    @given(
        seed=SEEDS,
        n=st.integers(1, 8),
        n_trials=st.integers(1, 20),
        start=st.sampled_from([0, 1, 6, 2**32 - 20]),
        block=st.sampled_from([1, 7, link._TRIAL_BLOCK]),
    )
    def test_fields_equal_default_rng(self, seed, n, n_trials, start, block):
        with mock.patch.object(link, "_TRIAL_BLOCK", block):
            got = link._trial_fields(seed, start, start + n_trials, n)
        assert got.tobytes() == _numpy_fields(seed, n_trials, n, start=start).tobytes()

    @given(seed=SEEDS, trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    def test_seeding_and_doubles_equal_numpy(self, seed, trials):
        t = np.array(trials)
        states = np.stack(link._seed_states(seed, t), axis=1)
        doubles = link._pcg64_doubles(seed, t, 5)
        for k, trial in enumerate(trials):
            seq = np.random.SeedSequence([seed, trial])
            assert states[k].tolist() == seq.generate_state(4, np.uint64).tolist()
            want = np.random.Generator(np.random.PCG64(seq)).random(5)
            assert doubles[k].tobytes() == want.tobytes()

    def test_audit_rows_equal_per_trial_draws_across_blocks(self, monkeypatch):
        monkeypatch.setattr(link, "_TRIAL_BLOCK", 7)
        res = theorem_trials(30, b_values=(2,), seed=2**64 + 5, n_antennas=3, out=None)
        e = _numpy_fields(2**64 + 5, 30, 3)
        assert res.lower_bound[:, 0].tolist() == [theorem1_lb(v, 2) for v in e]

    def test_trial_zero_guard_catches_a_changed_stream(self, monkeypatch):
        monkeypatch.setattr(link, "_PCG_MULT", link._PCG_MULT + 2)
        with pytest.raises(RuntimeError, match="default_rng"):
            theorem_trials(3, b_values=(1,), seed=0, n_antennas=4, out=None)

    def test_bad_seed_raises_numpy_error(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            theorem_trials(**{**AUDIT, "n_trials": 3, "seed": -1})


def _audit_outputs(tmp_path, workers, **kwargs):
    """(result arrays, trials.csv bytes) with the worker count fixed, or the
    real one when workers is None; leaves no child process behind."""
    count = forked.resolve_workers if workers is None else lambda n=None: min(workers, n)
    path = tmp_path / f"trials-{workers}.csv"
    with mock.patch.object(forked, "resolve_workers", count):
        res = theorem_trials(**{**AUDIT, **kwargs, "out": path})
    assert not multiprocessing.active_children()
    arrays = (res.var_blockage, res.lower_bound, res.delta_achieved, res.margin)
    return [a.tobytes() for a in arrays], path.read_bytes()


@needs_fork
class TestForkedTrials:
    """Trial ranges searched in forked children give the serial result."""

    @pytest.mark.parametrize(
        "kwargs, block",
        [({"n_trials": 1}, None), ({"n_trials": 2}, None), ({"n_trials": 3}, None),
         ({"n_trials": 10001}, None), ({"n_trials": 40, "b_values": (3, 1)}, None),
         ({"n_trials": 30, "seed": 2**64 + 5, "n_antennas": 3}, None),
         ({"n_trials": 45, "seed": 6, "b_values": (2,)}, 7)],
    )
    def test_split_equals_serial(self, monkeypatch, tmp_path, kwargs, block):
        if block is not None:
            monkeypatch.setattr(link, "_TRIAL_BLOCK", block)
        serial = _audit_outputs(tmp_path, 1, **kwargs)
        assert _audit_outputs(tmp_path, None, **kwargs) == serial
        assert _audit_outputs(tmp_path, 3, **kwargs) == serial
        # without a CSV the arrays are the same
        res = theorem_trials(**{**AUDIT, **kwargs})
        arrays = (res.var_blockage, res.lower_bound, res.delta_achieved, res.margin)
        assert [a.tobytes() for a in arrays] == serial[0]

    def in_child(self, monkeypatch, name, action):
        """Patch link.<name> so that it runs action() in a child process."""
        real, parent = getattr(link, name), os.getpid()

        def patched(*args):
            if os.getpid() != parent:
                action()
            return real(*args)

        monkeypatch.setattr(forked, "resolve_workers", lambda n=None: 2)
        monkeypatch.setattr(link, name, patched)

    def test_child_exception_is_raised_with_its_type(self, monkeypatch):
        def fail():
            raise FloatingPointError("planted in the child")

        self.in_child(monkeypatch, "_audit_rows", fail)
        with pytest.raises(FloatingPointError, match="planted in the child"):
            theorem_trials(20, b_values=(1, 2), seed=0, n_antennas=4, out=None)
        assert not multiprocessing.active_children()

    def test_child_killed_by_a_signal_is_a_runtime_error(self, monkeypatch):
        self.in_child(monkeypatch, "_audit_rows", lambda: os.kill(os.getpid(), signal.SIGKILL))
        message = f"trials 10-19: audit process exited with code -{int(signal.SIGKILL)}"
        with pytest.raises(RuntimeError, match=message):
            theorem_trials(20, b_values=(1, 2), seed=0, n_antennas=4, out=None)
        assert not multiprocessing.active_children()

    def test_trial_zero_guard_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(forked, "resolve_workers", lambda n=None: 2)
        monkeypatch.setattr(link, "_PCG_MULT", link._PCG_MULT + 2)
        with pytest.raises(RuntimeError, match="default_rng"):
            theorem_trials(20, b_values=(1,), seed=0, n_antennas=4, out=None)
        assert not multiprocessing.active_children()
