"""Time stepping, excitations, resonance extraction, frequency sweeps."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivenet import simulate, websterfem
from passivenet.core import DiscreteSystem, StateSpaceSystem, transfer_function
from passivenet.errors import DimensionMismatch, NonPositive
from passivenet.simulate import (
    ExcitationSpec,
    FrequencyResponse,
    excitation_signal,
    frequency_response,
    impulse,
    lf_pulse_train,
    log_sweep,
    resonances,
    semitone_discrepancy,
    step_response,
    sweep_instant_frequency,
    write_response_csv,
    write_timeseries_csv,
)
from passivenet.pipelines import uniform_tube
from passivenet.transforms import internal_cayley
from conftest import (
    STEP_PARITY,
    normwise,
    random_conservative,
    random_impedance_passive,
    stepping_gaps,
)


class TestStepResponse:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["inputs", "x0"])
    def test_non_finite_inputs_or_state_rejected(self, name, value):
        phi = DiscreteSystem(np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 2)),
                             np.zeros((1, 1)), sigma=1.0, split=(1, 0))
        args = {"inputs": np.ones((6, 1)), "x0": np.ones(2)}
        args[name][1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=f"^{name} contains non-finite"):
                step_response(phi, args["inputs"], x0=args["x0"])

    def test_zero_input_zero_state(self):
        phi = DiscreteSystem(np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 2)),
                             np.zeros((1, 1)), sigma=1.0, split=(1, 0))
        Y = step_response(phi, np.zeros((10, 1)))
        assert np.count_nonzero(Y) == 0

    def test_scalar_geometric_impulse(self):
        phi = DiscreteSystem(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]),
                             np.array([[0.0]]), sigma=1.0, split=(1, 0))
        u = np.zeros((8, 1))
        u[0, 0] = 1.0
        Y = step_response(phi, u)
        # closed-form recursion: y_0 = 0, y_j = (1/2)^(j-1)
        assert Y[0, 0] == 0.0
        for j in range(1, 8):
            assert Y[j, 0] == pytest.approx(0.5 ** (j - 1), rel=1e-14)

    def test_conservative_energy_identity(self, rng):
        sys = random_conservative(rng, 6, 1, 1)
        phi = internal_cayley(sys, 13.0)
        u = rng.standard_normal((500, 2))
        _, balance, states = step_response(phi, u, record_energy=True)
        scale = 1.0 + (states ** 2).sum(axis=1).max()
        assert np.abs(balance).max() <= 1e-10 * scale

    def test_scattering_balance_modes(self, rng):
        from oracles import pi_scattering_system
        scat = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0)
        phi = internal_cayley(scat, 88200.0)
        u = rng.standard_normal((400, 2))
        _, balance, states = step_response(phi, u, record_energy="scattering")
        scale = 1.0 + (states ** 2).sum(axis=1).max() + (u ** 2).sum(axis=1).max()
        # scattering conservative: equality per step
        assert np.abs(balance).max() <= 1e-10 * scale
        # a merely passive system dissipates: defect stays nonpositive
        lossy = scat.replace(A=scat.A - 1e4 * np.eye(3))
        phi2 = internal_cayley(lossy, 88200.0)
        _, balance2, _ = step_response(phi2, u, record_energy="scattering")
        assert balance2.max() <= 1e-10 * scale


def _block_edge_lengths(L: int) -> list[int]:
    """Step counts at the block edges when the block length is L >= 2."""
    return [0, 1, L - 1, L, L + 1,
            L * L - L + 1,      # the last block is a single step
            L * L - 1,          # the last block is one step short
            L * L,              # L full blocks
            L * L + 1,          # the block length grows to L + 1
            97]                 # prime


class TestBlockStepping:
    """Block stepping against the per-sample loop in ``oracles``."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 2),
           nsteps=st.integers(2, 9).flatmap(lambda L: st.sampled_from(_block_edge_lengths(L))),
           sigma=st.sampled_from([0.5, 3.0, 20.0]),
           mode=st.sampled_from([False, "impedance", "scattering"]))
    def test_matches_loop_on_stable_systems(self, seed, n, m, nsteps, sigma, mode):
        # a strictly passive system in printed-like coordinates: state units
        # graded over 1e-2..1e2 after a rotation of condition 100, so |Ad|
        # reaches 1e4 (the vowel composite's is 1143).  Ad^L keeps the
        # loop's accuracy under unit scaling but not under rotations of far
        # larger condition; see step_response.
        rng = np.random.default_rng(seed)
        sys = random_impedance_passive(rng, n, m, 0)
        Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        T = np.diag(10.0 ** rng.uniform(-2.0, 2.0, n)) @ Q1 @ np.diag(np.logspace(0, 2, n)) @ Q2
        sys = sys.replace(A=T @ sys.A @ np.linalg.inv(T), B=T @ sys.B,
                          C=sys.C @ np.linalg.inv(T))
        phi = internal_cayley(sys, sigma)
        gaps = stepping_gaps(phi, rng.standard_normal((nsteps, m)),
                             x0=rng.standard_normal(n), record_energy=mode)
        assert max(gaps.values()) <= STEP_PARITY, gaps

    def test_empty_input_shapes(self):
        phi = DiscreteSystem(0.5 * np.eye(3), np.ones((3, 2)), np.ones((2, 3)),
                             np.zeros((2, 2)), sigma=1.0, split=(2, 0))
        assert step_response(phi, np.zeros((0, 2))).shape == (0, 2)
        for mode in ("impedance", "scattering"):
            Y, balance, states = step_response(phi, np.zeros((0, 2)), record_energy=mode)
            assert (Y.shape, balance.shape, states.shape) == ((0, 2), (0,), (0, 3))

    def test_repeat_is_bit_identical_and_prefix_drifts(self, rng):
        phi = internal_cayley(random_impedance_passive(rng, 12, 1, 1), 5.0)
        u, x0 = rng.standard_normal((1000, 2)), rng.standard_normal(12)
        first, second = (step_response(phi, u, x0=x0, record_energy=True) for _ in range(2))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        # 1000 steps run in blocks of 32, their first 900 in blocks of 30
        Y, _, states = first
        Yp, _, prefix = step_response(phi, u[:900], x0=x0, record_energy=True)
        assert normwise(Yp, Y[:900]) <= 1e-12
        assert normwise(prefix, states[:900]) <= 1e-12

    def test_conservative_balance_holds_at_block_seams(self):
        # acceptance 9's system: balances read from the recorded states, with
        # the next block's start as the successor, reach 2.4e-14 of scale at
        # the seams; with the one-step successor the worst is 1.3e-15 (the
        # per-sample loop's is 7.1e-16)
        model = websterfem.assemble(uniform_tube(0.175, 1e-4), 99, 343.0, 1.225)
        phi = internal_cayley(model.system, 88200.0)
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=10000 / 44100.0,
                              sample_rate=44100.0)
        u = np.zeros((10000, 2))
        u[:, 0] = lf_pulse_train(spec)[:10000]
        _, balance, states = step_response(phi, u, record_energy=True)
        scale = 1.0 + (states ** 2).sum(axis=1).max()
        assert np.abs(balance).max() <= 1e-14 * scale

    def test_unrecorded_path_keeps_only_block_memory(self, rng):
        # no N x n array but the recorded states: the unrecorded path's peak
        # stays far below one, the recorded path's near the states alone
        n, nsteps = 50, 10000
        phi = internal_cayley(random_impedance_passive(rng, n, 1, 0), 3.0)
        u = rng.standard_normal((nsteps, 1))
        big = nsteps * n * 8
        tracemalloc.start()
        try:
            Y = step_response(phi, u)
            _, unrecorded_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            Y_rec, _, states = step_response(phi, u, record_energy=True)
            _, recorded_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(Y, Y_rec)
        assert states.nbytes == big
        assert unrecorded_peak <= big / 4
        assert recorded_peak - Y.nbytes <= big + big / 4    # the first Y is still held

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 2),
           p=st.integers(1, 3),
           nsteps=st.integers(2, 9).flatmap(lambda L: st.sampled_from(_block_edge_lengths(L))))
    def test_observe_matches_recorded_states(self, seed, n, m, p, nsteps):
        # the readouts equal states @ P' of the recorded path, and asking
        # for them leaves the outputs' bits alone, at every block seam
        rng = np.random.default_rng(seed)
        phi = internal_cayley(random_impedance_passive(rng, n, m, 0), 3.0)
        u, x0 = rng.standard_normal((nsteps, m)), rng.standard_normal(n)
        P = rng.standard_normal((p, n))
        Y = step_response(phi, u, x0=x0)
        Y_rec, _, states = step_response(phi, u, x0=x0, record_energy=True)
        Y_obs = step_response(phi, u, x0=x0, observe=P)
        assert Y_obs.shape == (nsteps, m + p)
        np.testing.assert_array_equal(Y_obs[:, :m], Y)
        np.testing.assert_array_equal(Y_obs[:, :m], Y_rec)
        assert normwise(Y_obs[:, m:], states @ P.T) <= 1e-14

    def test_observe_one_row_and_with_energy(self, rng):
        phi = internal_cayley(random_impedance_passive(rng, 5, 1, 0), 2.0)
        u, row = rng.standard_normal((40, 1)), rng.standard_normal(5)
        Y, balance, states = step_response(phi, u, record_energy=True, observe=row)
        Y_rec, balance_rec, states_rec = step_response(phi, u, record_energy=True)
        np.testing.assert_array_equal(Y[:, :1], Y_rec)
        np.testing.assert_array_equal(balance, balance_rec)
        np.testing.assert_array_equal(states, states_rec)
        assert normwise(Y[:, 1], states @ row) <= 1e-14
        assert step_response(phi, np.zeros((0, 1)), observe=row).shape == (0, 2)

    @pytest.mark.parametrize("observe, match", [
        (np.ones((2, 4)), "^observe has width 4, system has n=5"),
        (np.ones(6), "^observe has width 6, system has n=5"),
        (np.full((1, 5), np.nan), "^observe contains non-finite"),
        (np.ones((1, 1, 5)), "^observe must be a 2-D real matrix")])
    def test_observe_shape_and_values_checked(self, rng, observe, match):
        phi = internal_cayley(random_impedance_passive(rng, 5, 1, 0), 2.0)
        with pytest.raises(DimensionMismatch, match=match):
            step_response(phi, np.ones((3, 1)), observe=observe)

    def test_observed_path_keeps_only_block_memory(self, rng):
        # readouts instead of the N x n state record: the peak stays below a
        # quarter of one N x n array, as on the unrecorded path
        n, nsteps = 50, 10000
        phi = internal_cayley(random_impedance_passive(rng, n, 1, 0), 3.0)
        u, P = rng.standard_normal((nsteps, 1)), rng.standard_normal((2, n))
        tracemalloc.start()
        try:
            Y = step_response(phi, u, observe=P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Y.shape == (nsteps, 3)
        assert peak <= nsteps * n * 8 / 4


class TestExcitations:
    def test_lf_period_and_positivity(self):
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.1,
                              sample_rate=44100.0)
        x = lf_pulse_train(spec)
        assert np.all(x >= 0.0)
        assert x.mean() > 0.0
        # 120 Hz at 44.1 kHz: one period is 367.5 samples, two are exactly 735
        assert np.abs(x[735:2940] - x[:2205]).max() <= 1e-9

    def test_lf_peak_normalised(self):
        spec = ExcitationSpec("LFPulseTrain", f0=100.0, duration=0.05,
                              sample_rate=16000.0)
        x = lf_pulse_train(spec)
        assert x.max() == pytest.approx(1.0)

    def test_log_sweep_constant_amplitude(self):
        spec = ExcitationSpec("LogSweep", f0=50.0, duration=1.0,
                              sample_rate=8000.0, f1=2000.0)
        x = log_sweep(spec)
        assert np.abs(x).max() <= 1.0
        f = sweep_instant_frequency(spec, np.array([0.0, 1.0]))
        assert f[0] == pytest.approx(50.0)
        assert f[1] == pytest.approx(2000.0)

    @pytest.mark.parametrize("f1", [50.0, 100.0, 0.0, -10.0, float("nan"), float("inf")])
    def test_sweep_end_must_be_finite_and_exceed_start(self, f1):
        with pytest.raises(DimensionMismatch, match="f1="):
            ExcitationSpec("LogSweep", f0=100.0, duration=1.0, sample_rate=8000.0, f1=f1)

    def test_default_sweep_end_below_start_rejected_by_both(self):
        # f0 above the default end 0.45 * sample_rate: no falling sweep anywhere
        spec = ExcitationSpec("LogSweep", f0=500.0, duration=1.0, sample_rate=1000.0)
        with pytest.raises(DimensionMismatch, match="must exceed start"):
            log_sweep(spec)
        with pytest.raises(DimensionMismatch, match="must exceed start"):
            sweep_instant_frequency(spec, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("name", ["sample_rate", "duration", "f0"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0,
                                       pytest.param(10**400, id="1e400")])
    def test_scalars_positive_and_finite(self, name, value):
        # duration = inf used to raise a raw OverflowError from n_samples,
        # and f0 = inf a ZeroDivisionError from the signal
        fields = {"f0": 120.0, "duration": 0.1, "sample_rate": 8000.0, name: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=f"^{name} must be positive and finite"):
                ExcitationSpec("LFPulseTrain", **fields)

    @pytest.mark.parametrize("shape", [(0.6, 0.7), (0.6, 0.7, 0.1, 0.2), ("a", 0.7, 0.1),
                                       (0.6, True, 0.1), (0.6, 0.7, float("nan")),
                                       (0.6, 0.7, 1.0), 0.6])
    def test_lf_shape_must_be_three_numbers_in_unit_interval(self, shape):
        # the first two failed in excitation_signal with a raw ValueError
        # from unpacking, and the third raised a TypeError from comparing
        with pytest.raises(DimensionMismatch, match=r"^lf_shape must be three numbers in \(0, 1\)"):
            ExcitationSpec("LFPulseTrain", 120.0, 0.05, 44100.0, lf_shape=shape)

    @pytest.mark.parametrize("kind", ["LFPulseTrain", "LogSweep", "Impulse"])
    def test_no_samples_rejected(self, kind):
        # 1 us at 44.1 kHz rounds to 0 samples, which failed inside numpy
        with pytest.raises(DimensionMismatch, match="^duration=1e-06 s at sample_rate=44100.0 Hz"):
            ExcitationSpec(kind, 120.0, 1e-6, 44100.0)
        assert ExcitationSpec(kind, 120.0, 1 / 44100, 44100.0).n_samples == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 155])
    def test_lf_train_before_first_peak_rejected(self, n):
        # the first flow peak is at Tp = 0.7 * 0.6 / 120 s = 3.5 ms, 154.35
        # samples at 44.1 kHz; a shorter train has no peak to scale by (its
        # largest sample would read 1, so 2 samples would give [0, 1])
        spec = ExcitationSpec("LFPulseTrain", 120.0, n / 44100, 44100.0)
        with pytest.raises(DimensionMismatch, match="^duration=.* before the first LF flow peak"):
            lf_pulse_train(spec)

    def test_lf_train_reaching_first_peak_is_normalised_to_it(self):
        # 156 samples reach Tp: the peak is sample 154, within the sampling
        # ripple (1.5e-5) of a 0.05 s train's scale
        short = lf_pulse_train(ExcitationSpec("LFPulseTrain", 120.0, 156 / 44100, 44100.0))
        long = lf_pulse_train(ExcitationSpec("LFPulseTrain", 120.0, 0.05, 44100.0))
        assert short.argmax() == 154 and short.max() == 1.0
        assert np.abs(short - long[:156]).max() <= 1e-4

    def test_impulse_and_dispatcher(self):
        spec = ExcitationSpec("Impulse", f0=1.0, duration=0.01, sample_rate=1000.0)
        x = excitation_signal(spec)
        assert x[0] == 1.0 and np.count_nonzero(x) == 1
        assert np.array_equal(x, impulse(spec))

    def test_brent_port_matches_scipy_brentq(self, monkeypatch):
        # every root find of the LF solve lands within twice Brent's default
        # tolerance, 2e-12 + 4 eps |root|, of scipy's root
        from scipy.optimize import brentq
        port = simulate._bisect
        finds = []

        def both(f, lo, hi):
            got = port(f, lo, hi)
            finds.append((got, brentq(f, lo, hi)))
            return got

        monkeypatch.setattr(simulate, "_bisect", both)
        shapes = itertools.product((0.05, 0.3, 0.6, 0.95), (0.1, 0.5, 0.7, 0.99),
                                   (0.01, 0.1, 0.5, 0.9))
        for f0, shape in itertools.product((55.0, 120.0, 333.3, 1000.0), shapes):
            simulate._solve_lf(f0, shape)
        assert len(finds) == 2 * 4 * 64
        eps = np.finfo(float).eps
        assert all(abs(got - want) <= 2 * (2e-12 + 4 * eps * abs(want)) for got, want in finds)

    def test_brent_port_reports_no_root(self):
        assert simulate._bisect(lambda x: x * x + 1.0, -1.0, 1.0) is None
        assert simulate._bisect(lambda x: float("nan"), -1.0, 1.0) is None
        assert simulate._bisect(lambda x: 1.0 if x > 1.0 else -1.0, -1e6, 1e6) == \
            pytest.approx(1.0, abs=1e-11)

    def test_lf_solve_that_does_not_converge_names_the_shape(self, monkeypatch):
        monkeypatch.setattr(simulate, "_bisect", lambda f, lo, hi: None)
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.05, sample_rate=44100.0)
        with pytest.raises(DimensionMismatch, match=r"^lf_shape=\(0.6, 0.7, 0.1\) at f0=120.0 Hz"):
            excitation_signal(spec)

    # the shapes of {0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99}^3 whose
    # net flow keeps one sign until exp(alpha Te) overflows; they raised a
    # bare OverflowError from the bracket search
    @pytest.mark.parametrize("shape", [(0.01, am, qa) for am in (0.3, 0.7)
                                       for qa in (0.3, 0.5, 0.7, 0.9, 0.95, 0.99)]
                             + [(0.01, 0.9, qa) for qa in (0.7, 0.9, 0.95, 0.99)])
    def test_lf_shape_without_closing_alpha_rejected(self, shape):
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.05, sample_rate=44100.0,
                              lf_shape=shape)
        with pytest.raises(DimensionMismatch,
                           match=rf"^lf_shape={re.escape(str(shape))} .*no growth rate alpha"):
            excitation_signal(spec)


class TestResonances:
    def test_pure_rotation(self):
        omega = 7.0
        sys = StateSpaceSystem(np.array([[0.0, omega], [-omega, 0.0]]),
                               np.zeros((2, 1)), np.zeros((1, 2)),
                               np.zeros((1, 1)), split=(1, 0))
        res = resonances(sys)
        assert len(res) == 1
        assert res.frequencies[0] == pytest.approx(omega / (2 * np.pi))
        assert abs(res.decay_rates[0]) < 1e-14

    def test_real_eigenvalues_excluded(self):
        sys = StateSpaceSystem(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                               np.zeros((1, 2)), np.zeros((1, 1)), split=(1, 0))
        assert len(resonances(sys)) == 0


class TestFrequencyResponse:
    def test_feedthrough_constant(self):
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                               np.array([[2.5]]), split=(1, 0))
        resp = frequency_response(sys, [10.0, 100.0, 1000.0])
        assert np.allclose(resp.values, 2.5)
        assert resp.ok.all()

    def test_peaks_align_with_eigenvalues(self):
        # lightly damped two-mode system: |G| peaks sit at the resonances
        w1, w2, z = 2 * np.pi * 100.0, 2 * np.pi * 320.0, 0.01
        blocks = []
        for w in (w1, w2):
            blocks.append(np.array([[0.0, w], [-w, -2 * z * w]]))
        A = np.zeros((4, 4))
        A[:2, :2], A[2:, 2:] = blocks
        B = np.array([[0.0], [1.0], [0.0], [1.0]])
        C = np.array([[0.0, 1.0, 0.0, 1.0]])
        sys = StateSpaceSystem(A, B, C, np.zeros((1, 1)), split=(1, 0))
        grid = np.linspace(50.0, 400.0, 1200)
        resp = frequency_response(sys, grid)
        mag = resp.magnitude()
        res = resonances(sys)
        for f_res in res.frequencies:
            i = np.argmin(np.abs(grid - f_res))
            lo, hi = max(0, i - 12), min(grid.size, i + 12)
            peak = lo + np.argmax(mag[lo:hi])
            assert abs(grid[peak] - f_res) <= 2 * (grid[1] - grid[0]) + 0.03 * f_res

    def test_sweep_amplitude_matches_transfer(self):
        # drive the Cayley discretisation with a slow log sweep; the output
        # envelope at a probe time tracks |G| at the instantaneous frequency
        w0, z = 2 * np.pi * 300.0, 0.2
        A = np.array([[0.0, w0], [-w0, -2 * z * w0]])
        B = np.array([[0.0], [1.0]])
        C = np.array([[0.0, 1.0]])
        sys = StateSpaceSystem(A, B, C, np.zeros((1, 1)), split=(1, 0))
        fs = 16000.0
        spec = ExcitationSpec("LogSweep", f0=60.0, duration=10.0, sample_rate=fs,
                              f1=1500.0)
        x = log_sweep(spec)
        phi = internal_cayley(sys, 2.0 * fs)
        y = step_response(phi, x.reshape(-1, 1))[:, 0]
        t = np.arange(x.size) / fs
        for f_probe in (150.0, 300.0, 700.0):
            want = abs(transfer_function(sys, 2j * np.pi * f_probe)[0, 0])
            t_probe = t[np.argmin(np.abs(sweep_instant_frequency(spec, t) - f_probe))]
            # window: wide enough for a probe period, narrow against the sweep
            window = (t > t_probe - 0.02) & (t < t_probe + 0.02)
            got = np.abs(y[window]).max()
            assert abs(got - want) <= 0.05 * want


class TestFrequencyResponseFlags:
    def test_on_spectrum_point_flagged_not_fatal(self):
        # lossless oscillator evaluated exactly at its resonance: that grid
        # point is flagged, the rest of the sweep survives
        omega = 2 * np.pi * 100.0
        sys = StateSpaceSystem(np.array([[0.0, omega], [-omega, 0.0]]),
                               np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]),
                               np.zeros((1, 1)), split=(1, 0))
        resp = frequency_response(sys, [50.0, 100.0, 150.0])
        assert resp.ok[0] and resp.ok[2]
        assert not resp.ok[1]
        assert np.isnan(resp.values[1]).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_frequency_flagged_silently(self, bad):
        # 2j * pi * inf makes 0 * inf in the real part; the point must be
        # flagged without a RuntimeWarning, which the suite makes an error
        sys = StateSpaceSystem(np.array([[-1.0, 2.0], [-2.0, -1.0]]), np.ones((2, 1)),
                               np.ones((1, 2)), np.zeros((1, 1)), split=(1, 0))
        resp = frequency_response(sys, [bad, 1e5])
        assert resp.ok.tolist() == [False, True]
        assert np.isnan(resp.values[0]).all()
        assert np.array_equal(resp.values[1], frequency_response(sys, [1e5]).values[0])

    @pytest.mark.parametrize("on_spectrum_hz, input_scale",
                             [(100.0, [1.0, 1.0]), (0.0, [1.0, 1.0]), (0.0, [1e300, 1e-14])],
                             ids=["oscillator", "zero", "zero-graded-input"])
    def test_on_spectrum_point_leaves_the_others_unchanged(self, rng, on_spectrum_hz,
                                                           input_scale):
        # block upper-triangular A with an exact eigenvalue at 2 pi i f
        # (+-i 2 pi 100 from an undamped oscillator, or 0 on the diagonal)
        # beside damped modes; the gated point shares a chunk of the sweep
        # with 40 others, whose values must not notice it.  With a 1e300
        # input column the gated point's solve overflows, and the other
        # points must keep their 1e-14 column all the same.
        n = 9
        A = np.triu(rng.standard_normal((n, n)), 1)
        A[np.arange(2, n), np.arange(2, n)] = -rng.uniform(1.0, 1e3, n - 2)
        if on_spectrum_hz:
            w = 2 * np.pi * on_spectrum_hz
            A[:2, :2] = [[0.0, w], [-w, 0.0]]
        else:
            A[:2, :2] = [[0.0, 1.0], [0.0, -5.0]]
        sys = StateSpaceSystem(A, rng.standard_normal((n, 2)) * input_scale,
                               rng.standard_normal((2, n)), np.zeros((2, 2)), split=(1, 1))
        others = np.geomspace(1.0, 1e4, 40)
        grid = np.insert(others, 20, on_spectrum_hz)
        with_point, without = frequency_response(sys, grid), frequency_response(sys, others)
        assert not with_point.ok[20] and without.ok.all()
        keep = np.delete(np.arange(grid.size), 20)
        assert np.array_equal(with_point.ok[keep], without.ok)
        got, want = with_point.values[keep], without.values
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()


class TestEpsilonContinuity:
    def test_regularised_composite_frequencies_continuous(self):
        # eigenfrequencies of the coupled ladder move smoothly in the shift
        from passivenet.pipelines import ButterworthConfig, butterworth_compose
        freqs = {}
        for eps in (1e-4, 2e-4):
            cfg = ButterworthConfig(epsilon=eps)
            model = butterworth_compose(cfg)
            lam = np.linalg.eigvals(model.regularized_rotated.A)
            freqs[eps] = np.sort(lam.imag[lam.imag > 1.0])
        a, b = freqs[1e-4], freqs[2e-4]
        assert a.size == b.size
        assert np.abs(a - b).max() <= 1e-3 * np.abs(a).max()


class TestSemitones:
    def test_values(self):
        assert semitone_discrepancy(440.0, 440.0) == 0.0
        assert semitone_discrepancy(880.0, 440.0) == pytest.approx(12.0)
        assert round(semitone_discrepancy(338.0, 340.0), 1) == -0.1

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositive):
            semitone_discrepancy(0.0, 440.0)


class TestCsvWriters:
    def test_timeseries_round_trip(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        y = np.sin(t)
        path = tmp_path / "ts.csv"
        write_timeseries_csv(path, t, {"y1": y})
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t_s,y1"
        back = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.array_equal(back[:, 0], t)
        assert np.array_equal(back[:, 1], y)

    def test_response_header(self, tmp_path):
        resp = FrequencyResponse(np.array([1.0]),
                                 np.array([[[1 + 2j]]]), np.array([True]))
        path = tmp_path / "fr.csv"
        write_response_csv(path, resp)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "f_hz,re_11,im_11"
        assert rows[1] == "1,1,2"
