"""Both applications end to end: the coupled pi-ladder and the terminated
waveguide, checked against closed forms and ABCD-chain oracles."""

import dataclasses
import functools
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg

from oracles import (
    abcd_to_impedance,
    abcd_to_s11,
    abcd_to_s21,
    butterworth_star_mp,
    ladder_impedance_closed_form,
    ladder5_abcd,
    periodic_steady_state,
    pi_abcd,
    pi_scattering_system,
    star_transfer,
    terminated_impedance,
    terminated_impedance_mp,
)

from passivenet import core, simulate
from passivenet.core import io_equivalent, minimality, transfer_function
from passivenet.errors import DimensionMismatch, NearSpectrum, NotProperlyPassive, NotWellPosed
from passivenet.feedback import regularize, star_of_impedance_pair, star_product
from passivenet.loewner import PistonParams
from passivenet.passivity import (
    CONSERVATIVE,
    impedance_certificate,
    impedance_violation_bands,
    properly_impedance_passive,
    scattering_conservative_check,
)
from passivenet.pipelines import (
    ButterworthConfig,
    WaveguideConfig,
    butterworth_compose,
    butterworth_sparams,
    minimal_butterworth,
    pi_circuit_system,
    two_segment_tube,
    uniform_tube,
    waveguide_compose,
    waveguide_report,
    _CHANNEL_RESISTANCE,
    _rotated_product,
)
from passivenet.simulate import ExcitationSpec, frequency_response, resonances, step_response
from passivenet.transforms import (ResistanceMatrix, external_cayley, internal_cayley,
                                   inverse_external_cayley)
from conftest import STEP_PARITY, normwise, stepping_gaps

CFG = ButterworthConfig()  # 2.2 nF / 3.4 nF / 14 uH / 50 ohm / 1 nohm


class TestConfigValues:
    """Non-finite or non-positive physical values are rejected at
    construction, naming the field, instead of failing later inside a
    transform."""

    @pytest.mark.parametrize("name, value", [
        ("c", np.nan), ("rho", np.inf), ("sigma", np.inf), ("square", np.nan),
        ("epsilon_factor", np.nan), ("epsilon_factor", -0.1), ("c", -343.0)])
    def test_waveguide(self, name, value):
        with pytest.raises(DimensionMismatch, match=f"^{name} must be"):
            WaveguideConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("n", 4.5), ("n", 0), ("k", 2.0), ("k", "16")])
    def test_waveguide_counts(self, name, value):
        with pytest.raises(DimensionMismatch, match="^n and k must be positive integers"):
            WaveguideConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("c1", np.nan), ("l1", np.inf), ("epsilon", np.nan), ("r0", np.inf),
        ("c2", 0.0), ("epsilon", -1e-9), ("epsilon", np.inf)])
    def test_butterworth(self, name, value):
        with pytest.raises(DimensionMismatch, match=f"^{name} must be"):
            ButterworthConfig(**{name: value})

    def test_zero_shift_is_allowed(self):
        assert ButterworthConfig(epsilon=0.0).epsilon == 0.0
        assert WaveguideConfig(epsilon_factor=0.0).epsilon == 0.0

    @pytest.mark.parametrize("config, name, value", [
        (ButterworthConfig, "c1", "2e-9"), (ButterworthConfig, "r0", True),
        (ButterworthConfig, "epsilon", None), (WaveguideConfig, "c", "343"),
        (WaveguideConfig, "sigma", np.bool_(True)),
        (functools.partial(PistonParams, a=5.6e-3, rho=1.225, c=343.0), "a", None)])
    def test_wrong_type_is_named(self, config, name, value):
        # these raised a bare TypeError from '<', or were accepted as 1
        with pytest.raises(DimensionMismatch, match=f"^{name} must be a real number"):
            config(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("k", True, "n and k must be positive integers"),
        ("sample_points", 80.0, "sample_points must be a positive integer"),
        ("sample_points", 0, "sample_points must be a positive integer"),
        ("seed", True, "seed must be a nonnegative integer"),
        ("seed", 1.5, "seed must be a nonnegative integer"),
        ("seed", -1, "seed must be a nonnegative integer"),
        # rejected here, not by compose after the tube is assembled
        ("n", 1, "n must be at least 2, got 1"),
        ("sample_points", 3, "sample_points must be even and at least 4, got 3"),
        ("sample_points", 2, "sample_points must be even and at least 4, got 2"),
        ("k", 151, "k must be at most sample_points = 150, got 151")])
    def test_waveguide_integers(self, name, value, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}"):
            WaveguideConfig(**{name: value})

    def test_seed_zero_is_allowed(self):
        assert WaveguideConfig(seed=0).seed == 0

    @pytest.mark.parametrize("config, name, value, key", [
        (ButterworthConfig, "c2", 10**400, "c2 must be positive"),
        (ButterworthConfig, "r0", "50" * 500, "r0 must be a real number"),
        (WaveguideConfig, "n", 10**400, "n and k must be"),
        (WaveguideConfig, "k", [16] * 1000, "n and k must be"),
        (WaveguideConfig, "sample_points", 10**300 + 1, "sample_points must be even"),
        (WaveguideConfig, "k", 10**300, "k must be at most sample_points"),
        (WaveguideConfig, "seed", "2024" * 500, "seed must be"),
        (WaveguideConfig, "sigma", 10**400, "sigma must be positive"),
    ], ids=["c2", "r0", "n", "k", "sample_points", "k-big", "seed", "sigma"])
    def test_outside_value_is_quoted_briefly(self, config, name, value, key):
        # ButterworthConfig(c2=10**400) and WaveguideConfig(n=10**400) gave
        # messages of 437 and 444 characters
        with pytest.raises(DimensionMismatch, match=f"^{key}") as info:
            config(**{name: value})
        assert len(str(info.value)) <= 200

    def test_smallest_sizes_are_allowed(self):
        cfg = WaveguideConfig(n=2, sample_points=4, k=4)
        assert (cfg.n, cfg.sample_points, cfg.k) == (2, 4, 4)


class TestPiCircuit:
    def test_conservative(self):
        cert = impedance_certificate(pi_circuit_system(CFG.c1, CFG.c2, CFG.l1))
        assert cert.verdict == CONSERVATIVE

    def test_impedance_matches_abcd_oracle(self):
        sys = pi_circuit_system(CFG.c1, CFG.c2, CFG.l1)
        for f in (2e5, 9.0685e5, 3e6):  # includes the L-C1 resonance corner
            s = 2j * np.pi * f
            want = abcd_to_impedance(pi_abcd(s, CFG.c1, CFG.l1, CFG.c2))
            got = transfer_function(sys, s)
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    def test_scattering_form_is_external_cayley(self):
        # already covered entrywise in the transform tests; here: conservative
        sys = pi_scattering_system(CFG.c1, CFG.c2, CFG.l1, 50.0, 50.0)
        assert scattering_conservative_check(sys).verdict == CONSERVATIVE


class TestButterworthCompose:
    def test_unregularised_loop_rejected(self):
        with pytest.raises(NotWellPosed):
            butterworth_compose(ButterworthConfig(epsilon=0.0))

    def test_unregularised_rejection_carries_report(self):
        with pytest.raises(NotWellPosed) as info:
            butterworth_compose(ButterworthConfig(epsilon=0.0))
        report = info.value.report
        assert not report.well_posed and report.delta1_condition == np.inf

    def test_star_product_matches_analytic_at_moderate_epsilon(self):
        cfg = ButterworthConfig(epsilon=1e-3)
        model = butterworth_compose(cfg)
        R = ResistanceMatrix.uniform(cfg.r0, (1, 1))
        generic = star_product(*(
            external_cayley(regularize(pi_circuit_system(*c, cfg.l1), cfg.epsilon), R)
            for c in ((cfg.c1, cfg.c2), (cfg.c2, cfg.c1))))
        # same transfer function from the generic machinery and the analytic
        # rotated assembly (moderate eps keeps the direct product accurate)
        assert io_equivalent(generic, model.regularized_rotated, tol=1e-8)

    def test_one_over_eps_block_structure(self):
        model = butterworth_compose(CFG)
        A = model.regularized.A
        v = 1.0 / (2.0 * CFG.c2 * CFG.epsilon)
        # coupled-corner entries carry -v, +v: the Givens pair of the fast
        # diagonal -2v and the slow diagonal 0, exact up to a few roundings
        assert A[2, 2] == pytest.approx(-v, rel=1e-15)
        assert A[2, 3] == pytest.approx(v, rel=1e-15)
        assert A[3, 2] == pytest.approx(v, rel=1e-15)
        assert A[3, 3] == pytest.approx(-v, rel=1e-15)
        D = model.regularized.D
        assert D[0, 0] == pytest.approx((CFG.epsilon - CFG.r0) / (CFG.epsilon + CFG.r0))
        assert D[0, 1] == 0.0 and D[1, 0] == 0.0  # diagonal inheritance, exact

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_regularized_matches_mpmath_product(self, epsilon):
        # entrywise against the 50-digit product of the exact operands; every
        # structural zero must be exactly zero.  Measured: at most 3.5e-16
        # relative; the generic star product reads 1.1e-5 at eps = 1e-9.
        cfg = ButterworthConfig(epsilon=epsilon)
        sys = butterworth_compose(cfg).regularized
        got = np.block([[sys.A, sys.B], [sys.C, sys.D]])
        ref = butterworth_star_mp(cfg)
        for (i, j), x in np.ndenumerate(got):
            assert abs(mpmath.mpf(x) - ref[i, j]) <= 4 * np.finfo(float).eps * abs(ref[i, j])

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DimensionMismatch, match="^epsilon must be"):
            _rotated_product(CFG, -1e-9)

    def test_rotated_fast_mode_isolated(self):
        model = butterworth_compose(CFG)
        A = model.regularized_rotated.A
        assert A[5, 5] == pytest.approx(-1.0 / (CFG.c2 * CFG.epsilon))
        assert np.abs(A[:5, :5]).max() < 1e8  # slow block has no 1/eps content

    def test_extirpation_equals_minimal(self):
        # the eps = 0 product, whose fast row and column do not exist, is the
        # printed-form 5-state system exactly
        lim = _rotated_product(CFG, 0.0)
        tilde = minimal_butterworth(CFG)
        for x, y in ((lim.A, tilde.A), (lim.B, tilde.B), (lim.C, tilde.C),
                     (lim.D, tilde.D)):
            assert np.array_equal(x, y)

    def test_minimal_is_minimal_and_conservative(self):
        tilde = minimal_butterworth(CFG)
        rc, ro, minimal = minimality(tilde)
        assert minimal and rc == 5
        assert scattering_conservative_check(tilde).verdict == CONSERVATIVE

    def test_minimal_io_equivalent_to_tiny_epsilon_product(self):
        cfg = ButterworthConfig(epsilon=1e-12)
        model = butterworth_compose(cfg)
        assert io_equivalent(model.regularized_rotated, model.minimal, tol=1e-6)

    def test_impedance_matches_closed_form_and_ladder_oracle(self):
        model = butterworth_compose(CFG)
        for f in np.geomspace(1e4, 1e7, 25):
            s = 2j * np.pi * f
            want = ladder_impedance_closed_form(CFG, s)
            oracle = abcd_to_impedance(ladder5_abcd(s, CFG.c1, CFG.l1, CFG.c3))
            assert np.abs(want - oracle).max() <= 1e-12 * np.abs(oracle).max()
            got = transfer_function(model.impedance, s)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_impedance_symmetry(self):
        model = butterworth_compose(CFG)
        for f in (1e5, 5e5, 2e6):
            Z = transfer_function(model.impedance, 2j * np.pi * f)
            assert abs(Z[0, 0] - Z[1, 1]) <= 1e-8 * abs(Z[0, 0])
            assert abs(Z[0, 1] - Z[1, 0]) <= 1e-8 * abs(Z[0, 1])


class TestSParams:
    def test_lossless_power_balance(self):
        sp = butterworth_sparams(ButterworthConfig(epsilon=0.0),
                                 np.geomspace(1e4, 1e7, 20))
        power = np.abs(sp.s11) ** 2 + np.abs(sp.s21) ** 2
        assert np.abs(power - 1.0).max() <= 1e-8

    def test_zero_epsilon_sweeps_the_minimal_realisation(self):
        # the sweep solves port 1's column alone, in chunks of other points
        # than the full 2 x 2 sweep's, and reads the same bits: at eps = 0
        # from the minimal realisation, else from the rotated product, whose
        # every point takes the equilibrated-LU fallback at 1e-12
        grid = np.geomspace(1e4, 1e7, 400)
        for epsilon in (0.0, 1e-9, 1e-12):
            sp = butterworth_sparams(ButterworthConfig(epsilon=epsilon), grid)
            product = _rotated_product(CFG, epsilon) if epsilon else minimal_butterworth(CFG)
            resp = frequency_response(product, grid)
            assert np.array_equal(sp.s11, resp.values[:, 0, 0]), epsilon
            assert np.array_equal(sp.s21, resp.values[:, 1, 0]), epsilon

    def test_sweep_solves_one_input_column(self, monkeypatch):
        # 4000 points in chunks of 512 // (1 + 2) = 170: 24 chunks of three
        # solves, of 3 + 3 + 1 columns per point (the full 2 x 2 sweep takes
        # 96 solves of 40 000 columns)
        widths = []
        solve = core._ResolventPlan._solve
        monkeypatch.setattr(core._ResolventPlan, "_solve",
                            lambda plan, shifts, Y: widths.append(Y.shape[1])
                            or solve(plan, shifts, Y))
        sp = butterworth_sparams(CFG, np.geomspace(1e4, 1e7, 4000))
        assert sp.s21.size == 4000
        assert (len(widths), sum(widths)) == (72, 28_000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency_is_a_usage_error(self, bad):
        # a grid entry that is not a frequency is not a point on the spectrum
        with pytest.raises(DimensionMismatch, match=f"grid frequency {bad} Hz is not finite"):
            butterworth_sparams(CFG, [1e5, bad, 2e5, np.nan])

    def test_matches_abcd_oracle(self):
        sp = butterworth_sparams(CFG, np.array([2e5, 1e6, 3e6]))
        for f, s11, s21 in zip(sp.frequencies, sp.s11, sp.s21):
            T = ladder5_abcd(2j * np.pi * f, CFG.c1, CFG.l1, CFG.c3)
            assert abs(s21 - abcd_to_s21(T, CFG.r0)) <= 1e-6 * abs(s21)
            assert abs(abs(s11) - abs(abcd_to_s11(T, CFG.r0))) <= 1e-6

    def test_tiny_epsilon_matches_abcd_oracle(self):
        # at epsilon = 1e-12 the fast mode sits at -2.9e20, and two refinement
        # steps of the Schur solve leave a backward error near 1e-9; the
        # regularisation error itself is ~2e-13, so each point must be exact
        cfg = ButterworthConfig(epsilon=1e-12)
        sp = butterworth_sparams(cfg, np.geomspace(1e4, 1e7, 40))
        for f, s11, s21 in zip(sp.frequencies, sp.s11, sp.s21):
            T = ladder5_abcd(2j * np.pi * f, cfg.c1, cfg.l1, cfg.c3)
            assert abs(s21 - abcd_to_s21(T, cfg.r0)) <= 1e-11 * abs(s21)
            assert abs(abs(s11) - abs(abcd_to_s11(T, cfg.r0))) <= 1e-11

    def test_transmission_at_one_megahertz_regression(self):
        # with these standard-series component values the half-power corner
        # sits at 931 kHz, so 1 MHz reads -4.91 dB (not the nominal -3 dB)
        sp = butterworth_sparams(CFG, np.array([1e6]))
        level_db = 20 * np.log10(abs(sp.s21[0]))
        assert level_db == pytest.approx(-4.906, abs=0.01)

    def test_gated_point_raises(self, monkeypatch):
        # a sweep only flags gated points; the S-parameter table must not
        # silently carry them, so any gated point is fatal here
        monkeypatch.setattr(core, "RCOND_FLOOR", 1e300)
        with pytest.raises(NearSpectrum):
            butterworth_sparams(CFG, np.array([2e5, 1e6]))


def _star_of_sections(epsilon: float, s: complex) -> np.ndarray:
    """Pointwise Redheffer star of the two regularised pi sections' 2x2
    scattering values (3 states each, no stiff mode)."""
    p = pi_scattering_system(CFG.c1, CFG.c2, CFG.l1, CFG.r0, CFG.r0, epsilon)
    q = pi_scattering_system(CFG.c2, CFG.c1, CFG.l1, CFG.r0, CFG.r0, epsilon)
    return star_transfer(p, q, s)


def _series_resistor(r: float) -> np.ndarray:
    return np.array([[1.0, r], [0.0, 1.0]], dtype=complex)


class TestButterworthPointwiseStar:
    """The paper's coupling claim for the ladder, point by point: the star
    product of the component values against the realisations and the
    ladder oracles, and its epsilon -> 0 limit."""

    S = 2j * np.pi * np.geomspace(1e4, 1e7, 200)

    def _stars(self, epsilon):
        return np.array([_star_of_sections(epsilon, s) for s in self.S])

    def test_regularised_star_is_the_resistor_padded_ladder(self):
        # each eps shift is a series resistor: eps at the outer ports and
        # 2 eps between the coupled C2 nodes (measured agreement 1.6e-15)
        for eps in (1e-1, 1e-5, CFG.epsilon):
            star = self._stars(eps)
            chain = [_series_resistor(eps) @ pi_abcd(s, CFG.c1, CFG.l1, CFG.c2)
                     @ _series_resistor(2.0 * eps) @ pi_abcd(s, CFG.c2, CFG.l1, CFG.c1)
                     @ _series_resistor(eps) for s in self.S]
            s11 = np.array([abcd_to_s11(T, CFG.r0) for T in chain])
            s21 = np.array([abcd_to_s21(T, CFG.r0) for T in chain])
            assert np.abs(star[:, 0, 0] - s11).max() <= 1e-13
            assert (np.abs(star[:, 1, 0] - s21) / np.abs(s21)).max() <= 1e-13

    def test_matches_the_rotated_realisation(self):
        # measured 1.7e-15 at eps = 1e-9
        model = butterworth_compose(CFG)
        got = frequency_response(model.regularized_rotated, self.S.imag / (2 * np.pi))
        star = self._stars(CFG.epsilon)
        assert got.ok.all()
        assert np.abs(got.values - star).max() <= 1e-12

    def test_printed_realisation_is_the_same_system(self):
        # the printed basis couples the -2.9e17 fast mode into the slow
        # states, so double evaluation of it is good to 2.8e-6 only
        # (measured); that, not a different transfer, is why
        # io_equivalent(regularized, regularized_rotated) reads False at 1e-8
        model = butterworth_compose(CFG)
        got = frequency_response(model.regularized, self.S.imag / (2 * np.pi))
        assert np.abs(got.values - self._stars(CFG.epsilon)).max() <= 1e-5

    def test_epsilon_to_zero_converges_linearly(self):
        # |S(eps) - S(0)| -> (2 / R0) eps: the padded ladder's 4 eps of
        # series resistance reflect 4 eps / (2 R0) at DC
        I = np.eye(2)
        limit = []
        for s in self.S:
            Z = ladder_impedance_closed_form(CFG, s)
            limit.append((Z - CFG.r0 * I) @ np.linalg.inv(Z + CFG.r0 * I))
        eps = np.logspace(-1, -9, 9)
        gaps = np.array([np.abs(self._stars(e) - np.array(limit)).max() for e in eps])
        rate = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
        assert abs(rate - 1.0) <= 0.01
        np.testing.assert_allclose(gaps[2:] / eps[2:], 2.0 / CFG.r0, rtol=1e-3)
        abcd = [ladder5_abcd(s, CFG.c1, CFG.l1, CFG.c3) for s in self.S]
        star = self._stars(CFG.epsilon)
        s21 = np.array([abcd_to_s21(T, CFG.r0) for T in abcd])
        s11 = np.array([abcd_to_s11(T, CFG.r0) for T in abcd])
        assert (np.abs(star[:, 1, 0] - s21) / np.abs(s21)).max() <= 1e-9
        assert np.abs(star[:, 0, 0] - s11).max() <= 2.5 * CFG.epsilon / CFG.r0


@pytest.fixture(scope="module")
def small_composite():
    cfg = WaveguideConfig(area=uniform_tube(), n=24, k=12, sample_points=80)
    return cfg, waveguide_compose(cfg)


class TestWaveguide:

    def test_state_dimension(self, small_composite):
        cfg, comp = small_composite
        assert comp.composite_impedance.n == 4 * cfg.n + cfg.k
        assert comp.composite_impedance.split == (1, 0)
        assert comp.discrete.sigma == cfg.sigma

    def test_left_half_plane(self, small_composite):
        _, comp = small_composite
        lam = np.linalg.eigvals(comp.composite_impedance.A)
        tol = 1e-9 * max(1.0, np.abs(lam).max())
        assert lam.real.max() <= tol

    def test_load_adds_damping_to_every_mode(self, small_composite):
        _, comp = small_composite
        tube_res = resonances(comp.tube.system)
        comp_res = resonances(comp.composite_impedance)
        assert comp_res.decay_rates.min() > 10.0 * max(np.abs(tube_res.decay_rates).max(),
                                                       1e-12)

    def test_quarter_wave_shift(self, small_composite):
        # a tube terminated by a small radiation load resonates near the
        # odd quarter-wave ladder, pulled down by the aperture end correction
        cfg, comp = small_composite
        L = cfg.area.length
        f_exp = cfg.c / (4.0 * L)
        res = resonances(comp.composite_impedance)
        assert 0.9 * f_exp < res.frequencies[0] < f_exp

    def test_mouth_monitor_row_shape(self, small_composite):
        cfg, comp = small_composite
        assert comp.mouth_row.shape == (4 * cfg.n + cfg.k,)
        assert np.count_nonzero(comp.mouth_row[4 * cfg.n:]) == 0

    def test_composite_is_the_impedance_star_product(self, small_composite):
        # the one-port impedance by hand: shift the load, external Cayley
        # both, star, then the inverse external Cayley transform, all at the
        # pipeline's channel resistance R; bit for bit
        cfg, comp = small_composite
        R = _CHANNEL_RESISTANCE
        prod = star_product(
            external_cayley(comp.tube.system, ResistanceMatrix(R * np.eye(1), R * np.eye(1))),
            external_cayley(regularize(comp.load, cfg.epsilon),
                            ResistanceMatrix(R * np.eye(1), np.zeros((0, 0)))))
        want = inverse_external_cayley(prod, ResistanceMatrix(R * np.eye(1), np.zeros((0, 0))))
        for name in ("A", "B", "C", "D", "split"):
            np.testing.assert_array_equal(getattr(comp.composite_impedance, name),
                                          getattr(want, name))

    def test_channel_resistance_changes_no_answer(self, small_composite):
        # R picks the coupling's port variables, not the model: at R = Z0
        # (4.2e6) the composite moves by roundoff (3.2e-16 measured) and the
        # sweep, which couples the components pointwise, not at all
        cfg, comp = small_composite
        by_hand = [star_of_impedance_pair(comp.tube.system, comp.load, R, epsilon_q=cfg.epsilon)
                   for R in (_CHANNEL_RESISTANCE, comp.piston.Z0)]
        for name in "ABCD":
            X, Y = (getattr(sys, name) for sys in by_hand)
            assert np.abs(X - Y).max() <= 1e-13 * np.abs(Y).max(), name
        s = 2j * np.pi * np.geomspace(30.0, 10000.0, 300)
        swept = [dataclasses.replace(comp, composite_impedance=sys).transfer_values(s)
                 for sys in by_hand]
        for got, want in zip(*swept):
            np.testing.assert_array_equal(got, want)

    def test_report_runs(self, small_composite):
        _, comp = small_composite
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.01,
                              sample_rate=44100.0)
        rep = waveguide_report(comp, spec, response_grid_hz=np.geomspace(50, 5000, 40))
        assert rep.response.ok.all()
        assert rep.pressure_folds.shape == rep.time.shape
        assert np.abs(rep.pressure_mouth).max() > 0.0

    def test_report_reads_the_recorded_states(self, small_composite):
        # the mouth row is read as the steps run; the recorded path's
        # states @ mouth_row agree to roundoff, the folds pressure bit for bit
        _, comp = small_composite
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.02, sample_rate=44100.0)
        rep = waveguide_report(comp, spec, response_grid_hz=[100.0])
        y, _, states = step_response(comp.discrete, rep.flow.reshape(-1, 1),
                                     record_energy=True)
        np.testing.assert_array_equal(rep.pressure_folds, y[:, 0])
        assert normwise(rep.pressure_mouth, states @ comp.mouth_row) <= 1e-15

    def test_report_rejects_another_sample_rate(self, small_composite):
        # one step of the sigma = 88 200 composite is 1/44 100 s; an 8 kHz
        # excitation would be stepped at that rate under an 8 kHz time axis
        _, comp = small_composite
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.01, sample_rate=8000.0)
        with pytest.raises(DimensionMismatch,
                           match=r"^excitation sample_rate=8000.0 Hz.*sigma=88200.0.*44100.0 Hz"):
            waveguide_report(comp, spec)

    def test_epsilon_sensitivity_two_segment(self):
        # the lowest resonance tracks the mouth series resistance; the third
        # barely moves (vowel-like geometry splits the sensitivities)
        f1s, f3s = [], []
        for factor in (0.1, 0.2, 0.3):
            cfg = WaveguideConfig(area=two_segment_tube(), n=24, k=12,
                                  sample_points=80, epsilon_factor=factor)
            res = resonances(waveguide_compose(cfg).composite_impedance)
            f1s.append(res.frequencies[0])
            f3s.append(res.frequencies[2])
        assert f1s[0] > f1s[1] > f1s[2]
        rel1 = (max(f1s) - min(f1s)) / f1s[0]
        rel3 = (max(f3s) - min(f3s)) / f3s[0]
        assert rel1 > 3.0 * rel3


# one change per config field; a field missing here fails the guard below.
# Smoke composites at k = 14 or 16, square >= 3.5e5 or c = 257 fail the
# internal Cayley gate, so the changes stay clear of those.
_CHANGES = {
    WaveguideConfig: dict(area=two_segment_tube(), n=25, c=514.5, rho=1.8375,
                          epsilon_factor=0.291, k=13, sigma=132300.0, seed=1,
                          sample_points=82, square=2e5),
    ButterworthConfig: dict(c1=3.3e-9, c2=5.1e-9, l1=21e-6, r0=75.0, epsilon=1.5e-9),
}


def _waveguide_outputs(comp) -> list:
    """Composite, scheme, discrete system and a 30-point sweep."""
    values, _ = comp.transfer_values(2j * np.pi * np.geomspace(50.0, 5000.0, 30))
    return [getattr(sys, name) for sys, names in ((comp.composite_impedance, "ABCD"),
                                                  (comp.scheme, ("mu", "lam")),
                                                  (comp.discrete, ("Ad", "Bd", "Cd", "Dd")))
            for name in names] + [values]


def _butterworth_outputs(cfg) -> list:
    """Every realisation and the S-parameters at 30 points."""
    model = butterworth_compose(cfg)
    sp = butterworth_sparams(cfg, np.geomspace(1e4, 1e7, 30))
    return [getattr(getattr(model, form), name) for form in ("regularized", "impedance", "minimal")
            for name in "ABCD"] + [sp.s11, sp.s21]


def _left_half_plane(sys) -> bool:
    """perfbench's stability check: max Re lambda <= 1e-9 max(1, max |lambda|)."""
    lam = np.linalg.eigvals(sys.A)
    return lam.real.max() <= 1e-9 * max(1.0, np.abs(lam).max())


SMOKE = dict(area=uniform_tube(), n=24, k=12, sample_points=80)


class TestComposePremise:
    """The shift makes a passive load properly passive; it cannot mend one
    that is not passive, and the Cayley gate must not mistake stiffness for
    nearness to the spectrum."""

    @pytest.mark.parametrize("k", [14, 16])
    def test_stiff_stable_composite_composes(self, k):
        # sigma I - A has cond_2 of 5.9e12 (k = 14) and 2.0e13 (k = 16) from
        # stiff entries, while sigma is 88 200 from every eigenvalue
        comp = waveguide_compose(WaveguideConfig(**dict(SMOKE, k=k)))
        assert comp.composite_impedance.n == 4 * 24 + k
        assert _left_half_plane(comp.composite_impedance)

    def test_full_size_stable_composite_composes(self):
        comp = waveguide_compose(WaveguideConfig(area=uniform_tube(), square=4.5e5))
        assert _left_half_plane(comp.composite_impedance)

    @pytest.mark.parametrize("changes, band", [
        (dict(SMOKE, square=3.5e5), "1.534e+06 to 2.528e+06"),
        (dict(SMOKE, c=257.25), "1.092e+06 to 2.051e+06"),
        (dict(area=uniform_tube(), square=6e5), "2.232e+06 to 4.219e+06"),
    ], ids=["smoke-square", "smoke-c", "full-square"])
    def test_load_that_is_not_passive_is_named(self, changes, band):
        # each composite would have an eigenvalue at Re +4e5 to +1e6 /s
        with pytest.raises(NotProperlyPassive, match=rf"^q_i \+ .* on {re.escape(band)} rad/s"):
            waveguide_compose(WaveguideConfig(**changes))


# the seeds perfbench's waveguide workloads draw from (workloads.SEED_POOL)
DEFAULT_LOADS = [(tube, seed) for tube in (uniform_tube, two_segment_tube)
                 for seed in (2024, 1, 7, 12345, 42)]


class TestDefaultLoadPremise:
    """The default loads, shifted as compose shifts them, are properly
    impedance passive, though the P = I dissipation test reads all ten
    NotPassive: a Loewner realisation is passive in other state coordinates."""

    @pytest.mark.parametrize("tube, seed", DEFAULT_LOADS,
                             ids=[f"{t.__name__}-{s}" for t, s in DEFAULT_LOADS])
    def test_shifted_load_is_properly_passive(self, tube, seed):
        comp = waveguide_compose(WaveguideConfig(area=tube(), seed=seed))
        shifted = regularize(comp.load, comp.epsilon)
        assert impedance_violation_bands(shifted) == []
        assert properly_impedance_passive(shifted) == (True, 2.0 * comp.epsilon)
        # so the same coupling with the shift done by the caller (both
        # shifts 0) passes the same premise and gives the same composite
        got = star_of_impedance_pair(comp.tube.system, shifted, _CHANNEL_RESISTANCE)
        for name in ("A", "B", "C", "D", "split"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(comp.composite_impedance, name))


class TestNoDeadSetting:
    """Every config field changes some output beyond roundoff, so a setting
    that changes no answer fails here (as a channel resistance would: it
    moves the waveguide composite by about 1e-15)."""

    @pytest.mark.parametrize("config, name", [
        pytest.param(config, f.name, id=f"{config.__name__}.{f.name}")
        for config in (WaveguideConfig, ButterworthConfig) for f in dataclasses.fields(config)])
    def test_field_changes_an_output(self, small_composite, config, name):
        cfg, comp = small_composite if config is WaveguideConfig else (CFG, None)
        changed = dataclasses.replace(cfg, **{name: _CHANGES[config][name]})
        if comp is None:
            base, moved = _butterworth_outputs(cfg), _butterworth_outputs(changed)
        else:
            base, moved = _waveguide_outputs(comp), _waveguide_outputs(waveguide_compose(changed))
        assert any(a.shape != b.shape or normwise(a, b) > 1e-9 for a, b in zip(moved, base))


class TestTerminatedSweep:
    """The report's sweep: the composite evaluated from its components."""

    def test_zero_frequency_gated_on_both_paths(self, small_composite):
        # at s = 0 the pencil is K, whose kernel holds the constants
        _, comp = small_composite
        for sys in (comp, comp.composite_impedance):
            resp = frequency_response(sys, [0.0, 100.0])
            assert resp.ok.tolist() == [False, True]
            assert np.isnan(resp.values[0]).all() and np.isfinite(resp.values[1]).all()

    def test_gated_point_leaves_the_others_unchanged(self, small_composite):
        _, comp = small_composite
        grid = np.geomspace(50.0, 5000.0, 40)
        alone = frequency_response(comp, grid)
        mixed = frequency_response(comp, np.insert(grid, 7, 0.0))
        assert not mixed.ok[7]
        # each point is its own banded solve; only the load's resolvent plan,
        # whose matrix products round differently when the chunk's column
        # count changes, may move a neighbour's last bits
        np.testing.assert_allclose(np.delete(mixed.values, 7, axis=0), alone.values,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(np.delete(mixed.ok, 7), alone.ok)

    def test_band_gate_reads_the_floor_at_call_time(self, small_composite, monkeypatch):
        from passivenet import core
        _, comp = small_composite
        monkeypatch.setattr(core, "RCOND_FLOOR", 1.0)
        resp = frequency_response(comp, [100.0])
        assert not resp.ok[0] and np.isnan(resp.values[0, 0, 0])

    def test_report_sweeps_once_through_frequency_response(self, small_composite,
                                                           monkeypatch):
        # the benchmark times the report's sweep as this one call
        _, comp = small_composite
        calls = []
        inner = simulate.frequency_response

        def spy(sys, frequencies_hz):
            resp = inner(sys, frequencies_hz)
            calls.append((np.array(frequencies_hz), resp))
            return resp

        monkeypatch.setattr(simulate, "frequency_response", spy)
        rep = waveguide_report(comp, ExcitationSpec("Impulse", f0=1.0, duration=1e-3,
                                                    sample_rate=44100.0))
        assert len(calls) == 1
        grid, resp = calls[0]
        np.testing.assert_array_equal(grid, np.geomspace(30.0, 10000.0, 300))
        assert resp.ok.all() and rep.response is resp


# the benchmark's waveguide seeds
SEED_POOL = (2024, 1, 7, 12345, 42)
SWEEP = np.geomspace(30.0, 10000.0, 300)    # the report's default grid

# Settled against terminated_impedance_mp at 40 digits, on every seed and
# both tubes, at the first and last in-band tube resonances and the grid
# point where the two paths differ most: the composite's resolvent plan is
# off by up to 3.0e-11 there and the banded solve by up to 6.1e-12.  The
# dense oracle itself is off by up to 2.9e-11 at a tube resonance.
ORACLE_RTOL = 1e-10
MP_RTOL = {"composite": 1e-10, "banded": 2e-11}
# At 1e-3 Hz the pencil's reciprocal condition is 3.5e-10 (uniform) or
# 8.7e-11 (two-segment): the composite is off by 4.2e-7 / 1.1e-8 and the
# banded solve by 2.5e-7 / 6.9e-8, so the two paths' 6.7e-7 gap there is
# the point's conditioning, carried by both sides.
MP_RTOL_NEAR_ZERO = 1e-6


def _tube_resonances(tube, lo: float, hi: float) -> np.ndarray:
    """The lossless tube's own resonances in (lo, hi) Hz, from eigh(K, M)."""
    lam = scipy.linalg.eigh(tube.stiffness, tube.mass, eigvals_only=True)
    f = np.sqrt(np.clip(lam, 0.0, None)) / (2.0 * np.pi)
    return f[(f > lo) & (f < hi)]


@pytest.fixture(scope="module",
                params=[(shape, seed) for shape in (uniform_tube, two_segment_tube)
                        for seed in SEED_POOL],
                ids=lambda p: f"{p[0].__name__}-{p[1]}")
def full_composite(request):
    shape, seed = request.param
    return waveguide_compose(WaveguideConfig(area=shape(), seed=seed))


class TestTerminatedOracle:
    """Both sweep paths against the tube's pencil closed by the load, the
    frequency-domain form of the paper's regularised coupling."""

    def test_both_paths_match_dense_oracle(self, full_composite):
        comp = full_composite
        resonant = _tube_resonances(comp.tube, SWEEP[0], SWEEP[-1])
        assert resonant.size == 10
        grid = np.concatenate([SWEEP, resonant])
        want = np.array([terminated_impedance(comp.tube, comp.load, comp.epsilon,
                                              2j * np.pi * f) for f in grid])
        for sys in (comp, comp.composite_impedance):
            resp = frequency_response(sys, grid)
            assert resp.ok.all()
            err = np.abs(resp.values[:, 0, 0] - want) / np.abs(want)
            assert err.max() <= ORACLE_RTOL

    def test_mpmath_settles_each_gap(self, full_composite):
        comp = full_composite
        resonant = _tube_resonances(comp.tube, SWEEP[0], SWEEP[-1])
        paths = {"composite": comp.composite_impedance, "banded": comp}
        a, b = (frequency_response(sys, SWEEP).values[:, 0, 0] for sys in paths.values())
        widest = SWEEP[np.argmax(np.abs(a - b) / np.abs(b))]
        points = np.array([resonant[0], resonant[-1], widest, 1e-3])
        want = np.array([terminated_impedance_mp(comp.tube, comp.load, comp.epsilon,
                                                 2j * np.pi * f) for f in points])
        for name, sys in paths.items():
            err = np.abs(frequency_response(sys, points).values[:, 0, 0] - want) / np.abs(want)
            assert err[:3].max() <= MP_RTOL[name], name
            assert err[3] <= MP_RTOL_NEAR_ZERO, name


# Gaps of the last 735 samples of a 1 s, 120 Hz LF run to the periodic
# steady state, normwise, mean left out, measured on every seed of the pool
# (the same to three digits): uniform 1.15e-6 (p_folds) and 3.54e-5
# (p_mouth), two-segment 5.91e-8 and 3.99e-6.  The gap sits at harmonics
# near 21 kHz, where the oracle agrees with dense solves of the discrete and
# the continuous transfer to 6e-11: it is the run's own transient.  A tube
# mode near 200 kHz with Re = -1.0 /s (uniform) or -0.53 /s (two-segment)
# lands there under the bilinear map with a time constant of 205 s or 383 s,
# so it still rings after 1 s (0.6-0.7 of each gap is left after 3 s).
STEADY_STATE_RTOL = {"uniform_tube": {"p_folds": 2e-6, "p_mouth": 6e-5},
                     "two_segment_tube": {"p_folds": 1e-7, "p_mouth": 6e-6}}


@pytest.mark.parametrize("shape", [uniform_tube, two_segment_tube], ids=lambda f: f.__name__)
def test_report_reaches_the_periodic_steady_state(shape):
    # the LF train at 120 Hz repeats every 735 samples at 44.1 kHz; the
    # composite's eigenvalue at Re ~ -1e-9 keeps its mean from settling
    comp = waveguide_compose(WaveguideConfig(area=shape()))
    spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=1.0, sample_rate=44100.0)
    rep = waveguide_report(comp, spec, response_grid_hz=[100.0])
    period = slice(-735, None)
    p_folds, p_mouth = periodic_steady_state(comp.composite_impedance, comp.discrete.sigma,
                                             rep.flow[period, None], rows=comp.mouth_row)
    for name, got, want in (("p_folds", rep.pressure_folds, p_folds),
                            ("p_mouth", rep.pressure_mouth, p_mouth)):
        got = got[period] - got[period].mean()
        assert normwise(got, want[:, 0]) <= STEADY_STATE_RTOL[shape.__name__][name], name


# Gaps of the last period of a Butterworth form's discrete step, driven at
# both ports by a 101-sample period for four periods from rest, to the
# periodic steady state, normwise, mean left out; measured over periods of
# 101, 255 and 735 samples and five input seeds, the same after 4 and after
# 10 periods: minimal 1.2e-15 to 1.6e-15, regularized_rotated 1.3e-6 to
# 1.9e-6, regularized 1.9e-6 to 2.6e-6.  The eigenvector condition rules out
# no form (cond V is at most 3.4 on all four).  What bounds the stiff forms
# is the fast mode at -1/(C2 eps) = -2.9e17: eig(A) has a backward error of
# eps |A| ~ 60 rad/s, which moves the slow modes near 1e6 rad/s by about
# 1e-5 of themselves, so the oracle, not the step, is off.  At the harmonics
# the rotated form's discrete transfer matches equilibrated solves of the
# continuous one to 7e-16, where the oracle reads 1.3e-6; the printed basis
# is off by 2.4e-6 in its discrete form too (its Cayley step rounds the
# +-1/(2 C2 eps) corner).  ``impedance`` is left out: its slow spectrum is
# on the imaginary axis (the lossless ladder's impedance, a pole at s = 0),
# so a run from rest never settles, and eig places those poles up to 14 /s
# off the axis.
BUTTERWORTH_STEADY_STATE_RTOL = {"minimal": 1e-14, "regularized_rotated": 4e-6,
                                 "regularized": 5e-6}


@pytest.mark.parametrize("form", sorted(BUTTERWORTH_STEADY_STATE_RTOL))
def test_butterworth_forms_reach_the_periodic_steady_state(form, rng):
    sys = getattr(butterworth_compose(CFG), form)
    sigma = 2.0 * np.pi * 1e6
    period = rng.standard_normal((101, 2))
    y = step_response(internal_cayley(sys, sigma), np.tile(period, (4, 1)))[-101:]
    want = periodic_steady_state(sys, sigma, period)
    assert normwise(y - y.mean(axis=0), want) <= BUTTERWORTH_STEADY_STATE_RTOL[form]


class TestStepping:
    """Block stepping of both applications' discrete systems against the
    per-sample loop in ``oracles``."""

    @staticmethod
    def _lf_input(phi, duration=0.1):
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=duration,
                              sample_rate=phi.sigma / 2.0)
        return simulate.excitation_signal(spec).reshape(-1, 1)

    def test_composite_matches_loop(self, full_composite):
        # largest gap measured: 4.0e-12 (states), 9.3e-13 (mouth pressure)
        phi = full_composite.discrete
        gaps = stepping_gaps(phi, self._lf_input(phi), probe=full_composite.mouth_row)
        assert max(gaps.values()) <= STEP_PARITY, gaps

    def test_composite_prefix_drift(self, full_composite):
        # 4410 steps run in blocks of 67, their first 4000 in blocks of 64,
        # so the shared prefix agrees to roundoff only: up to 1.6e-11 measured
        phi = full_composite.discrete
        u = self._lf_input(phi)
        Y, _, states = step_response(phi, u, record_energy=True)
        Yp, _, prefix = step_response(phi, u[:4000], record_energy=True)
        assert normwise(Yp, Y[:4000]) <= STEP_PARITY
        assert normwise(prefix, states[:4000]) <= STEP_PARITY

    @pytest.mark.parametrize("form", ["regularized", "regularized_rotated", "impedance",
                                      "minimal"])
    def test_butterworth_discrete_forms_match_loop(self, form, rng):
        # `regularized` carries the -2.9e17 mode; largest gap measured 1.8e-14
        phi = internal_cayley(getattr(butterworth_compose(CFG), form), 2.0 * np.pi * 1e6)
        for mode in ("impedance", "scattering"):
            gaps = stepping_gaps(phi, rng.standard_normal((2000, phi.m)),
                                 x0=rng.standard_normal(phi.n), record_energy=mode)
            assert max(gaps.values()) <= STEP_PARITY, (mode, gaps)
