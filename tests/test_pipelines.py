"""Both applications end to end: the coupled pi-ladder and the terminated
waveguide, checked against closed forms and ABCD-chain oracles."""

import numpy as np
import pytest

from oracles import (
    abcd_to_impedance,
    abcd_to_s11,
    abcd_to_s21,
    ladder5_abcd,
    pi_abcd,
)

from passivenet.core import io_equivalent, minimality, transfer_function
from passivenet.errors import NearSpectrum, NotWellPosed
from passivenet.passivity import (
    CONSERVATIVE,
    impedance_certificate,
    scattering_conservative_check,
)
from passivenet.pipelines import (
    ButterworthConfig,
    WaveguideConfig,
    butterworth_compose,
    butterworth_sparams,
    ladder_impedance_closed_form,
    minimal_butterworth,
    pi_circuit_system,
    pi_scattering_system,
    two_segment_tube,
    uniform_tube,
    waveguide_compose,
    waveguide_report,
    _rotated_product,
)
from passivenet.simulate import ExcitationSpec, resonances

CFG = ButterworthConfig()  # 2.2 nF / 3.4 nF / 14 uH / 50 ohm / 1 nohm


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

    def test_star_product_matches_analytic_at_moderate_epsilon(self):
        cfg = ButterworthConfig(epsilon=1e-3)
        model = butterworth_compose(cfg)
        # same transfer function from the generic machinery and the analytic
        # rotated assembly (moderate eps keeps the direct product accurate)
        assert io_equivalent(model.regularized, model.regularized_rotated, tol=1e-8)

    def test_one_over_eps_block_structure(self):
        model = butterworth_compose(CFG)
        A = model.regularized.A
        v = 1.0 / (2.0 * CFG.c2 * CFG.epsilon)
        # coupled-corner entries carry -v, +v up to the Delta-solve roundoff
        # floor (~eps_machine / Delta1 ~ 1e-6 at eps = 1e-9)
        assert A[2, 2] == pytest.approx(-v, rel=1e-4)
        assert A[2, 3] == pytest.approx(v, rel=1e-4)
        assert A[3, 2] == pytest.approx(v, rel=1e-4)
        assert A[3, 3] == pytest.approx(-v, rel=1e-4)
        D = model.regularized.D
        assert D[0, 0] == pytest.approx((CFG.epsilon - CFG.r0) / (CFG.epsilon + CFG.r0))
        assert D[0, 1] == 0.0 and D[1, 0] == 0.0  # diagonal inheritance, exact

    def test_rotated_fast_mode_isolated(self):
        model = butterworth_compose(CFG)
        A = model.regularized_rotated.A
        assert A[5, 5] == pytest.approx(-1.0 / (CFG.c2 * CFG.epsilon))
        assert np.abs(A[:5, :5]).max() < 1e8  # slow block has no 1/eps content

    def test_extirpation_equals_minimal(self):
        # dropping the fast row/column at the entry limits reproduces the
        # printed-form 5-state system exactly
        lim = _rotated_product(CFG, CFG.epsilon, limit=True)
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
        from passivenet import core
        monkeypatch.setattr(core, "RCOND_FLOOR", 1e300)
        with pytest.raises(NearSpectrum):
            butterworth_sparams(CFG, np.array([2e5, 1e6]))


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

    def test_report_runs(self, small_composite):
        _, comp = small_composite
        spec = ExcitationSpec("LFPulseTrain", f0=120.0, duration=0.01,
                              sample_rate=44100.0)
        rep = waveguide_report(comp, spec, response_grid_hz=np.geomspace(50, 5000, 40))
        assert rep.response.ok.all()
        assert rep.pressure_folds.shape == rep.time.shape
        assert np.abs(rep.pressure_mouth).max() > 0.0

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
