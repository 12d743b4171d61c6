"""Certificates: impedance/scattering, continuous/discrete, proper passivity,
and the verdict-preservation properties of the Cayley and reciprocal maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_conservative,
    random_impedance_passive,
    random_resistance,
)
from oracles import pi_scattering_system

from passivenet.core import DiscreteSystem, StateSpaceSystem, parallel_sum, similarity
from passivenet.errors import NotSPD
from passivenet.passivity import (
    CONSERVATIVE,
    NOT_PASSIVE,
    STRICTLY_PASSIVE,
    discrete_impedance_certificate,
    discrete_scattering_certificate,
    impedance_certificate,
    impedance_violation_bands,
    properly_impedance_passive,
    scattering_conservative_check,
    scattering_passive_via_cayley,
)
from passivenet.pipelines import pi_circuit_system
from passivenet.transforms import (
    ResistanceMatrix,
    external_cayley,
    full_inversion,
    internal_cayley,
    internal_reciprocal,
    inverse_external_cayley,
)
from passivenet.feedback import regularize


class TestImpedanceCertificate:
    def test_pi_circuit_conservative(self):
        cert = impedance_certificate(pi_circuit_system(2.2e-9, 3.4e-9, 14e-6))
        assert cert.verdict == CONSERVATIVE

    def test_strictly_passive(self):
        sys = StateSpaceSystem(-np.eye(3), np.zeros((3, 2)), np.zeros((2, 3)),
                               np.eye(2), split=(1, 1))
        cert = impedance_certificate(sys)
        assert cert.verdict == STRICTLY_PASSIVE and cert.margin < 0

    def test_constructed_passive(self, rng):
        # A^T + A = -W W^T, C = B^T, D = I/2 forces the test matrix <= 0
        W = rng.standard_normal((4, 2))
        S = rng.standard_normal((4, 4))
        A = (S - S.T) - 0.5 * W @ W.T
        B = rng.standard_normal((4, 2))
        sys = StateSpaceSystem(A, B, B.T.copy(), 0.5 * np.eye(2), split=(1, 1))
        cert = impedance_certificate(sys)
        assert cert.passive
        M = np.block([[A.T + A, B - B.T.T], [B.T - B.T, -np.eye(2)]])
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).max() <= 1e-12

    def test_not_passive(self):
        sys = StateSpaceSystem(np.array([[1.0]]), np.ones((1, 1)), np.ones((1, 1)),
                               np.zeros((1, 1)), split=(1, 0))
        assert impedance_certificate(sys).verdict == NOT_PASSIVE

    def test_norm_is_the_spectral_norm(self, rng):
        # the norm is read off the eigenvalues; it must be the 2-norm
        for _ in range(5):
            A = rng.standard_normal((6, 6))
            B = rng.standard_normal((6, 2))
            sys = StateSpaceSystem(A, B, rng.standard_normal((2, 6)),
                                   rng.standard_normal((2, 2)), split=(1, 1))
            M = np.block([[A.T + A, B - sys.C.T], [B.T - sys.C, -sys.D.T - sys.D]])
            cert = impedance_certificate(sys)
            assert cert.test_matrix_norm == pytest.approx(
                np.linalg.norm(0.5 * (M + M.T), 2), rel=1e-13)


class TestScatteringConservative:
    def test_pi_scattering_form(self):
        sys = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0)
        assert scattering_conservative_check(sys).verdict == CONSERVATIVE

    def test_rotation_feedthrough(self):
        th = 0.7
        D = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               D, split=(1, 1))
        assert scattering_conservative_check(sys).verdict == CONSERVATIVE

    def test_half_identity_residual(self):
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               0.5 * np.eye(2), split=(1, 1))
        cert = scattering_conservative_check(sys)
        assert cert.verdict == STRICTLY_PASSIVE  # D = I/2 is a contraction
        assert cert.margin == pytest.approx(0.75)  # |D^T D - I| = 3/4

    def test_strictly_passive_lag_is_not_a_violation(self):
        # G(s) = 1/2 + (1/4)/(s + 1) has |G(iw)| <= 3/4: strictly scattering
        # passive, though not conservative
        sys = StateSpaceSystem(-np.eye(1), np.full((1, 1), 0.5), np.full((1, 1), 0.5),
                               np.full((1, 1), 0.5), split=(1, 0))
        cert = scattering_conservative_check(sys)
        assert cert.verdict == STRICTLY_PASSIVE
        assert scattering_passive_via_cayley(sys, 1.0).verdict == STRICTLY_PASSIVE
        # the 2-norm of [[-7/4, 3/4], [3/4, -3/4]]
        assert cert.margin == pytest.approx((5 + np.sqrt(13)) / 4)


class TestDiscreteCertificates:
    def test_zero_quadruple_strictly_passive(self):
        phi = DiscreteSystem(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)),
                             np.zeros((2, 2)), sigma=1.0, split=(1, 1))
        assert discrete_scattering_certificate(phi).verdict == STRICTLY_PASSIVE

    def test_cayley_of_pi_scattering_conservative(self):
        sys = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0)
        phi = internal_cayley(sys, 88200.0)
        assert discrete_scattering_certificate(phi).verdict == CONSERVATIVE

    def test_random_contraction_passive(self, rng):
        # scale a random block matrix to spectral norm < 1: passive by construction
        S = rng.standard_normal((5, 5))
        S *= 0.9 / np.linalg.svd(S, compute_uv=False)[0]
        phi = DiscreteSystem(S[:3, :3], S[:3, 3:], S[3:, :3], S[3:, 3:],
                             sigma=1.0, split=(1, 1))
        cert = discrete_scattering_certificate(phi)
        assert cert.verdict == STRICTLY_PASSIVE
        assert np.linalg.svd(S, compute_uv=False)[0] < 1.0  # oracle

    def test_identity_shift_conservative(self):
        phi = DiscreteSystem(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                             np.zeros((1, 1)), sigma=1.0, split=(1, 0))
        assert discrete_impedance_certificate(phi).verdict == CONSERVATIVE

    def test_cayley_of_conservative_is_conservative_all_sigma(self, rng):
        sys = random_conservative(rng, 4, 1, 1)
        for sigma in (1.0, 10.0, 1000.0):
            phi = internal_cayley(sys, sigma)
            assert discrete_impedance_certificate(phi).verdict == CONSERVATIVE

    def test_random_impedance_passive_discrete(self, rng):
        sys = random_impedance_passive(rng, 4, 1, 1)
        phi = internal_cayley(sys, 7.0)
        cert = discrete_impedance_certificate(phi)
        assert cert.passive
        M = np.block([[np.eye(4) - phi.Ad.T @ phi.Ad, phi.Cd.T - phi.Ad.T @ phi.Bd],
                      [phi.Cd - phi.Bd.T @ phi.Ad,
                       phi.Dd + phi.Dd.T - phi.Bd.T @ phi.Bd]])
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() >= -1e-10 * (1 + np.linalg.norm(M))


class TestViaCayley:
    def test_pi_scattering_conservative(self):
        sys = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0)
        assert scattering_passive_via_cayley(sys, 88200.0).verdict == CONSERVATIVE

    def test_dissipative_diagonal(self):
        sys = StateSpaceSystem(-np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                               np.zeros((1, 1)), split=(1, 0))
        assert scattering_passive_via_cayley(sys, 3.0).verdict == STRICTLY_PASSIVE

    def test_verdict_independent_of_sigma(self, rng):
        sys = random_impedance_passive(rng, 4, 1, 1)
        scat = external_cayley(sys, random_resistance(rng, 1, 1))
        verdicts = {scattering_passive_via_cayley(scat, s).verdict
                    for s in (1.0, 10.0, 1000.0)}
        assert len(verdicts) == 1


def _away_from_boundary(seed, n, m, passive, supply):
    """A strictly passive system for ``supply``, or one whose feedthrough
    alone breaks the inequality by at least 1: D + D^T <= -I (impedance) or
    D^T D - I >= 3 I (scattering, where |D| < 1 before the shift)."""
    rng = np.random.default_rng(seed)
    sys = random_impedance_passive(rng, n, 1, m - 1)
    if supply == "scattering":
        sys = external_cayley(sys, random_resistance(rng, 1, m - 1))
    if passive:
        return sys
    return sys.replace(D=-sys.D if supply == "impedance" else sys.D + 3 * np.eye(m))


class TestContinuousDiscreteAgreement:
    """The Cayley transform is a congruence of the dissipation matrix, so a
    verdict away from the boundary is the same on both time axes."""

    @pytest.mark.parametrize("supply, continuous, discrete", [
        ("impedance", impedance_certificate, discrete_impedance_certificate),
        ("scattering", scattering_conservative_check, discrete_scattering_certificate)])
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 2),
           sigma=st.floats(0.5, 40.0), passive=st.booleans())
    def test_verdicts_agree(self, supply, continuous, discrete, seed, n, m, sigma, passive):
        sys = _away_from_boundary(seed, n, m, passive, supply)
        verdict = continuous(sys).verdict
        assert verdict == (STRICTLY_PASSIVE if passive else NOT_PASSIVE)
        assert discrete(internal_cayley(sys, sigma)).verdict == verdict


class TestProperlyPassive:
    def test_pi_circuit_not_proper(self):
        ok, margin = properly_impedance_passive(pi_circuit_system(2.2e-9, 3.4e-9, 14e-6))
        assert not ok and margin == 0.0

    def test_identity_shift_proper(self, rng):
        sys = random_conservative(rng, 3, 1, 1)
        ok, margin = properly_impedance_passive(regularize(sys, 1.0))
        assert ok and margin == pytest.approx(2.0)

    def test_regularised_pi_proper(self):
        sys = regularize(pi_circuit_system(2.2e-9, 3.4e-9, 14e-6), 1e-3)
        ok, margin = properly_impedance_passive(sys)
        assert ok and margin == pytest.approx(2e-3)


def _lag(d, r, a) -> StateSpaceSystem:
    """G(s) = d - r a / (s + a): Re G(iw) = d - r a^2 / (w^2 + a^2)."""
    return StateSpaceSystem(np.array([[-a]]), np.ones((1, 1)), np.array([[-r * a]]),
                            np.array([[d]]), split=(1, 0))


def _resonance(d, r, w0, zeta) -> StateSpaceSystem:
    """G(s) = d - r 2 zeta w0 s / (s^2 + 2 zeta w0 s + w0^2), whose real part
    on the axis dips to d - r at w0."""
    A = np.array([[0.0, w0], [-w0, -2.0 * zeta * w0]])
    C = -r * np.array([[0.0, 2.0 * zeta * w0]])
    return StateSpaceSystem(A, np.array([[0.0], [1.0]]), C, np.array([[d]]), split=(1, 0))


class TestViolationBands:
    """The Hamiltonian premise check against closed forms and passive
    operands."""

    @pytest.mark.parametrize("d, r, a", [(1.0, 3.0, 2.0), (0.25, 1.0, 5e5), (2.0, 2.5, 1e-3)])
    def test_lag_band_edge(self, d, r, a):
        # Re G(iw) < 0 exactly for w < a sqrt(r/d - 1)
        (lo, hi), = impedance_violation_bands(_lag(d, r, a))
        assert lo == 0.0 and hi == pytest.approx(a * np.sqrt(r / d - 1.0), rel=1e-9)

    @pytest.mark.parametrize("d, r, a", [(1.0, 0.5, 2.0), (3.0, 2.999, 7e4)])
    def test_lag_without_band(self, d, r, a):
        assert impedance_violation_bands(_lag(d, r, a)) == []

    @pytest.mark.parametrize("w0, zeta", [(1.0, 0.1), (1.9e6, 0.02)])
    def test_resonant_band_away_from_zero(self, w0, zeta):
        # |w0^2 - w^2| < k w, k = 2 zeta w0 sqrt(r/d - 1), bounds the band
        d, r = 1.0, 4.0
        k = 2.0 * zeta * w0 * np.sqrt(r / d - 1.0)
        root = np.sqrt(k * k + 4.0 * w0 * w0)
        (lo, hi), = impedance_violation_bands(_resonance(d, r, w0, zeta))
        assert lo == pytest.approx(0.5 * (root - k), rel=1e-9)
        assert hi == pytest.approx(0.5 * (root + k), rel=1e-9)

    def test_two_bands_against_a_dense_grid(self):
        # two dips a hundredfold apart: Re G(iw) < 0 on the 20 001-point
        # grid exactly inside the two reported bands
        sys = parallel_sum(_resonance(0.5, 2.0, 1.0, 0.1), _resonance(0.5, 2.0, 100.0, 0.1))
        bands = impedance_violation_bands(sys)
        assert len(bands) == 2
        w = np.geomspace(1e-2, 1e4, 20001)
        G = [sys.D + sys.C @ np.linalg.solve(1j * x * np.eye(sys.n) - sys.A, sys.B) for x in w]
        inside = np.any([(w > lo) & (w < hi) for lo, hi in bands], axis=0)
        np.testing.assert_array_equal(np.real(G)[:, 0, 0] < 0, inside)

    def test_needs_positive_definite_feedthrough(self):
        with pytest.raises(NotSPD, match="D \\+ D\\^T"):
            impedance_violation_bands(_lag(0.0, 1.0, 1.0))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8), m1=st.integers(1, 2),
           m2=st.integers(0, 2), strict=st.booleans(),
           kind=st.sampled_from(["proper", "shifted", "lossless"]),
           log_eps=st.floats(-4.0, 1.0))
    def test_passive_operand_has_no_band(self, seed, n, m1, m2, strict, kind, log_eps):
        # proper (D + D^T >= I), or shifted from a skew D by eps as the star
        # product's regularisation does; a lossless operand has its poles on
        # the axis, where G + G^H = D + D^T cancels to roundoff
        rng = np.random.default_rng(seed)
        if kind == "lossless":
            sys = random_conservative(rng, n, m1, m2, skew_d=strict)
        else:
            sys = random_impedance_passive(rng, n, m1, m2, strict=strict,
                                           proper=kind == "proper")
        if kind != "proper":
            sys = regularize(sys, 10.0 ** log_eps)
        assert impedance_violation_bands(sys) == []


class TestProperPremise:
    """Proper impedance passivity is decided without a storage: D + D^T > 0,
    no violating band and a stable A, none of which a change of state
    coordinates moves."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 2),
           kind=st.sampled_from(["proper", "skew", "lossless"]),
           log_eps=st.floats(-4.0, 1.0), decades=st.sampled_from([2.0, 3.0, 4.0]))
    def test_verdict_independent_of_coordinates(self, seed, n, m, kind, log_eps, decades):
        # T = diag(10^U(-d/2, d/2)) Q spreads the state over d decades, where
        # the P = I dissipation test reads almost every operand not proper
        rng = np.random.default_rng(seed)
        if kind == "lossless":
            sys = random_conservative(rng, n, m, 0)
        else:
            sys = random_impedance_passive(rng, n, m, 0, proper=kind == "proper")
        if kind != "proper":
            sys = regularize(sys, 10.0 ** log_eps)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        T = 10.0 ** rng.uniform(-decades / 2, decades / 2, n)[:, None] * Q
        flag, margin = properly_impedance_passive(sys)
        assert flag
        assert properly_impedance_passive(similarity(sys, T)) == (flag, margin)

    @pytest.mark.parametrize("a", [1.0, 1e-10])
    def test_unstable_operand_without_band(self, a):
        # G(s) = 1 + a/(s - a): the Popov function 2 - 2a^2/(w^2 + a^2) is
        # never negative, so only the pole at s = a shows that G is not
        # passive, in whatever time unit a is given
        one, pole = np.ones((1, 1)), np.full((1, 1), a)
        sys = StateSpaceSystem(pole, pole, one, one, split=(1, 0))
        assert impedance_violation_bands(sys) == []
        assert properly_impedance_passive(sys) == (False, 2.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize("A, B", [
        (np.zeros((1, 1)), np.ones((1, 1))),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]])),
        (np.zeros((2, 2)), np.ones((2, 1))),
    ], ids=["1/s", "s/(s^2+1)", "two-poles-at-0"])
    def test_residue_of_a_pole_on_the_axis(self, A, B, sign):
        # G(s) = 1 + sign C (sI - A)^-1 B with C = B^T: G(iw) + G(iw)^H = 2
        # off the poles either way, so no band; only the sign of the residue
        # tells passive from not
        sys = StateSpaceSystem(A, B, sign * B.T, np.ones((1, 1)), split=(1, 0))
        assert impedance_violation_bands(sys) == []
        assert properly_impedance_passive(sys) == (sign > 0, 2.0)


class TestTransformPreservation:
    def test_proper_passive_chain(self, rng):
        # properly passive => external Cayley feedthrough strictly inside the disk
        for _ in range(100):
            n = int(rng.integers(1, 6))
            sys = random_impedance_passive(rng, n, 1, 1, proper=True)
            R = random_resistance(rng, 1, 1)
            scat = external_cayley(sys, R)
            assert np.linalg.norm(scat.D, 2) < 1.0
            assert np.abs(np.linalg.eigvals(scat.D)).max() < 1.0

    def test_ext_cayley_verdict_agreement(self, rng):
        for strict in (True, False):
            sys = random_impedance_passive(rng, 4, 1, 1, strict=strict)
            base = impedance_certificate(sys).passive
            for _ in range(3):
                scat = external_cayley(sys, random_resistance(rng, 1, 1))
                # scattering passivity decided through the discrete test
                assert discrete_scattering_certificate(
                    internal_cayley(scat, 5.0)).passive == base

    def test_ext_cayley_conservative_to_conservative(self, rng):
        sys = random_conservative(rng, 4, 1, 1)
        scat = external_cayley(sys, random_resistance(rng, 1, 1))
        assert scattering_conservative_check(scat).verdict == CONSERVATIVE

    def test_reciprocal_verdicts_match(self, rng):
        sys = random_impedance_passive(rng, 4, 1, 1, proper=True)
        verdict = impedance_certificate(sys).verdict
        assert impedance_certificate(internal_reciprocal(sys)).verdict == verdict
        assert impedance_certificate(full_inversion(sys)).verdict == verdict
        cons = random_conservative(rng, 3, 1, 1)  # skew A is invertible iff n even
        cons = random_conservative(rng, 4, 1, 1)
        assert impedance_certificate(internal_reciprocal(cons)).verdict == CONSERVATIVE

    def test_rotation_counterexample_recovers_zero_block(self):
        # scattering-conservative pure rotation: the impedance feedthrough is
        # skew with structurally zero diagonal, so its (2,2) entry cannot be
        # inverted (the hybrid transform never exists here).  tau = sqrt(1-rho^2)
        # is irrational, so the cancellation leaves an eps-level residue.
        for rho in (-0.5, 0.0, 0.4, 0.9):
            tau = np.sqrt(1 - rho**2)
            D = np.array([[rho, -tau], [tau, rho]])
            sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)),
                                   np.zeros((2, 0)), D, split=(1, 1))
            imp = inverse_external_cayley(sys, ResistanceMatrix(np.eye(1), np.eye(1)))
            scale = max(np.abs(imp.D).max(), 1.0)
            assert abs(imp.D[1, 1]) <= 1e-14 * scale
            assert abs(imp.D[0, 0]) <= 1e-14 * scale
            assert imp.D[1, 0] == pytest.approx(tau / (1 - rho))
