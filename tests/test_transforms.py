"""Involutions, round trips and formula plug-ins for every representation
change: flow inversions, Cayley pairs, reciprocals, hybrid and chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_conservative,
    random_impedance_passive,
    random_resistance,
    random_system,
)
from oracles import pi_scattering_system, transfer_dense

from passivenet.core import StateSpaceSystem, transfer_function
from passivenet.errors import SingularBlock, SingularGenerator, SplitMismatch
from passivenet.pipelines import pi_circuit_system
from passivenet.transforms import (
    ResistanceMatrix,
    bottom_inversion,
    chain_transform,
    external_cayley,
    full_inversion,
    hybrid_transform,
    input_flip,
    internal_cayley,
    internal_reciprocal,
    inverse_chain,
    inverse_external_cayley,
    inverse_hybrid,
    inverse_internal_cayley,
    output_flip,
    sign_reversal,
    top_inversion,
)
from passivenet.feedback import regularize


def assert_systems_close(a: StateSpaceSystem, b: StateSpaceSystem, rtol=1e-10):
    for x, y, name in ((a.A, b.A, "A"), (a.B, b.B, "B"), (a.C, b.C, "C"), (a.D, b.D, "D")):
        scale = max(np.abs(y).max(), 1.0)
        assert np.abs(x - y).max() <= rtol * scale, f"{name} mismatch"


class TestFlowInversions:
    def test_fi_feedthrough_only(self):
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               np.diag([2.0, 4.0]), split=(1, 1))
        assert np.allclose(full_inversion(sys).D, np.diag([0.5, 0.25]), rtol=0, atol=0)

    def test_fi_involution(self, rng):
        sys = random_system(rng, 4, 1, 1)
        assert_systems_close(full_inversion(full_inversion(sys)), sys)

    def test_fi_pointwise_inverse(self, rng):
        sys = random_system(rng, 4, 2, 2)
        inv = full_inversion(sys)
        for s in (1.1 + 0.7j, -0.4 + 2.2j, 3.0j, 0.9 - 1.3j, 2.5 + 0.1j):
            P = transfer_function(inv, s) @ transfer_dense(sys, s)
            assert np.abs(P - np.eye(4)).max() < 1e-9

    def test_of_sr_involutions(self, rng):
        sys = random_system(rng, 3, 2, 2)
        assert_systems_close(output_flip(output_flip(sys)), sys, rtol=0)
        assert_systems_close(sign_reversal(sign_reversal(sys)), sys, rtol=0)

    def test_if_equals_composition(self, rng):
        sys = random_system(rng, 4, 2, 2)
        direct = input_flip(sys)
        composed = full_inversion(output_flip(full_inversion(sys)))
        assert_systems_close(composed, direct, rtol=1e-10)

    def test_ti_involution(self, rng):
        sys = random_system(rng, 4, 2, 2)
        assert_systems_close(top_inversion(top_inversion(sys)), sys)

    def test_bi_involution_and_composition(self, rng):
        sys = random_system(rng, 4, 2, 2)
        assert_systems_close(bottom_inversion(bottom_inversion(sys)), sys)
        assert_systems_close(bottom_inversion(sys), top_inversion(full_inversion(sys)),
                             rtol=1e-9)
        assert_systems_close(bottom_inversion(sys), full_inversion(top_inversion(sys)),
                             rtol=1e-9)

    def test_ti_swaps_top_signals(self, rng):
        # partial inversion semantics: y1 of TI(S) equals u1 of S when driven
        # by (y1 of S, u2); check on the feedthrough level
        D = np.array([[2.0, 0.5], [0.3, 1.5]])
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               D, split=(1, 1))
        u = np.array([0.7, -1.2])
        y = D @ u
        ti = top_inversion(sys)
        out = ti.D @ np.array([y[0], u[1]])
        assert out[0] == pytest.approx(u[0])
        assert out[1] == pytest.approx(y[1])

    def test_split_mismatch_rejected(self, rng):
        sys = random_system(rng, 2, 2, 1)
        for fn in (output_flip, input_flip, sign_reversal):
            with pytest.raises(SplitMismatch):
                fn(sys)


def _port_system(rng, n, m1, m2):
    """Every block a transform may invert is well conditioned: D = I + E
    with |E| <= 0.3, plus an identity in D21 for even splits (chain)."""
    m = m1 + m2
    E = rng.standard_normal((m, m))
    D = np.eye(m) + 0.3 * E / np.linalg.norm(E, 2)
    if m1 == m2:
        D[m1:, :m1] += np.eye(m1)
    return StateSpaceSystem(rng.standard_normal((n, n)) - 2.0 * np.eye(n),
                            rng.standard_normal((n, m)), rng.standard_normal((m, n)),
                            D, split=(m1, m2))


def _cat(*parts):
    return np.concatenate(parts)


# transform, whether it needs m1 == m2, and the documented signal mapping:
# driving the transformed system with w gives z; these are the original
# system's (u, y), with w = (w1, w2), z = (z1, z2) cut at the split
PORT_MAPS = {
    "FI": (full_inversion, False, lambda w1, w2, z1, z2: (_cat(z1, z2), _cat(w1, w2))),
    "TI": (top_inversion, False, lambda w1, w2, z1, z2: (_cat(z1, w2), _cat(w1, z2))),
    "BI": (bottom_inversion, False, lambda w1, w2, z1, z2: (_cat(w1, z2), _cat(z1, w2))),
    "hybrid": (hybrid_transform, False,
               lambda w1, w2, z1, z2: (_cat(w1, -z2), _cat(z1, w2))),
    "inverse_hybrid": (inverse_hybrid, False,
                       lambda w1, w2, z1, z2: (_cat(w1, z2), _cat(z1, -w2))),
    "chain": (chain_transform, True, lambda w1, w2, z1, z2: (_cat(z2, w1), _cat(z1, w2))),
    "inverse_chain": (inverse_chain, True,
                      lambda w1, w2, z1, z2: (_cat(w2, z2), _cat(z1, w1))),
}


class TestPortEquations:
    """Drive the transformed system at a random s, map its signals back
    through the documented exchange, and check y = G(s) u of the original."""

    @pytest.mark.parametrize("name", sorted(PORT_MAPS))
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           m1=st.integers(1, 3), m2=st.integers(1, 3))
    def test_original_port_equations_hold(self, name, seed, n, m1, m2):
        transform, even, mapping = PORT_MAPS[name]
        if even:
            m2 = m1
        rng = np.random.default_rng(seed)
        sys = _port_system(rng, n, m1, m2)
        s = rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0.2, 2.9))
        w = rng.standard_normal(m1 + m2) + 1j * rng.standard_normal(m1 + m2)
        z = transfer_dense(transform(sys), s) @ w
        u, y = mapping(w[:m1], w[m1:], z[:m1], z[m1:])
        G = transfer_dense(sys, s)
        scale = np.linalg.norm(G, 2) * np.linalg.norm(u) + np.linalg.norm(y)
        assert np.linalg.norm(G @ u - y) <= 1e-9 * scale


class TestInternalCayley:
    def test_pure_feedthrough_dynamics(self):
        sys = StateSpaceSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                               np.array([[3.0]]), split=(1, 0))
        phi = internal_cayley(sys, 5.0)
        assert np.array_equal(phi.Ad, np.eye(2))
        assert np.array_equal(phi.Dd, np.array([[3.0]]))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_sigma_is_a_usage_error(self, sigma):
        # like DiscreteSystem, not a gate (NearSpectrum) firing
        from passivenet.errors import DimensionMismatch
        from passivenet.passivity import scattering_passive_via_cayley
        sys = pi_circuit_system(2.2e-9, 3.4e-9, 14e-6)
        for fn in (internal_cayley, scattering_passive_via_cayley):
            with pytest.raises(DimensionMismatch, match="sigma must be positive"):
                fn(sys, sigma)

    def test_moebius_correspondence(self, rng):
        # discrete transfer at z equals continuous transfer at sigma (1-z)/(1+z)
        sys = random_system(rng, 4, 1, 1)
        sigma = 3.0
        phi = internal_cayley(sys, sigma)
        from passivenet.core import discrete_transfer_function
        for _ in range(5):
            z = 0.8 * rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            s = sigma * (1 - z) / (1 + z)
            Gd = discrete_transfer_function(phi, z)
            Gc = transfer_dense(sys, s)
            assert np.abs(Gd - Gc).max() <= 1e-9 * (1 + np.abs(Gc).max())

    def test_round_trip(self, rng):
        sys = random_system(rng, 5, 1, 1)
        sys = sys.replace(A=sys.A - 3 * np.eye(5))  # stable-ish
        back = inverse_internal_cayley(internal_cayley(sys, 88200.0))
        assert_systems_close(back, sys, rtol=1e-10)


class TestInternalReciprocal:
    def test_involution(self, rng):
        sys = random_system(rng, 4, 1, 1)
        sys = sys.replace(A=sys.A + 3 * np.eye(4))  # keep A invertible
        assert_systems_close(internal_reciprocal(internal_reciprocal(sys)), sys)

    def test_frequency_swap(self, rng):
        sys = random_system(rng, 4, 1, 1)
        sys = sys.replace(A=sys.A + 3 * np.eye(4))
        rec = internal_reciprocal(sys)
        G = transfer_function(rec, 2.0)
        assert np.abs(G - transfer_dense(sys, 0.5)).max() < 1e-10 * np.abs(G).max()

    def test_pi_circuit_singular_generator(self):
        with pytest.raises(SingularGenerator):
            internal_reciprocal(pi_circuit_system(2.2e-9, 3.4e-9, 14e-6))


class TestExternalCayley:
    def test_regularised_pi_matches_printed_form(self):
        # transform algebra vs the closed-form scattering realisation
        c1, c2, l1, r0, eps = 2.2e-9, 3.4e-9, 14e-6, 50.0, 1e-3
        R = ResistanceMatrix(r0 * np.eye(1), r0 * np.eye(1))
        got = external_cayley(regularize(pi_circuit_system(c1, c2, l1), eps), R)
        want = pi_scattering_system(c1, c2, l1, r0, r0, eps)
        assert_systems_close(got, want, rtol=1e-12)

    def test_zero_feedthrough_gives_minus_identity(self, rng):
        sys = random_conservative(rng, 3, 1, 1, skew_d=False)
        scat = external_cayley(sys, ResistanceMatrix(np.eye(1), np.eye(1)))
        assert np.allclose(scat.D, -np.eye(2), rtol=0, atol=1e-14)

    def test_round_trip(self, rng):
        for _ in range(5):
            sys = random_impedance_passive(rng, 4, 1, 1)
            R = random_resistance(rng, 1, 1)
            back = inverse_external_cayley(external_cayley(sys, R), R)
            assert_systems_close(back, sys, rtol=1e-10)

    def test_one_port_load(self, rng):
        # zero-width bottom block supports one-port terminations
        sys = random_impedance_passive(rng, 3, 1, 0)
        R = ResistanceMatrix(np.array([[2.0]]), np.zeros((0, 0)))
        back = inverse_external_cayley(external_cayley(sys, R), R)
        assert_systems_close(back, sys, rtol=1e-10)

    def test_wave_variable_semantics(self, rng):
        # the scattering transfer is the Moebius image of the impedance one:
        #   b = R^(-1/2)(v - R i)/sqrt2,  a = R^(-1/2)(v + R i)/sqrt2,
        # so G_scat = R^(-1/2) (Z - R)(Z + R)^(-1) R^(1/2) pointwise
        sys = random_impedance_passive(rng, 4, 1, 1)
        R = random_resistance(rng, 1, 1)
        scat = external_cayley(sys, R)
        Rm, Rh = R.matrix, R.sqrt
        Rih = np.linalg.inv(Rh)
        for s in (0.7 + 1.4j, 2.0j, 1.5 - 0.4j):
            Z = transfer_dense(sys, s)
            want = Rih @ (Z - Rm) @ np.linalg.inv(Z + Rm) @ Rh
            got = transfer_function(scat, s)
            assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())

    def test_scattering_round_trip_and_block_diagonality(self, rng):
        # start from scattering with +-1 off the spectrum of D: the impedance
        # form exists, and D block-diagonal <=> D_i block-diagonal
        R = random_resistance(rng, 1, 1)
        blkD = np.diag([0.3, -0.4])
        sys = random_system(rng, 3, 1, 1).replace(D=blkD)
        imp = inverse_external_cayley(sys, R)
        assert imp.D[0, 1] == 0.0 and imp.D[1, 0] == 0.0
        back = external_cayley(imp, R)
        assert_systems_close(back, sys, rtol=1e-10)
        adm = full_inversion(imp)  # exists since D_i is invertible here
        assert adm.m == 2


class TestHybrid:
    def test_round_trip(self, rng):
        sys = random_system(rng, 4, 1, 1)
        assert_systems_close(inverse_hybrid(hybrid_transform(sys)), sys)
        assert_systems_close(hybrid_transform(inverse_hybrid(sys)), sys)

    def test_pi_circuit_rejected(self):
        with pytest.raises(SingularBlock, match="D22"):
            hybrid_transform(pi_circuit_system(2.2e-9, 3.4e-9, 14e-6))

    def test_partial_flow_inversion_semantics(self):
        # hybrid feeds (u1, y2) and returns (y1, -u2): solve the original
        # feedthrough relation by hand and compare
        D = np.array([[2.0, 0.7], [0.4, 1.6]])
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               D, split=(1, 1))
        u = np.array([0.9, -0.3])
        y = D @ u
        out = hybrid_transform(sys).D @ np.array([u[0], y[1]])
        assert out[0] == pytest.approx(y[0])
        assert out[1] == pytest.approx(-u[1])

    def test_feedthrough_plugin(self):
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               np.diag([0.0, 1.0]), split=(1, 1))
        out = hybrid_transform(sys)
        assert np.allclose(out.D, np.diag([0.0, -1.0]), rtol=0, atol=0)


class TestChain:
    def test_antidiagonal_becomes_identity(self):
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               np.array([[0.0, 1.0], [1.0, 0.0]]), split=(1, 1))
        assert np.allclose(chain_transform(sys).D, np.eye(2), rtol=0, atol=0)

    def test_round_trip(self, rng):
        sys = random_system(rng, 4, 1, 1)
        assert_systems_close(inverse_chain(chain_transform(sys)), sys)
        assert_systems_close(chain_transform(inverse_chain(sys)), sys)

    def test_pi_scattering_not_chainable(self):
        # block-diagonal scattering feedthrough has singular D21
        sys = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0, 1e-3)
        with pytest.raises(SingularBlock, match="D21"):
            chain_transform(sys)


class TestResistanceMatrix:
    def test_rejects_non_spd(self):
        from passivenet.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            ResistanceMatrix(-np.eye(1), np.eye(1))
        with pytest.raises(DimensionMismatch):
            ResistanceMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(1))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, value):
        # a usage error, not the eigen-solver's LinAlgError
        from passivenet.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch, match="R1 contains non-finite"):
            ResistanceMatrix([[value]], np.zeros((0, 0)))
        with pytest.raises(DimensionMismatch, match="R2 contains non-finite"):
            ResistanceMatrix(np.eye(1), [[value]])

    def test_sqrt_squares_back(self, rng):
        R = random_resistance(rng, 2, 1)
        assert np.abs(R.sqrt @ R.sqrt - R.matrix).max() < 1e-12 * np.abs(R.matrix).max()

    def test_sqrt_is_kept_from_the_check(self, rng, monkeypatch):
        # R^1/2 comes from the eigenpairs R was checked with at construction
        R = random_resistance(rng, 2, 1)

        def no_eigh(*args, **kwargs):
            raise AssertionError("R.sqrt decomposed R again")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert np.abs(R.sqrt @ R.sqrt - R.matrix).max() < 1e-12 * np.abs(R.matrix).max()


class TestPassivityPreservation:
    def test_transform_certificates(self, rng):
        from passivenet.passivity import impedance_certificate, CONSERVATIVE
        sys = random_conservative(rng, 4, 1, 1)
        R = random_resistance(rng, 1, 1)
        back = inverse_external_cayley(external_cayley(sys, R), R)
        assert impedance_certificate(back).verdict == CONSERVATIVE
