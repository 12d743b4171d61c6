"""Second-order to first-order realisations on energy coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import second_order_transfer

from passivenet.core import transfer_function
from passivenet.errors import DimensionMismatch, NotSPD, SingularStiffness
from passivenet.passivity import (
    CONSERVATIVE,
    discrete_impedance_certificate,
    impedance_certificate,
)
from passivenet.secondorder import (
    SecondOrderSystem,
    first_order_realization,
    passivity_conditions,
    spd_sqrt,
)
from passivenet.simulate import step_response
from passivenet.transforms import internal_cayley


def random_spd(rng, m, semidefinite=False):
    Q = rng.standard_normal((m, m))
    X = Q @ Q.T
    if semidefinite:
        w, V = np.linalg.eigh(X)
        w[0] = 0.0  # force a kernel direction
        return (V * w) @ V.T
    return X + 0.5 * np.eye(m)


class TestSpdSqrt:
    def test_identity(self):
        assert np.array_equal(spd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = spd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(out, np.diag([2.0, 3.0]), rtol=0, atol=1e-15)

    def test_residual(self, rng):
        X = random_spd(rng, 5)
        R = spd_sqrt(X)
        assert np.linalg.norm(R @ R - X, 2) <= 1e-10 * np.linalg.norm(X, 2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            spd_sqrt(np.diag([1.0, -0.5]))


def with_spectrum(rng, m, kind):
    """Exactly symmetric m x m matrix with eigenvalues in [0.1, 10], the
    smallest replaced by 0 ("semidefinite") or a value in [-10, -0.1]
    ("indefinite"): every verdict is far from the definiteness tolerance."""
    Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    w = rng.uniform(0.1, 10.0, m)
    if kind == "semidefinite":
        w[0] = 0.0
    elif kind == "indefinite":
        w[0] = -rng.uniform(0.1, 10.0)
    X = (Q * w) @ Q.T
    return 0.5 * (X + X.T)


class TestValidation:
    @pytest.mark.parametrize("name", ["M", "P", "K"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, name, value):
        # a usage error naming the matrix, not the eigen-solver's LinAlgError
        mats = {"M": np.eye(2), "P": np.zeros((2, 2)), "K": np.eye(2)}
        mats[name][0, 0] = value
        with pytest.raises(DimensionMismatch, match=f"{name} contains non-finite"):
            SecondOrderSystem(mats["M"], mats["P"], mats["K"], np.ones((2, 1)))

    def test_zero_damping_needs_no_decomposition(self, rng, monkeypatch):
        M, K = random_spd(rng, 3), random_spd(rng, 3, semidefinite=True)
        eigh, sizes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda X: sizes.append(len(X)) or eigh(X))
        so = SecondOrderSystem(M, np.zeros((3, 3)), K, np.ones((3, 1)))
        assert sizes == [3, 3]  # M and K only
        np.testing.assert_array_equal(first_order_realization(so).A[3:, 3:], 0.0)
        # the checks a zero P still gets, and a zero M is still no mass
        with pytest.raises(DimensionMismatch, match="^P must be square"):
            SecondOrderSystem(M, np.zeros((3, 2)), K, np.ones((3, 1)))
        with pytest.raises(DimensionMismatch, match="must share one size"):
            SecondOrderSystem(M, np.zeros((2, 2)), K, np.ones((3, 1)))
        with pytest.raises(NotSPD, match="^M must be positive definite"):
            SecondOrderSystem(np.zeros((3, 3)), np.zeros((3, 3)), K, np.ones((3, 1)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_spd_sqrt_rejects_non_finite(self, value):
        with pytest.raises(DimensionMismatch, match="X contains non-finite"):
            spd_sqrt([[value]])

    @pytest.mark.parametrize("scale", [10.0 ** e for e in range(-8, 9)])
    def test_semidefinite_bound_is_relative_to_the_matrix(self, scale):
        # c [[1, -1], [-1, 1 - delta]] has the eigenvalue -c delta / 2 (to
        # first order) beside 2c: delta = 1e-15 is roundoff in the kernel,
        # delta = 1e-9 a negative eigenvalue 2.5e-10 of the norm, whatever M is
        def psd(delta):
            return scale * np.array([[1.0, -1.0], [-1.0, 1.0 - delta]])

        spd_sqrt(psd(1e-15))
        with pytest.raises(NotSPD):
            spd_sqrt(psd(1e-9))
        M, Z, F = np.eye(2), np.zeros((2, 2)), np.ones((2, 1))
        SecondOrderSystem(M, psd(1e-15), psd(1e-15), F)
        with pytest.raises(NotSPD, match="^P "):
            SecondOrderSystem(M, psd(1e-9), Z, F)
        with pytest.raises(NotSPD, match="^K "):
            SecondOrderSystem(M, Z, psd(1e-9), F)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
           kinds=st.tuples(*[st.sampled_from(["definite", "semidefinite", "indefinite"])] * 3),
           exponents=st.tuples(*[st.floats(-8.0, 8.0)] * 3))
    def test_verdicts_invariant_under_scaling(self, seed, m, kinds, exponents):
        rng = np.random.default_rng(seed)
        mats = [with_spectrum(rng, m, kind) for kind in kinds]
        F = rng.standard_normal((m, 1))

        def verdict(M, P, K):
            try:
                SecondOrderSystem(M, P, K, F)
            except NotSPD as exc:
                return str(exc).split()[0]  # the matrix it names
            return None

        rejected = [name for name, kind in zip("MPK", kinds)
                    if kind == "indefinite" or (name == "M" and kind == "semidefinite")]
        assert verdict(*mats) == (rejected[0] if rejected else None)
        scaled = [10.0 ** e * X for e, X in zip(exponents, mats)]
        assert verdict(*scaled) == verdict(*mats)


class TestRealization:
    def test_scalar_oscillator(self):
        so = SecondOrderSystem(np.eye(1), np.zeros((1, 1)), np.eye(1), np.eye(1))
        sys = first_order_realization(so, method="colocated")
        assert np.allclose(sys.A, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)
        assert np.allclose(sys.B, np.array([[0.0], [1.0]]), atol=1e-15)
        assert np.allclose(sys.C, np.array([[0.0, 1.0]]), atol=1e-15)

    def test_general_conservative_pattern(self, rng):
        m = 3
        M = random_spd(rng, m)
        K = random_spd(rng, m)
        F = rng.standard_normal((m, 2))
        so = SecondOrderSystem(M, np.zeros((m, m)), K, F, Q1=np.zeros((2, m)),
                               Q2=0.5 * F.T)
        sys = first_order_realization(so, method="general", split=(1, 1))
        assert impedance_certificate(sys).verdict == CONSERVATIVE

    def test_general_matches_quadratic_pencil(self, rng):
        m = 3
        M, K = random_spd(rng, m), random_spd(rng, m)
        P = random_spd(rng, m, semidefinite=True)
        F = rng.standard_normal((m, 2))
        Q1 = rng.standard_normal((2, m))
        Q2 = rng.standard_normal((2, m))
        so = SecondOrderSystem(M, P, K, F, Q1=Q1, Q2=Q2)
        sys = first_order_realization(so, method="general", split=(1, 1))
        for s in (1.0 + 2.0j, -0.5 + 1.1j, 3.3j, 2.0 + 0.1j, 0.2 - 2.4j):
            got = transfer_function(sys, s)
            want = second_order_transfer(so, s, general=True)
            assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())

    def test_colocated_matches_velocity_observation(self, rng):
        m = 3
        M = random_spd(rng, m)
        K = random_spd(rng, m, semidefinite=True)
        P = random_spd(rng, m, semidefinite=True)
        F = rng.standard_normal((m, 2))
        so = SecondOrderSystem(M, P, K, F)
        sys = first_order_realization(so, method="colocated", split=(1, 1))
        for s in (1.0 + 2.0j, 0.4 - 1.7j):
            got = transfer_function(sys, s)
            want = second_order_transfer(so, s, general=False)
            assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())

    def test_general_rejects_singular_stiffness(self, rng):
        m = 3
        so = SecondOrderSystem(random_spd(rng, m), np.zeros((m, m)),
                               random_spd(rng, m, semidefinite=True),
                               rng.standard_normal((m, 2)))
        with pytest.raises(SingularStiffness):
            first_order_realization(so, method="general")

    def test_colocated_always_passive(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 5))
            so = SecondOrderSystem(random_spd(rng, m),
                                   random_spd(rng, m, semidefinite=True),
                                   random_spd(rng, m, semidefinite=True),
                                   rng.standard_normal((m, int(rng.integers(1, 3)))))
            sys = first_order_realization(so, method="colocated")
            assert impedance_certificate(sys).passive

    def test_realisations_decompose_nothing(self, rng, monkeypatch):
        # M^-1/2 and K^1/2 come from the eigenpairs M and K were checked with
        so = SecondOrderSystem(random_spd(rng, 3), np.zeros((3, 3)), random_spd(rng, 3),
                               rng.standard_normal((3, 1)))

        def no_eigh(*args, **kwargs):
            raise AssertionError("the realisation decomposed M or K again")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for method in ("colocated", "general"):
            first_order_realization(so, method=method)

    def test_feedthrough_exactly_zero(self, rng):
        so = SecondOrderSystem(random_spd(rng, 2), np.zeros((2, 2)),
                               random_spd(rng, 2), rng.standard_normal((2, 1)))
        for method in ("colocated", "general"):
            sys = first_order_realization(so, method=method)
            assert np.count_nonzero(sys.D) == 0


class TestPassivityConditions:
    def test_patterns(self, rng):
        m = 3
        M, K = random_spd(rng, m), random_spd(rng, m)
        F = rng.standard_normal((m, 2))
        P = random_spd(rng, m, semidefinite=True)
        passive = SecondOrderSystem(M, P, K, F, Q1=np.zeros((2, m)), Q2=0.5 * F.T)
        pat = passivity_conditions(passive)
        assert pat.passive_pattern and not pat.conservative_pattern
        cons = SecondOrderSystem(M, np.zeros((m, m)), K, F,
                                 Q1=np.zeros((2, m)), Q2=0.5 * F.T)
        assert passivity_conditions(cons).conservative_pattern

    def test_nonzero_q1_fails(self, rng):
        m = 2
        M, K = random_spd(rng, m), random_spd(rng, m)
        F = rng.standard_normal((m, 1))
        so = SecondOrderSystem(M, np.zeros((m, m)), K, F,
                               Q1=np.ones((1, m)), Q2=0.5 * F.T)
        pat = passivity_conditions(so)
        assert not pat.passive_pattern and pat.q1_residual == 1.0
        sys = first_order_realization(so, method="general")
        assert not impedance_certificate(sys).passive

    def test_perturbed_q2_reported(self, rng):
        m = 2
        M, K = random_spd(rng, m), random_spd(rng, m)
        F = rng.standard_normal((m, 1))
        so = SecondOrderSystem(M, np.zeros((m, m)), K, F,
                               Q1=np.zeros((1, m)), Q2=0.5 * F.T + 1e-3)
        pat = passivity_conditions(so)
        assert not pat.passive_pattern
        assert pat.q2_residual == pytest.approx(1e-3)
        sys = first_order_realization(so, method="general")
        assert not impedance_certificate(sys).passive


class TestEnergyCoordinates:
    def test_conservative_trajectory_balance(self, rng):
        # stepping the Cayley-discretised conservative system keeps the
        # energy identity |x+|^2 - |x|^2 = 2 <u, y> per step
        m = 3
        M, K = random_spd(rng, m), random_spd(rng, m)
        F = rng.standard_normal((m, 1))
        so = SecondOrderSystem(M, np.zeros((m, m)), K, F, Q1=np.zeros((1, m)),
                               Q2=0.5 * F.T)
        sys = first_order_realization(so, method="general")
        phi = internal_cayley(sys, 50.0)
        assert discrete_impedance_certificate(phi).verdict == CONSERVATIVE
        u = rng.standard_normal((400, 1))
        _, balance, states = step_response(phi, u, record_energy=True)
        scale = 1.0 + (states**2).sum(axis=1).max()
        assert np.abs(balance).max() <= 1e-10 * scale


class TestBlockLemma:
    def test_coupled_block_indefinite(self, rng):
        # [[P, U], [U^T, 0]] with PSD P and nonzero U always has a negative
        # eigenvalue (the structural reason co-location is forced)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            P = random_spd(rng, m, semidefinite=bool(rng.integers(0, 2)))
            U = rng.standard_normal((m, m))
            if np.abs(U).max() < 1e-12:
                continue
            M = np.block([[P, U], [U.T, np.zeros((m, m))]])
            assert np.linalg.eigvalsh(M).min() < 0
