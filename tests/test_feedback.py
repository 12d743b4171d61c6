"""Star products: well-posedness diagnostics, the loop closure against the
component formulas and an independent loop-solve oracle, the
cascade-of-chains route, and the shift-and-invert regularisation."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_realisation,
    random_conservative,
    random_impedance_passive,
    random_resistance,
    random_system,
    system_norm,
)
from oracles import pi_scattering_system, star_product_blocks, star_transfer

from passivenet import core
from passivenet.core import StateSpaceSystem, cascade_product, io_equivalent, transfer_function
from passivenet.errors import (
    DimensionMismatch,
    NotProperlyPassive,
    NotWellPosed,
    ResistanceMismatch,
    SingularBlock,
)
from passivenet.feedback import (
    regularize,
    star_of_impedance_pair,
    star_product,
    star_via_chain,
    well_posedness,
)
from passivenet.passivity import (
    CONSERVATIVE,
    discrete_scattering_certificate,
    impedance_certificate,
    properly_impedance_passive,
    scattering_conservative_check,
)
from passivenet.pipelines import pi_circuit_system
from passivenet.transforms import (
    ResistanceMatrix,
    external_cayley,
    internal_cayley,
)


def feedthrough_only(D, split):
    m = D.shape[0]
    return StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0)),
                            D, split=split)


def pass_through(m1):
    D = np.block([[np.zeros((m1, m1)), np.eye(m1)], [np.eye(m1), np.zeros((m1, m1))]])
    return feedthrough_only(D, (m1, m1))


class TestWellPosedness:
    def test_minus_identity_pair_fails(self):
        p = feedthrough_only(-np.eye(2), (1, 1))
        q = feedthrough_only(-np.eye(2), (1, 1))
        rep = well_posedness(p, q)
        assert not rep.well_posed
        with pytest.raises(NotWellPosed):
            star_product(p, q)

    def test_zero_block_is_well_posed(self, rng):
        p = random_system(rng, 2, 1, 1).replace(D=np.diag([0.7, 0.0]))
        q = random_system(rng, 2, 1, 1)
        rep = well_posedness(p, q)
        assert rep.well_posed and rep.delta1_condition == pytest.approx(1.0)

    def test_contraction_pair(self, rng):
        p = random_system(rng, 2, 1, 1).replace(D=0.4 * np.eye(2))
        q = random_system(rng, 2, 1, 1).replace(D=0.5 * np.eye(2))
        rep = well_posedness(p, q)
        assert rep.well_posed
        # norm oracle: |D_p22| + |D_q11| = 0.4 + 0.5
        assert rep.norm_sum == pytest.approx(0.9)
        assert rep.norm_sum < 2.0

    def test_delta1_delta2_singular_together(self, rng):
        # whenever D_p22 D_q11 has a unit eigenvalue, both loop matrices are
        # singular at once; randomized constructions of several widths
        for _ in range(10):
            k = int(rng.integers(1, 4))
            q11 = rng.standard_normal((k, k)) + np.eye(k)
            if np.linalg.cond(q11) > 1e3:
                continue
            p22 = np.linalg.inv(q11)  # product = I: both Deltas singular
            p = random_system(rng, 2, k, k)
            D = p.D.copy()
            D[k:, k:] = p22
            p = p.replace(D=D)
            q = random_system(rng, 2, k, k)
            D = q.D.copy()
            D[:k, :k] = q11
            q = q.replace(D=D)
            rep = well_posedness(p, q)
            assert (rep.delta1_condition > 1e12) == (rep.delta2_condition > 1e12)
            assert rep.delta1_condition > 1e12
            assert not rep.well_posed


class TestStarProduct:
    def test_pass_through_identity(self, rng):
        p = random_system(rng, 3, 1, 1)
        out = star_product(p, pass_through(1))
        assert io_equivalent(out, p, tol=1e-9)

    def test_transfer_matches_loop_solve_oracle(self, rng):
        p = random_system(rng, 3, 1, 1)
        q = random_system(rng, 4, 1, 1).replace(D=0.4 * random_system(rng, 0, 1, 1).D)
        q = random_system(rng, 4, 1, 1)
        q = q.replace(D=0.4 * q.D / max(1.0, np.linalg.norm(q.D, 2)))
        out = star_product(p, q)
        for s in (1.3 + 0.6j, -0.3 + 2.0j, 4.0j, 0.5 - 1.8j, 2.2 + 0.2j):
            got = transfer_function(out, s)
            want = star_transfer(p, q, s)
            assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())

    def test_unequal_coupled_widths(self, rng):
        # p: (1, 2) coupled to q: (2, 0) -- a two-channel load termination
        p = random_system(rng, 3, 1, 2)
        q = random_system(rng, 2, 2, 0)
        q = q.replace(D=0.3 * q.D)
        out = star_product(p, q)
        assert out.split == (1, 0) and out.n == 5
        for s in (1.0 + 1.0j, 3.0j):
            got = transfer_function(out, s)
            want = star_transfer(p, q, s)
            assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())

    def test_diagonal_feedthrough_inheritance(self, rng):
        p = random_system(rng, 2, 1, 1).replace(D=np.diag([0.3, -0.2]))
        q = random_system(rng, 2, 1, 1).replace(D=np.diag([0.5, 0.1]))
        out = star_product(p, q)
        assert out.D[0, 1] == 0.0 and out.D[1, 0] == 0.0

    def test_passivity_preserved(self, rng):
        for _ in range(25):
            n1, n2 = rng.integers(1, 5, 2)
            pi_ = random_impedance_passive(rng, int(n1), 1, 1, proper=True)
            qi_ = random_impedance_passive(rng, int(n2), 1, 1, proper=False, strict=False)
            Rp = random_resistance(rng, 1, 1)
            Rq = ResistanceMatrix(Rp.R2, random_resistance(rng, 1, 1).R2)
            out = star_product(external_cayley(pi_, Rp), external_cayley(qi_, Rq))
            cert = discrete_scattering_certificate(internal_cayley(out, 10.0))
            assert cert.passive

    def test_conservative_pair_stays_conservative(self, rng):
        for _ in range(10):
            pi_ = random_conservative(rng, 3, 1, 1)
            qi_ = random_conservative(rng, 2, 1, 1)
            R = random_resistance(rng, 1, 1)
            Rq = ResistanceMatrix(R.R2, random_resistance(rng, 1, 1).R2)
            p = external_cayley(pi_, R)
            q = external_cayley(qi_, Rq)
            if not well_posedness(p, q).well_posed:
                continue
            out = star_product(p, q)
            cert = scattering_conservative_check(out)
            assert cert.verdict == CONSERVATIVE
            assert cert.margin <= 1e-9 * cert.test_matrix_norm


class TestClosedLoop:
    """The star product is one closure of its loop, ``core._closed_loop``."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.tuples(st.integers(0, 6), st.integers(0, 6)),
           k=st.integers(0, 2), outer=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           well_conditioned=st.booleans())
    def test_matches_component_formulas(self, seed, n, k, outer, well_conditioned):
        m1, m2 = outer
        assume(m1 + k >= 1 and k + m2 >= 1 and m1 + m2 >= 1)
        rng = np.random.default_rng(seed)
        p = random_system(rng, n[0], m1, k, well_conditioned)
        q = random_system(rng, n[1], k, m2, well_conditioned)
        if not well_posedness(p, q).well_posed:
            # |D_p22 D_q11| <= 1/2 afterwards: a loop of condition at most 3
            q = q.replace(D=0.5 * q.D / (np.linalg.norm(p.D, 2) * np.linalg.norm(q.D, 2)))
        loop = np.block([[np.eye(k), -q.D[:k, :k]], [-p.D[m1:, m1:], np.eye(k)]])
        kappa = np.linalg.cond(loop) if k else 1.0
        scale = (1.0 + system_norm(p)) * (1.0 + system_norm(q))
        assert_same_realisation(star_product(p, q), star_product_blocks(p, q), kappa, scale)

    def test_both_products_close_one_loop(self, rng, monkeypatch):
        calls = []
        closed_loop = core._closed_loop

        def counted(*args):
            calls.append(args[-1])
            return closed_loop(*args)

        monkeypatch.setattr(core, "_closed_loop", counted)
        p = random_system(rng, 3, 1, 1)
        q = random_system(rng, 2, 1, 1)
        q = q.replace(D=0.4 * q.D / np.linalg.norm(q.D, 2))
        star_product(p, q)
        cascade_product(p, q)
        assert calls == [(1, 1), p.split]


class TestStarViaChain:
    def test_agrees_with_direct(self, rng):
        hits = 0
        while hits < 20:
            p = random_system(rng, int(rng.integers(1, 5)), 1, 1)
            q = random_system(rng, int(rng.integers(1, 5)), 1, 1)
            q = q.replace(D=q.D / (1.0 + np.linalg.norm(q.D, 2)))
            try:
                via = star_via_chain(p, q)
            except (SingularBlock, NotWellPosed):
                continue
            direct = star_product(p, q)
            for s in (1.1 + 0.9j, -0.2 + 2.1j):
                a = transfer_function(direct, s)
                b = transfer_function(via, s)
                assert np.abs(a - b).max() <= 1e-8 * (1 + np.abs(a).max())
            hits += 1

    def test_pass_through(self, rng):
        p = random_system(rng, 3, 1, 1)
        out = star_via_chain(p, pass_through(1))
        assert io_equivalent(out, p, tol=1e-8)

    def test_pi_scattering_needs_chainable_blocks(self):
        p = pi_scattering_system(2.2e-9, 3.4e-9, 14e-6, 50.0, 50.0, 1e-3)
        q = pi_scattering_system(3.4e-9, 2.2e-9, 14e-6, 50.0, 50.0, 1e-3)
        with pytest.raises(SingularBlock):
            star_via_chain(p, q)
        star_product(p, q)  # the direct formulas do not need D21


class TestRegularize:
    def test_zero_epsilon_identity(self, rng):
        sys = random_conservative(rng, 3, 1, 1)
        assert regularize(sys, 0.0) is sys

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan, -np.inf, -1e-3])
    def test_epsilon_must_be_nonnegative_and_finite(self, rng, epsilon):
        sys = random_conservative(rng, 3, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match="^epsilon must be nonnegative and finite"):
                regularize(sys, epsilon)

    def test_pi_becomes_properly_passive(self):
        sys = regularize(pi_circuit_system(2.2e-9, 3.4e-9, 14e-6), 1e-3)
        ok, _ = properly_impedance_passive(sys)
        assert ok

    def test_skew_feedthrough_margin(self, rng):
        sys = random_conservative(rng, 3, 1, 1, skew_d=True)
        eps = 0.37
        shifted = regularize(sys, eps)
        sym = shifted.D + shifted.D.T
        # eigenvalue oracle: skew + eps I has symmetric part exactly 2 eps I
        assert np.allclose(np.linalg.eigvalsh(sym), 2 * eps, rtol=0, atol=1e-12)

    def test_regularized_external_cayley_printed_pi(self):
        c1, c2, l1, r0, eps = 2.2e-9, 3.4e-9, 14e-6, 50.0, 1e-3
        R = ResistanceMatrix(r0 * np.eye(1), r0 * np.eye(1))
        got = external_cayley(regularize(pi_circuit_system(c1, c2, l1), eps), R)
        want = pi_scattering_system(c1, c2, l1, r0, r0, eps)
        for x, y in ((got.A, want.A), (got.B, want.B), (got.C, want.C), (got.D, want.D)):
            assert np.abs(x - y).max() <= 1e-12 * max(1.0, np.abs(y).max())

    def test_epsilon_limit_matches_plain(self, rng):
        sys = random_impedance_passive(rng, 3, 1, 1)
        R = random_resistance(rng, 1, 1)
        a = external_cayley(regularize(sys, 1e-10), R)
        b = external_cayley(sys, R)
        for x, y in ((a.A, b.A), (a.B, b.B), (a.C, b.C), (a.D, b.D)):
            assert np.abs(x - y).max() <= 1e-8 * max(1.0, np.abs(y).max())

    def test_unit_shift_plugin(self, rng):
        sys = random_conservative(rng, 2, 1, 1, skew_d=False)
        out = external_cayley(regularize(sys, 1.0), ResistanceMatrix(np.eye(1), np.eye(1)))
        # D = I - 2 (2I)^-1 = 0
        assert np.allclose(out.D, 0.0, rtol=0, atol=1e-14)


class TestStarOfImpedancePair:
    def test_resistance_mismatch(self, rng):
        p = random_impedance_passive(rng, 2, 1, 1)
        q = random_impedance_passive(rng, 2, 1, 1)
        Rp = ResistanceMatrix(np.eye(1), 2.0 * np.eye(1))
        Rq = ResistanceMatrix(3.0 * np.eye(1), np.eye(1))
        with pytest.raises(ResistanceMismatch):
            star_of_impedance_pair(p, q, Rp, Rq)

    def test_both_conservative_unregularised_rejected(self, rng):
        p = random_conservative(rng, 2, 1, 1, skew_d=False)
        q = random_conservative(rng, 2, 1, 1, skew_d=False)
        R = ResistanceMatrix(np.eye(1), np.eye(1))
        with pytest.raises(NotProperlyPassive):
            star_of_impedance_pair(p, q, R, R)

    def test_strict_plus_conservative_succeeds(self, rng):
        p = random_impedance_passive(rng, 3, 1, 1, proper=True)
        q = random_conservative(rng, 2, 1, 1, skew_d=False)
        R = random_resistance(rng, 1, 1)
        Rq = ResistanceMatrix(R.R2, random_resistance(rng, 1, 1).R2)
        out = star_of_impedance_pair(p, q, R, Rq)
        assert out.n == 5
        cert = discrete_scattering_certificate(internal_cayley(out, 3.0))
        assert cert.passive

    @pytest.mark.parametrize("epsilon_q", [0.0, 0.1])
    def test_unstable_operand_is_named(self, epsilon_q):
        # q = 1 + 1/(s - 1) has no violating band; coupled anyway, it gives a
        # composite with an eigenvalue at Re +0.59, not impedance passive
        p = random_conservative(np.random.default_rng(3), 3, 1, 1, skew_d=False)
        one = np.ones((1, 1))
        q = StateSpaceSystem(one, one, one, one, split=(1, 0))
        R = ResistanceMatrix(np.eye(1), np.eye(1))
        R1 = ResistanceMatrix(np.eye(1), np.zeros((0, 0)))
        with pytest.raises(NotProperlyPassive, match=r"^q_i \+ .* the eigenvalue 1, "):
            star_of_impedance_pair(p, q, R, R1, 0.0, epsilon_q, impedance=True)

    def test_negative_residue_on_the_axis_is_named(self):
        # q = 1 - 1/s has no band and no unstable eigenvalue; against the
        # shunt capacitor Z = (0.5/s) [[1, 1], [1, 1]] (D = 0, so q must be
        # the proper operand) the composite would have a pole at s = +0.5
        h = np.sqrt(0.5) * np.ones((1, 2))
        p = StateSpaceSystem(np.zeros((1, 1)), h, h.T.copy(), np.zeros((2, 2)), split=(1, 1))
        one = np.ones((1, 1))
        q = StateSpaceSystem(np.zeros((1, 1)), one, -one, one, split=(1, 0))
        R = ResistanceMatrix(np.eye(1), np.eye(1))
        R1 = ResistanceMatrix(np.eye(1), np.zeros((0, 0)))
        with pytest.raises(NotProperlyPassive, match=r"^q_i \+ .* residue at the pole 0j "):
            star_of_impedance_pair(p, q, R, R1, impedance=True)

    def test_impedance_recovery(self, rng):
        p = random_impedance_passive(rng, 3, 1, 1, proper=True)
        q = random_impedance_passive(rng, 2, 1, 1, proper=True)
        R = random_resistance(rng, 1, 1)
        Rq = ResistanceMatrix(R.R2, random_resistance(rng, 1, 1).R2)
        imp = star_of_impedance_pair(p, q, R, Rq, impedance=True)
        assert impedance_certificate(imp).passive

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.tuples(st.integers(0, 5), st.integers(0, 5)),
           k=st.integers(1, 2), outer=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           proper=st.tuples(st.booleans(), st.booleans()),
           shifted=st.sampled_from([(True, False), (False, True), (True, True)]),
           log_r=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_channel_resistance_changes_no_answer(self, seed, n, k, outer, proper, shifted,
                                                  log_r):
        # R picks the port variables of the coupling, not the coupled
        # impedance; the largest gap measured over 26 615 such pairs, at R
        # from 1e-2 to 1e2, was 3.3e-13 of (max|want| + data scale)
        m1, m2 = outer
        assume(m1 + m2 >= 1)
        rng = np.random.default_rng(seed)
        p = random_impedance_passive(rng, n[0], m1, k, proper=proper[0])
        q = random_impedance_passive(rng, n[1], k, m2, proper=proper[1])
        eps = [rng.uniform(0.1, 1.0) if on else 0.0 for on in shifted]
        got, want = (
            star_of_impedance_pair(p, q, ResistanceMatrix(r * np.eye(m1), r * np.eye(k)),
                                   ResistanceMatrix(r * np.eye(k), r * np.eye(m2)), *eps,
                                   impedance=True)
            for r in 10.0 ** np.array(log_r))
        X, Y = (np.block([[sys.A, sys.B], [sys.C, sys.D]]) for sys in (got, want))
        scale = system_norm(p) + system_norm(q) + sum(eps)
        assert np.abs(X - Y).max() <= 1e-12 * (np.abs(Y).max() + scale)
