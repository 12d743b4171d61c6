"""Realisation algebra: transfer evaluation, sum/product/scalar, minimality,
sampled I/O equivalence and the JSON exchange format."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_realisation, random_system, system_norm
from oracles import cascade_product_blocks, transfer_dense, transfer_equilibrated

from passivenet import core
from passivenet.core import (
    DiscreteSystem,
    StateSpaceSystem,
    cascade_product,
    discrete_transfer_function,
    io_equivalent,
    minimality,
    parallel_sum,
    scalar_multiple,
    similarity,
    system_from_json,
    system_to_json,
    transfer_function,
)
from passivenet.errors import DimensionMismatch, NearSpectrum
from passivenet.pipelines import (
    ButterworthConfig,
    WaveguideConfig,
    _rotated_product,
    butterworth_compose,
    pi_circuit_system,
    uniform_tube,
    waveguide_compose,
)
from passivenet.simulate import frequency_response
from passivenet.transforms import internal_cayley


def five_points(rng):
    return rng.uniform(0.5, 3.0, 5) * np.exp(1j * rng.uniform(0.2, 2.9, 5))


class TestTransferFunction:
    def test_feedthrough_only(self):
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               np.diag([2.0, 3.0]), split=(1, 1))
        G = transfer_function(sys, 1 + 1j)
        assert np.array_equal(G, np.diag([2.0, 3.0]).astype(complex))

    def test_high_frequency_limit_is_feedthrough(self):
        # lossless LC two-port: G(s) -> D along the real axis, error ~ 1/s
        sys = pi_circuit_system(2.2e-9, 3.4e-9, 14e-6)
        bound = 2 * np.abs(sys.C).max() * np.abs(sys.B).max() * sys.n
        e13 = np.abs(transfer_function(sys, 1e13) - sys.D).max()
        e15 = np.abs(transfer_function(sys, 1e15) - sys.D).max()
        assert e13 < bound / 1e13
        assert e15 < bound / 1e15

    def test_matches_dense_inverse_oracle(self, rng):
        sys = random_system(rng, 4, 1, 1)
        G = transfer_function(sys, 2.0)
        assert np.abs(G - transfer_dense(sys, 2.0)).max() < 1e-12 * np.abs(G).max()

    def test_near_spectrum_rejected(self):
        # relative-conditioning gate: needs n >= 2 so sigma_min/sigma_max drops
        sys = StateSpaceSystem(np.diag([1.0, 2.0]), np.ones((2, 1)), np.ones((1, 2)),
                               np.zeros((1, 1)), split=(1, 0))
        with pytest.raises(NearSpectrum):
            transfer_function(sys, 1.0 + 1e-15)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                   complex(0.0, np.inf)])
    def test_non_finite_point_is_a_usage_error(self, rng, s):
        # not a gate verdict: the point names itself; a sweep still flags it
        sys = random_system(rng, 3, 1, 1)
        with pytest.raises(DimensionMismatch, match=r"s=.*(nan|inf).* is not finite"):
            transfer_function(sys, s)
        values, ok = sys.transfer_values([1.0j, s])
        assert ok.tolist() == [True, False] and np.isnan(values[1]).all()


class TestResolventPlan:
    """Sweeps and single points against a row-equilibrated dense solve."""

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(1, 3),
           stiffness=st.sampled_from([0.0, 1e11, 1e16, 1e17]), coupled=st.booleans())
    def test_matches_equilibrated_solve(self, seed, n, m, stiffness, coupled):
        rng = np.random.default_rng(seed)
        if stiffness:
            # below two slow rows the median row scale is the stiff row's,
            # and the gate rightly rejects every point
            n = max(n, 3)
        k = n - 1 if stiffness else n
        S = rng.standard_normal((k, k))
        # stable with abscissa -0.5: the imaginary axis stays clear of the spectrum
        S -= (np.linalg.eigvals(S).real.max(initial=0.0) + 0.5) * np.eye(k)
        slow = np.linalg.eigvals(S)
        A = S
        if stiffness:
            # one mode `stiffness` times faster than the rest, coupled to them
            # or not; at 1e16-1e17, eps |A| reaches the slow modes' distances
            fast = -stiffness * max(1.0, np.abs(S).max(initial=0.0))
            scale = 1.0 if coupled else 0.0
            A = np.block([[np.full((1, 1), fast), scale * rng.standard_normal((1, k))],
                          [scale * rng.standard_normal((k, 1)), S]])
        B, C = rng.standard_normal((n, m)), rng.standard_normal((m, n))
        D = rng.standard_normal((m, m))
        sys = StateSpaceSystem(A, B, C, D, split=(m, 0))
        freqs = np.geomspace(1e-3, 1e2, 40)
        resp = frequency_response(sys, freqs)
        assert resp.ok.all()
        # off-axis points, and points 0.2-2 from the slow modes
        near = slow[:3] + rng.uniform(0.2, 2.0, slow[:3].size) * np.exp(
            1j * rng.uniform(0.0, 2 * np.pi, slow[:3].size))
        points = list(2j * np.pi * freqs) + list(1.5 * five_points(rng)) + list(near)
        got = list(resp.values) + [transfer_function(sys, s) for s in points[40:]]
        for s, G in zip(points, got):
            want = transfer_equilibrated(A, B, C, D, s)
            assert np.abs(G - want).max() <= 1e-10 * np.abs(want).max()

    # a mode at -1e17 beside the coupled slow pair [[-1.5, .5], [.5, -1.5]]
    # (eigenvalues -1 and -2): eps |A| ~ 22 is more than every slow pivot
    # |T_kk - s| at these points, and the refined Schur solve, or the
    # equilibrated solve where its backward error is too large, must still
    # match the equilibrated oracle
    STIFF_A = np.array([[-1e17, 0.0, 0.0], [0.0, -1.5, 0.5], [0.0, 0.5, -1.5]])

    @pytest.mark.parametrize("s", [0.0, -1.5, 0.5j, -1.0 + 1e-6, -3.0 + 0.1j])
    def test_stiff_point_within_the_pivot_floor(self, s):
        B, C, D = np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1))
        sys = StateSpaceSystem(self.STIFF_A, B, C, D, split=(1, 0))
        want = transfer_equilibrated(self.STIFF_A, B, C, D, s)
        assert np.abs(transfer_function(sys, s) - want).max() <= 1e-10 * np.abs(want).max()

    # with the slow pair unexcited the solution is exact either way, and
    # only the gate's probes, which excite every mode, see the slow pole
    @pytest.mark.parametrize("b", [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    def test_stiff_point_on_a_slow_pole_rejected(self, b):
        sys = StateSpaceSystem(self.STIFF_A, np.array(b).reshape(3, 1), np.ones((1, 3)),
                               np.zeros((1, 1)), split=(1, 0))
        for s in (-1.0, -2.0):
            with pytest.raises(NearSpectrum):
                transfer_function(sys, s)

    def test_large_point_leaves_its_chunk_mates_exact(self):
        # a point at 1e17 Hz solved in the same chunk as the slow points
        # must leave their pivots and their accuracy alone
        A, B = self.STIFF_A[1:, 1:], np.array([[1.0], [2.0]])
        C, D = np.array([[1.0, -1.0]]), np.zeros((1, 1))
        sys = StateSpaceSystem(A, B, C, D, split=(1, 0))
        freqs = np.array([0.05, 0.2, 1e17, 0.3])
        resp = frequency_response(sys, freqs)
        assert resp.ok.all()
        for f, G in zip(freqs, resp.values):
            want = transfer_equilibrated(A, B, C, D, 2j * np.pi * f)
            assert np.abs(G - want).max() <= 1e-10 * np.abs(want).max()

    def test_long_sweep_working_set(self):
        # points go through the plan in chunks, so a 4000-point sweep keeps a
        # working set of a few chunks next to its result
        import tracemalloc
        sys = _rotated_product(ButterworthConfig(), 1e-9)
        freqs = np.geomspace(1e4, 1e7, 4000)
        frequency_response(sys, freqs[:10])
        tracemalloc.start()
        try:
            resp = frequency_response(sys, freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resp.ok.all()
        assert peak < 8 * resp.values.nbytes

    def test_chunking_invariance(self, monkeypatch):
        # the chunk width bounds the working set and nothing else: only the
        # blocking of the products moves, which moved the values by at most
        # 1.3e-11 of a point's largest entry (the 108-state composite solved
        # one point at a time), 0 on the Butterworth product, and 4e-25 on
        # the impedance, whose stiff points go to the equilibrated LU; the
        # width is set so that a chunk holds 1, 7 or 128 points
        dense_points = []
        dense_solver = core._ResolventPlan._dense_solver
        monkeypatch.setattr(core._ResolventPlan, "_dense_solver",
                            lambda plan, s: dense_points.append(s) or dense_solver(plan, s))
        cfg = ButterworthConfig()
        comp = waveguide_compose(WaveguideConfig(area=uniform_tube(), n=24, k=12,
                                                 sample_points=80))
        cases = [(_rotated_product(cfg, 1e-9), np.geomspace(1e4, 1e7, 1000)),
                 (comp.composite_impedance, np.geomspace(30.0, 1e4, 300)),
                 (butterworth_compose(cfg).impedance, np.geomspace(1e4, 1e7, 400))]
        for sys, freqs in cases:
            runs = []
            for points in (1, 7, 128):
                monkeypatch.setattr(core, "_PLAN_WIDTH", points * (sys.B.shape[1] + 2))
                runs.append(frequency_response(sys, freqs))
            want = runs[-1]
            for got in runs[:-1]:
                assert np.array_equal(got.ok, want.ok)
                gap = np.abs(got.values - want.values).max(axis=(1, 2))
                assert np.all(gap <= 1e-10 * np.abs(want.values).max(axis=(1, 2)))
        assert dense_points  # the impedance's stiff points took the fallback

    @staticmethod
    def _assert_plan_reads_columns(A, B, C, D, points, I, J):
        """The plan of (A, B[:, J], C[I], D[I, J]) against the square plan's
        values[:, I][:, :, J].  A column's rounding in a product can depend
        on its offset, and the rectangular plan puts the inputs and the
        probes at other offsets (and, for a long sweep, other points in a
        chunk), so values and sigma agree to roundoff (sigma read at most
        5.6e-16 apart on 400 random draws, bit-identical at most points);
        ok and the row scale do not depend on B."""
        values, ok, sigma, scale = core._ResolventPlan(A, B, C, D).evaluate(points)
        got = core._ResolventPlan(A, B[:, J], C[I], D[np.ix_(I, J)]).evaluate(points)
        want = values[:, I][:, :, J]
        assert got[0].shape == want.shape
        assert np.array_equal(got[1], ok) and np.array_equal(got[3], scale)
        assert np.allclose(got[2], sigma, rtol=4e-15, atol=0.0)
        gap = np.abs(got[0] - want).max(axis=(1, 2), initial=0.0)
        assert np.all(gap[ok] <= 1e-14 * np.abs(values[ok]).max(axis=(1, 2)))
        assert np.isnan(got[0][~ok]).all()

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8), m=st.integers(1, 3),
           points=st.sampled_from([30, 300]))
    def test_column_subsets_match_the_square_plan(self, seed, n, m, points):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        # stable with abscissa -0.5: the imaginary axis stays clear of the spectrum
        A -= (np.linalg.eigvals(A).real.max(initial=0.0) + 0.5) * np.eye(n)
        B, C = rng.standard_normal((n, m)), rng.standard_normal((m, n))
        D = rng.standard_normal((m, m))
        I = rng.permutation(m)[:rng.integers(1, m + 1)]
        J = rng.permutation(m)[:rng.integers(1, m + 1)]
        s = np.concatenate([2j * np.pi * np.geomspace(1e-3, 1e2, points), five_points(rng)])
        self._assert_plan_reads_columns(A, B, C, D, s, I, J)

    @pytest.mark.parametrize("epsilon", [1e-9, 1e-12])
    def test_column_subsets_of_the_stiff_product(self, monkeypatch, epsilon):
        # the fast mode at -1/(C2 eps); at 1e-12 every point of the sweep
        # takes the equilibrated-LU fallback, in both plans alike
        dense_points = []
        dense_solver = core._ResolventPlan._dense_solver
        monkeypatch.setattr(core._ResolventPlan, "_dense_solver",
                            lambda plan, s: dense_points.append(s) or dense_solver(plan, s))
        sys = _rotated_product(ButterworthConfig(), epsilon)
        s = 2j * np.pi * np.geomspace(1e4, 1e7, 400)
        for I, J in (([0, 1], [0]), ([1], [1]), ([1, 0], [1, 0])):
            dense_points.clear()
            self._assert_plan_reads_columns(sys.A, sys.B, sys.C, sys.D, s, I, J)
            assert len(dense_points) == (2 * s.size if epsilon == 1e-12 else 0)


class TestDiscreteTransfer:
    def test_origin_is_the_feedthrough(self, rng):
        phi = internal_cayley(random_system(rng, 4, 1, 1), 2.0)
        for z in (0.0, 1e-320):
            assert np.array_equal(discrete_transfer_function(phi, z), phi.Dd.astype(complex))

    def test_cayley_pair_matches_dense_formula(self, rng):
        sys = random_system(rng, 6, 1, 1)
        sys = sys.replace(A=sys.A - 4.0 * np.eye(6))
        phi = internal_cayley(sys, 3.0)
        for z in 0.9 * five_points(rng) / 3.0:
            got = discrete_transfer_function(phi, z)
            X = np.linalg.solve(np.eye(6) - z * phi.Ad, phi.Bd)
            want = phi.Dd + z * (phi.Cd @ X)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            Gc = transfer_dense(sys, 3.0 * (1 - z) / (1 + z))
            assert np.abs(got - Gc).max() <= 1e-9 * np.abs(Gc).max()

    def test_non_finite_point_is_a_usage_error(self, rng):
        phi = internal_cayley(random_system(rng, 3, 1, 1), 2.0)
        for z in (np.nan, complex(0.0, np.nan), complex(np.inf, np.nan)):
            with pytest.raises(DimensionMismatch, match="z=.*nan.* is not a number"):
                discrete_transfer_function(phi, z)

    def test_infinite_point_is_the_limit_at_zero_inverse(self, rng):
        # D(z) = Dd + Cd (z^-1 I - Ad)^-1 Bd tends to Dd - Cd Ad^-1 Bd
        phi = internal_cayley(random_system(rng, 3, 1, 1), 2.0)
        want = phi.Dd - phi.Cd @ np.linalg.solve(phi.Ad, phi.Bd)
        for z in (np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, np.inf)):
            got = discrete_transfer_function(phi, z)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_singular_point_rejected(self):
        phi = DiscreteSystem(np.diag([0.5, 2.0]), np.ones((2, 1)), np.ones((1, 2)),
                             np.zeros((1, 1)), sigma=1.0, split=(1, 0))
        with pytest.raises(NearSpectrum, match="I - z Ad"):
            discrete_transfer_function(phi, 0.5)


class TestAlgebra:
    def test_scalar_identity_and_zero(self, rng):
        sys = random_system(rng, 3, 1, 1)
        same = scalar_multiple(1.0, sys)
        assert np.array_equal(same.C, sys.C) and np.array_equal(same.D, sys.D)
        zero = scalar_multiple(0.0, sys)
        assert np.abs(transfer_function(zero, 1.3 + 0.4j)).max() == 0.0

    def test_scalar_sampling(self, rng):
        sys = random_system(rng, 4, 1, 1)
        for s in five_points(rng):
            lhs = transfer_function(scalar_multiple(2.0, sys), s)
            rhs = 2.0 * transfer_dense(sys, s)
            assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_parallel_identity(self, rng):
        sys = random_system(rng, 3, 1, 1)
        zero = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                                np.zeros((2, 2)), split=(1, 1))
        for s in five_points(rng):
            lhs = transfer_function(parallel_sum(sys, zero), s)
            assert np.abs(lhs - transfer_dense(sys, s)).max() < 1e-12

    def test_parallel_of_feedthroughs(self):
        d1, d2 = np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        mk = lambda d: StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)),
                                        np.zeros((2, 0)), d, split=(1, 1))
        out = parallel_sum(mk(d1), mk(d2))
        assert out.n == 0 and np.array_equal(out.D, d1 + d2)

    def test_parallel_sampling(self, rng):
        p = random_system(rng, 3, 1, 1)
        q = random_system(rng, 5, 1, 1)
        for s in five_points(rng):
            lhs = transfer_function(parallel_sum(p, q), s)
            rhs = transfer_dense(p, s) + transfer_dense(q, s)
            assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())

    def test_cascade_identity(self, rng):
        sys = random_system(rng, 3, 1, 1)
        one = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               np.eye(2), split=(1, 1))
        for s in five_points(rng):
            lhs = transfer_function(cascade_product(sys, one), s)
            assert np.abs(lhs - transfer_dense(sys, s)).max() < 1e-12

    def test_cascade_of_feedthroughs(self, rng):
        d1 = rng.standard_normal((2, 2))
        d2 = rng.standard_normal((2, 2))
        mk = lambda d: StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)),
                                        np.zeros((2, 0)), d, split=(1, 1))
        out = cascade_product(mk(d1), mk(d2))
        assert out.n == 0 and np.allclose(out.D, d1 @ d2, rtol=0, atol=1e-15)

    def test_cascade_sampling(self, rng):
        p = random_system(rng, 4, 1, 1)
        q = random_system(rng, 3, 1, 1)
        for s in five_points(rng):
            lhs = transfer_function(cascade_product(p, q), s)
            rhs = transfer_dense(p, s) @ transfer_dense(q, s)
            assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.tuples(st.integers(0, 6), st.integers(0, 6)),
           split=st.tuples(st.integers(0, 2), st.integers(0, 2)), well_conditioned=st.booleans())
    def test_cascade_matches_block_triangle(self, seed, n, split, well_conditioned):
        if sum(split) == 0:
            split = (1, 0)
        rng = np.random.default_rng(seed)
        p = random_system(rng, n[0], *split, well_conditioned)
        q = random_system(rng, n[1], *split, well_conditioned)
        scale = (1.0 + system_norm(p)) * (1.0 + system_norm(q))
        # the loop matrix is I: nothing to amplify
        assert_same_realisation(cascade_product(p, q), cascade_product_blocks(p, q), 1.0, scale)

    def test_dimension_mismatch(self, rng):
        p = random_system(rng, 2, 1, 1)
        q = random_system(rng, 2, 2, 2)
        with pytest.raises(DimensionMismatch):
            parallel_sum(p, q)
        with pytest.raises(DimensionMismatch):
            cascade_product(p, q)


class TestSimilarityInvariance:
    def test_transfer_invariant(self, rng):
        sys = random_system(rng, 6, 1, 1)
        for _ in range(3):
            T = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
            if np.linalg.cond(T) > 1e3:
                continue
            other = similarity(sys, T)
            for s in five_points(rng):
                Ga, Gb = transfer_function(sys, s), transfer_function(other, s)
                assert np.abs(Ga - Gb).max() <= 1e-8 * (1 + np.abs(Ga).max())

    def test_minimality_invariant(self, rng):
        sys = random_system(rng, 5, 1, 1)
        T = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        assert minimality(sys) == minimality(similarity(sys, T))


class TestMinimality:
    def test_uncontrollable_zero_system(self):
        sys = StateSpaceSystem(np.zeros((1, 1)), np.zeros((1, 2)),
                               np.zeros((2, 1)), np.zeros((2, 2)), split=(1, 1))
        rc, ro, minimal = minimality(sys)
        assert rc == 0 and ro == 0 and not minimal
        feedthrough = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                                       np.eye(1), split=(1, 0))
        assert minimality(feedthrough) == (0, 0, True)

    def test_duplicated_poles_not_minimal(self, rng):
        p = random_system(rng, 3, 1, 1)
        rc, ro, minimal = minimality(p)
        assert minimal
        rc2, ro2, minimal2 = minimality(parallel_sum(p, p))
        assert not minimal2 and rc2 < 6


class TestIoEquivalence:
    def test_similarity_transformed_true(self, rng):
        sys = random_system(rng, 4, 1, 1)
        T = np.eye(4) + 0.25 * rng.standard_normal((4, 4))
        assert io_equivalent(sys, similarity(sys, T), tol=1e-8)

    def test_scaled_false(self, rng):
        sys = random_system(rng, 4, 1, 1)
        assert not io_equivalent(sys, scalar_multiple(2.0, sys), tol=1e-6)

    def test_feedthrough_only_systems(self):
        mk = lambda d: StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 1)),
                                        np.zeros((1, 0)), np.array([[d]]),
                                        split=(1, 0))
        assert io_equivalent(mk(3.0), mk(3.0))
        assert not io_equivalent(mk(3.0), mk(4.0))

    def test_one_spectrum_per_operand(self, rng, monkeypatch):
        # each operand's plan takes one Schur form, and its diagonal also
        # gives the sample points' magnitude range: no second eigensolve
        calls = []
        for module, name in ((np.linalg, "eigvals"), (scipy.linalg, "schur")):
            def counting(a, *args, _original=getattr(module, name), **kwargs):
                calls.append(a.shape)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        p, q = random_system(rng, 4, 1, 1), random_system(rng, 3, 1, 1)
        io_equivalent(p, q)
        assert calls == [(4, 4), (3, 3)]


class TestImmutability:
    def test_matrices_are_read_only(self, rng):
        sys = random_system(rng, 3, 1, 1)
        with pytest.raises(ValueError):
            sys.A[0, 0] = 99.0
        with pytest.raises(Exception):
            sys.A = np.eye(3)  # frozen dataclass

    def test_operations_return_fresh_values(self, rng):
        sys = random_system(rng, 3, 1, 1)
        other = scalar_multiple(2.0, sys)
        assert other is not sys
        assert np.array_equal(sys.C * 2.0, other.C)


class TestDiscreteValidation:
    """DiscreteSystem validates its quadruple exactly like StateSpaceSystem."""

    def test_non_square_generator_rejected(self):
        with pytest.raises(DimensionMismatch, match="Ad"):
            DiscreteSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)),
                           np.zeros((1, 1)), sigma=1.0)

    def test_zero_ports_rejected(self):
        with pytest.raises(DimensionMismatch, match="Dd"):
            DiscreteSystem(np.zeros((1, 1)), np.zeros((1, 0)), np.zeros((0, 1)),
                           np.zeros((0, 0)), sigma=1.0)

    def test_non_square_feedthrough_rejected(self):
        with pytest.raises(DimensionMismatch, match="Dd"):
            DiscreteSystem(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)),
                           np.zeros((2, 3)), sigma=1.0)

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(DimensionMismatch, match="sigma"):
            DiscreteSystem(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                           np.zeros((1, 1)), sigma=0.0)

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(DimensionMismatch, match="sigma must be positive and finite"):
            DiscreteSystem(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                           np.zeros((1, 1)), sigma=sigma)

    @pytest.mark.parametrize("sigma", [True, "88200", None])
    def test_non_real_sigma_rejected(self, sigma):
        # True and "88200" were read as 1.0 and 88200.0
        with pytest.raises(DimensionMismatch, match="^sigma must be a real number"):
            DiscreteSystem(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                           np.zeros((1, 1)), sigma=sigma)


class TestJsonFormat:
    def test_round_trip_continuous(self, rng):
        sys = random_system(rng, 3, 1, 1)
        back = system_from_json(json.loads(json.dumps(system_to_json(sys))))
        assert isinstance(back, StateSpaceSystem)
        for a, b in ((sys.A, back.A), (sys.B, back.B), (sys.C, back.C), (sys.D, back.D)):
            assert np.array_equal(a, b)
        assert back.split == sys.split

    def test_round_trip_discrete(self):
        phi = DiscreteSystem(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]),
                             np.array([[0.0]]), sigma=100.0, split=(1, 0))
        back = system_from_json(system_to_json(phi))
        assert isinstance(back, DiscreteSystem) and back.sigma == 100.0

    def test_round_trip_without_states(self):
        # n = 0 writes [] for A and B and m empty rows for C
        sys = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               np.eye(2), split=(1, 1))
        obj = json.loads(json.dumps(system_to_json(sys)))
        assert obj["A"] == [] and obj["B"] == [] and obj["C"] == [[], []]
        back = system_from_json(obj)
        assert back.n == 0 and back.split == (1, 1) and back.B.shape == (0, 2)
        assert np.array_equal(back.D, sys.D)

    @pytest.mark.parametrize("key, value", [
        ("n", 2.5), ("n", "2"), ("n", -1), ("n", None), ("m1", True), ("m2", 1.0),
        ("B", [["1", 0.0], [0.0, 1.0]]), ("D", [[0.0, False], [0.0, 0.0]]),
        ("A", [0.0, 0.0, 0.0, 0.0]), ("A", []), ("A", [[0.0, 1.0], [-1.0]]),
        ("C", [[1.0, 0.0]]), ("C", "[[1, 0], [0, 1]]"), ("sigma", "1"), ("sigma", True)])
    def test_malformed_field_named(self, key, value):
        obj = {"n": 2, "m1": 1, "m2": 1, "A": [[0.0, 1.0], [-1.0, 0.0]],
               "B": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
               "D": [[0.0, 0.0], [0.0, 0.0]], key: value}
        with pytest.raises(DimensionMismatch, match=f"'{key}'"):
            system_from_json(obj)

    @pytest.mark.parametrize("obj", [[], "system", None])
    def test_non_object_rejected(self, obj):
        with pytest.raises(DimensionMismatch, match="must be an object"):
            system_from_json(obj)

    def test_bad_field_named(self):
        obj = system_to_json(StateSpaceSystem(np.zeros((1, 1)), np.ones((1, 1)),
                                              np.ones((1, 1)), np.zeros((1, 1)),
                                              split=(1, 0)))
        obj["B"] = [[1.0], [2.0]]
        with pytest.raises(DimensionMismatch, match="'B'"):
            system_from_json(obj)
        obj.pop("B")
        with pytest.raises(DimensionMismatch, match="'B'"):
            system_from_json(obj)


class TestQuote:
    """Usage errors quote an outside value through ``core._quote``: at most
    60 characters of it and "…", so a message stays short whatever the
    value's size."""

    @pytest.mark.parametrize("value, text", [
        (1.5, "1.5"), ("a" * 60, repr("a" * 60)[:60] + "…"), ("a" * 58, repr("a" * 58)),
        (10**400, "1" + "0" * 59 + "…"),
        # past sys.get_int_max_str_digits() repr raises ValueError
        (10**5000, "<int of 16610 bits>")],
        ids=["float", "str-over", "str-at", "int", "long-int"])
    def test_cut_at_the_limit(self, value, text):
        assert core._quote(value) == text

    def test_render(self):
        assert core._quote([None, True], json.dumps) == "[null, true]"

    @pytest.mark.parametrize("values", [{"sigma": "1" * 1000}, {"sigma": 10**400},
                                        {"sigma": 10**5000}, {"sigma": [1.0] * 1000}],
                             ids=["str", "int", "long-int", "list"])
    def test_require_positive(self, values):
        with pytest.raises(DimensionMismatch, match="^sigma must be") as info:
            core._require_positive(DimensionMismatch, **values)
        assert len(str(info.value)) <= 200

    @pytest.mark.parametrize("key, value", [("n", "2" * 1000), ("n", 10**400),
                                            ("sigma", "9" * 1000), ("sigma", [0.5] * 1000)],
                             ids=["n-str", "n-int", "sigma-str", "sigma-list"])
    def test_system_from_json(self, key, value):
        obj = {"n": 1, "m1": 1, "m2": 0, "A": [[0.0]], "B": [[1.0]], "C": [[1.0]],
               "D": [[1.0]], key: value}
        with pytest.raises(DimensionMismatch, match=f"^field '{key}'|^field 'A'") as info:
            system_from_json(obj)
        assert len(str(info.value)) <= 200
