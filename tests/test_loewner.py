"""Special functions against the quadrature oracle, piston impedance limits,
and the Loewner interpolation / realification / SVD-reduction chain."""

import warnings

import numpy as np
import pytest

from oracles import bessel_j1_quadrature, struve_h1_quadrature

from passivenet.errors import (
    CoincidentPoints,
    DimensionMismatch,
    NearSpectrum,
    OutOfEnvelope,
    PairingViolation,
    RankDeficient,
    ZeroFrequency,
)
from passivenet.loewner import (
    DescriptorInterpolant,
    InterpolationScheme,
    PistonParams,
    bessel_j1,
    default_scheme,
    loewner_matrices,
    piston_impedance,
    realify,
    reduce_order,
    sample_function,
    struve_h1,
)
from passivenet.core import transfer_function

PISTON = PistonParams(a=np.sqrt(1e-4 / np.pi), rho=1.225, c=343.0)


def sample_disk(rng, lo, hi, k):
    r = rng.uniform(lo, hi, k)
    th = rng.uniform(-np.pi, np.pi, k)
    return r * np.exp(1j * th)


class TestSpecialFunctions:
    def test_zero_values(self):
        assert bessel_j1(0.0) == 0.0
        assert struve_h1(0.0) == 0.0

    def test_j1_at_one_vs_quadrature(self):
        got = bessel_j1(1.0)
        want = bessel_j1_quadrature(1.0)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_h1_imaginary_argument_vs_quadrature(self):
        got = struve_h1(10.0j)
        want = struve_h1_quadrature(10.0j)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_small_arguments_batch(self, rng):
        for z in sample_disk(rng, 0.05, 16.0, 25):
            jw, hw = bessel_j1_quadrature(z), struve_h1_quadrature(z)
            assert abs(bessel_j1(z) - jw) <= 1e-10 * max(abs(jw), 1e-30)
            assert abs(struve_h1(z) - hw) <= 1e-10 * max(abs(hw), 1e-30)

    def test_large_arguments_batch(self, rng):
        for z in sample_disk(rng, 16.0, 80.0, 25):
            jw, hw = bessel_j1_quadrature(z), struve_h1_quadrature(z)
            assert abs(bessel_j1(z) - jw) <= 1e-8 * max(abs(jw), 1e-30)
            assert abs(struve_h1(z) - hw) <= 1e-8 * max(abs(hw), 1e-30)

    def test_parity(self, rng):
        for z in sample_disk(rng, 1.0, 60.0, 6):
            assert bessel_j1(-z) == pytest.approx(-bessel_j1(z), rel=1e-12)
            assert struve_h1(-z) == pytest.approx(struve_h1(z), rel=1e-12)

    def test_envelope(self):
        with pytest.raises(OutOfEnvelope):
            bessel_j1(250.0)


class TestPistonImpedance:
    def test_small_s_expansion(self):
        # two-term series oracle: Z ~ Z0 (8 a s / (3 pi c) - (a s / c)^2 / 2)
        a, c, Z0 = PISTON.a, PISTON.c, PISTON.Z0
        for s in (1.0, 10.0, 50.0):
            want = Z0 * (8 * a * s / (3 * np.pi * c) - 0.5 * (a * s / c) ** 2)
            got = piston_impedance(s, PISTON)
            assert abs(got - want) <= 1e-6 * abs(want)

    def test_high_frequency_resistive_limit(self):
        s = 100.0 * PISTON.c / PISTON.a
        got = piston_impedance(s, PISTON)
        assert abs(got - PISTON.Z0) <= 0.01 * PISTON.Z0

    def test_conjugate_symmetry(self):
        zp = piston_impedance(1.0 + 2.0j, PISTON)
        zm = piston_impedance(1.0 - 2.0j, PISTON)
        assert abs(zp - np.conj(zm)) <= 1e-12 * abs(zp)

    def test_zero_rejected(self):
        with pytest.raises(ZeroFrequency):
            piston_impedance(0.0, PISTON)

    @pytest.mark.parametrize("name", ["a", "rho", "c"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
    def test_parameters_positive_and_finite(self, name, value):
        # a = inf constructed with Z0 = 0 and gave Z = nan + nan j without a word
        params = {"a": PISTON.a, "rho": PISTON.rho, "c": PISTON.c, name: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=f"^{name} must be positive and finite"):
                PistonParams(**params)

    def test_positive_real_part_on_right_half_plane(self, rng):
        # passivity of the radiation load on a 100-point grid
        for _ in range(100):
            s = complex(rng.uniform(1.0, 3e5), rng.uniform(-3e5, 3e5))
            assert piston_impedance(s, PISTON).real >= 0.0


def small_scheme():
    mu = np.array([0.5 + 1.0j, 0.5 - 1.0j])
    lam = np.array([-0.2 + 2.0j, -0.2 - 2.0j])
    return InterpolationScheme(mu, lam)


class TestSchemeValidation:
    def test_requires_conjugate_pairs(self):
        with pytest.raises(DimensionMismatch):
            InterpolationScheme(np.array([1j, 2j]), np.array([3j, -3j]))

    def test_rejects_real_points(self):
        with pytest.raises(DimensionMismatch):
            InterpolationScheme(np.array([1.0, 1.0]), np.array([1j, -1j]))

    def test_rejects_overlap(self):
        pts = np.array([1j + 1, 1 - 1j])
        with pytest.raises(CoincidentPoints):
            InterpolationScheme(pts, pts)


class TestLoewnerMatrices:
    def test_constant_data(self):
        sch = small_scheme()
        interp = loewner_matrices(sch, [3.0, 3.0], [3.0, 3.0])
        assert np.abs(interp.L_mat).max() == 0.0
        assert np.allclose(interp.M_mat, 3.0, rtol=0, atol=1e-14)

    def test_single_pole_interpolation(self):
        f = lambda s: 1.0 / (s + 1.0)
        sch = small_scheme()
        vm, vl = sample_function(sch, f)
        interp = loewner_matrices(sch, vm, vl)
        for s in np.concatenate([sch.mu, sch.lam]):
            assert abs(interp.transfer(s) - f(s)) <= 1e-10 * abs(f(s))

    def test_improper_function_still_interpolates(self):
        f = lambda s: s
        sch = small_scheme()
        vm, vl = sample_function(sch, f)
        interp = loewner_matrices(sch, vm, vl)
        for s in np.concatenate([sch.mu, sch.lam]):
            assert abs(interp.transfer(s) - f(s)) <= 1e-10 * max(abs(f(s)), 1.0)


class TestRealify:
    def test_already_real_passthrough(self):
        sch = small_scheme()
        vm, vl = sample_function(sch, lambda s: 1.0 / (s + 1.0))
        real = realify(loewner_matrices(sch, vm, vl))
        assert realify(real) is real

    def test_transfer_preserved(self, rng):
        f = lambda s: 1.0 / (s + 1.0) + 2.0 / (s + 3.0)
        sch = InterpolationScheme(np.array([1j, -1j, 0.5 + 2j, 0.5 - 2j]),
                                  np.array([-0.3 + 0.7j, -0.3 - 0.7j, 3j, -3j]))
        vm, vl = sample_function(sch, f)
        cplx = loewner_matrices(sch, vm, vl)
        real = realify(cplx)
        assert real.L_mat.dtype == float
        for s in (0.4 + 1.1j, 2.0 + 0.5j, 1.0j, -0.1 + 2.2j, 0.8 - 0.6j):
            assert abs(real.transfer(s) - cplx.transfer(s)) <= 1e-10 * max(abs(cplx.transfer(s)), 1e-12)

    def test_corrupted_sample_rejected(self):
        sch = small_scheme()
        vm, vl = sample_function(sch, lambda s: 1.0 / (s + 1.0))
        vm[1] = vm[1] + 0.1j  # breaks conjugate symmetry
        with pytest.raises(PairingViolation):
            realify(loewner_matrices(sch, vm, vl))


class TestDescriptorTransfer:
    def test_exactly_singular_pencil_is_near_spectrum(self):
        # sL - M = diag(0, -1) at s = 1
        interp = DescriptorInterpolant(np.eye(2), np.diag([1.0, 2.0]), np.ones(2),
                                       np.ones(2), is_real=True)
        with pytest.raises(NearSpectrum, match="singular"):
            interp.transfer(1.0)
        assert interp.transfer(3.0) == pytest.approx(-(1.0 / 2.0 + 1.0 / 1.0))


class TestReduceOrder:
    def test_full_order_matches_descriptor(self):
        # degree-4 data so the order-4 Loewner matrix has full numerical rank
        f = lambda s: (1.0 / (s + 1.0) + 2.0 / (s + 3.0)
                       + 3.0 / (s + 0.5) + 0.7 / (s + 2.0))
        sch = InterpolationScheme(np.array([1j, -1j, 0.5 + 2j, 0.5 - 2j]),
                                  np.array([-0.3 + 0.7j, -0.3 - 0.7j, 3j, -3j]))
        vm, vl = sample_function(sch, f)
        interp = realify(loewner_matrices(sch, vm, vl))
        red = reduce_order(interp, 4)
        for s in (0.4 + 1.1j, 2.0 + 0.5j, 1.5j, 1.0 + 0.0j, -0.2 + 1.8j):
            got = transfer_function(red.reduced, s)[0, 0]
            assert abs(got - interp.transfer(s)) <= 1e-8 * max(abs(interp.transfer(s)), 1e-12)

    def test_rank_one_data_exact_at_order_one(self):
        gamma = 2.5
        f = lambda s: gamma / (s + 1.0)
        sch = InterpolationScheme(np.array([1j, -1j, 2j, -2j]),
                                  np.array([0.5 + 1j, 0.5 - 1j, 3j, -3j]))
        vm, vl = sample_function(sch, f)
        red = reduce_order(realify(loewner_matrices(sch, vm, vl)), 1)
        sys = red.reduced
        assert sys.n == 1
        for s in (1.3 + 0.4j, 2.0j):
            got = transfer_function(sys, s)[0, 0]
            assert abs(got - f(s)) <= 1e-8 * abs(f(s))

    def test_piston_reduction_quality(self):
        # order-16 model of 300 samples reproduces the band 0 - 20 kHz
        sch = default_scheme(PISTON, m=150, seed=2024)
        vm, vl = sample_function(sch, lambda s: piston_impedance(s, PISTON))
        red = reduce_order(realify(loewner_matrices(sch, vm, vl)), 16)
        grid = np.linspace(20.0, 20000.0, 120)
        worst = 0.0
        for f in grid:
            s = 2j * np.pi * f
            want = piston_impedance(s, PISTON)
            got = transfer_function(red.reduced, s)[0, 0]
            worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-4
        assert red.singular_values is not None and red.singular_values.size == 150

    def test_rank_deficient_rejected(self):
        sch = small_scheme()
        vm, vl = sample_function(sch, lambda s: np.conj(s) * 0 + 1.0)  # constant
        interp = realify(loewner_matrices(sch, vm, vl))
        with pytest.raises(RankDeficient):
            reduce_order(interp, 2)  # Loewner matrix of constant data is zero


class TestDefaultScheme:
    def test_invariants_and_determinism(self):
        a = default_scheme(PISTON, m=20, seed=7)
        b = default_scheme(PISTON, m=20, seed=7)
        assert np.array_equal(a.mu, b.mu) and np.array_equal(a.lam, b.lam)
        c = default_scheme(PISTON, m=20, seed=8)
        assert not np.array_equal(a.mu, c.mu)

    def test_scheme_json_round_trip(self):
        sch = default_scheme(PISTON, m=12, seed=5)
        back = InterpolationScheme.from_json(sch.to_json())
        assert np.array_equal(back.mu, sch.mu)
        assert np.array_equal(back.lam, sch.lam)

    def test_centimetre_aperture_pencil_invertible(self):
        p = PistonParams(a=0.01, rho=1.225, c=343.0)
        sch = default_scheme(p, m=60, seed=3)
        vm, vl = sample_function(sch, lambda s: piston_impedance(s, p))
        interp = realify(loewner_matrices(sch, vm, vl))
        sv = np.linalg.svd(interp.L_mat, compute_uv=False)
        assert sv[-1] > 0.0
        # the leading block the reduction actually uses is comfortably regular
        reduce_order(interp, 10, condition_limit=1e12)
