"""Webster FEM assembly: basis cardinality, matrix structure, analytic
resonances of the uniform tube, the per-element assembly oracle, the
mpmath top frequency, and the geometry CSV format."""

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from oracles import assemble_loop, tube_top_mp
from passivenet import websterfem
from passivenet.core import transfer_function
from passivenet.errors import (
    BadGeometry,
    DimensionMismatch,
    MonotonicityError,
    OutOfElement,
    ParseError,
)
from passivenet.passivity import CONSERVATIVE, impedance_certificate
from passivenet.pipelines import two_segment_tube, uniform_tube
from passivenet.websterfem import (
    BANDWIDTH,
    AreaFunction,
    _band_storage,
    assemble,
    hermite_basis_eval,
    load_area_csv,
    save_area_csv,
)

L, C_SOUND, RHO = 0.175, 343.0, 1.225


def uniform(area=1e-4):
    return AreaFunction(np.array([0.0, L]), np.array([area, area]))


class TestHermiteBasis:
    def test_cardinal_values(self):
        el = (1.0, 3.0)
        v, d = hermite_basis_eval(el, 1, 1.0)
        assert v == 1.0 and d == 0.0
        v, _ = hermite_basis_eval(el, 1, 3.0)
        assert v == 0.0
        v, _ = hermite_basis_eval(el, 2, 3.0)
        assert v == 1.0

    def test_derivative_dof(self):
        el = (1.0, 3.0)
        v, d = hermite_basis_eval(el, 3, 1.0)
        assert v == 0.0 and d == pytest.approx(1.0)
        v, d = hermite_basis_eval(el, 4, 3.0)
        assert v == 0.0 and d == pytest.approx(1.0)

    def test_partition_of_unity(self):
        el = (0.5, 0.9)
        for x in np.linspace(0.5, 0.9, 5):
            v1, d1 = hermite_basis_eval(el, 1, x)
            v2, d2 = hermite_basis_eval(el, 2, x)
            assert v1 + v2 == pytest.approx(1.0)
            assert d1 + d2 == pytest.approx(0.0, abs=1e-12)

    def test_out_of_element(self):
        with pytest.raises(OutOfElement):
            hermite_basis_eval((0.0, 1.0), 1, 1.5)

    @pytest.mark.parametrize("element, kind, x, error", [
        ((0.0, 1.0), 1, np.nan, OutOfElement),
        ((0.0, 1.0), 3, np.inf, OutOfElement),
        ((0.0, 1.0), 4, -np.inf, OutOfElement),
        ((np.nan, 1.0), 1, 0.5, BadGeometry),
        ((0.0, np.inf), 2, 0.5, BadGeometry),
        ((-np.inf, 0.0), 4, -0.5, BadGeometry),
        ((0.0, 1.0), 2, [0.25, np.nan], OutOfElement),
        (([0.0, 1.0], [1.0, np.nan]), 1, [0.5, 1.5], BadGeometry),
        (([0.0, 1.0], [1.0, 1.0]), 1, [0.5, 1.5], BadGeometry),
        (([0.0, 1.0], [1.0, 2.0]), 3, [0.5, 2.5], OutOfElement),
    ])
    def test_non_finite_or_outside_rejected(self, element, kind, x, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                hermite_basis_eval(element, kind, x)

    def test_scalar_call_matches_array_call_bitwise(self):
        rng = np.random.default_rng(5)
        xl = rng.uniform(-2.0, 2.0, (6, 1))
        xr = xl + rng.uniform(1e-3, 3.0, (6, 1))
        x = xl + (xr - xl) * rng.uniform(0.0, 1.0, (6, 7))
        for kind in (1, 2, 3, 4):
            vals, ders = hermite_basis_eval((xl, xr), kind, x)
            assert vals.shape == ders.shape == x.shape
            for e, q in np.ndindex(x.shape):
                v, d = hermite_basis_eval((float(xl[e, 0]), float(xr[e, 0])), kind,
                                          float(x[e, q]))
                assert np.float64(v).tobytes() == vals[e, q].tobytes()
                assert np.float64(d).tobytes() == ders[e, q].tobytes()


class TestAssembly:
    def test_constant_in_kernel(self):
        model = assemble(uniform(), 4, C_SOUND, RHO)
        const = np.zeros(8)
        const[:5] = 1.0  # value DOFs 0..n, derivative DOFs zero
        assert np.abs(model.stiffness @ const).max() <= 1e-13 * np.abs(model.stiffness).max()

    def test_matrix_structure(self):
        model = assemble(uniform(), 8, C_SOUND, RHO)
        M, K = model.mass, model.stiffness
        assert np.abs(M - M.T).max() <= 1e-13 * np.abs(M).max()
        assert np.abs(K - K.T).max() <= 1e-13 * np.abs(K).max()
        assert np.linalg.eigvalsh(M).min() > 0
        wk = np.linalg.eigvalsh(K)
        assert wk.min() > -1e-12 * wk.max()
        # exactly one numerically-zero stiffness eigenvalue (the constants)
        assert np.count_nonzero(wk < 1e-10 * wk.max()) == 1

    def test_band_storage_holds_the_interleaved_matrices(self):
        model = assemble(uniform(), 6, C_SOUND, RHO)
        order, k = model.band_order, BANDWIDTH
        assert order.tolist() == [0, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 6]
        for X, band in ((model.mass, model.mass_band), (model.stiffness, model.stiffness_band)):
            P = X[np.ix_(order, order)]
            rows, cols = np.nonzero(P)
            assert np.abs(rows - cols).max() == k
            unpacked = np.zeros_like(P)
            for j in range(P.shape[0]):
                for i in range(max(0, j - k), min(P.shape[0], j + k + 1)):
                    unpacked[i, j] = band[2 * k + i - j, j]
            np.testing.assert_array_equal(unpacked, P)
            assert not band[:k].any()

    def test_terminated_solve_against_the_two_port(self):
        # with the mouth closed by Y the input impedance is
        # Z11 - Z12 Z21 / (Z22 + 1/Y); with Y = 0 it is Z11
        model = assemble(uniform(), 12, C_SOUND, RHO)
        s = 2j * np.pi * np.array([150.0, 2100.0, 7300.0])
        Y = np.array([0.0, 1e-6 + 2e-7j, 3e-7])
        got, ok = model.terminated_impedance(s, Y)
        assert ok.all()
        for p in range(s.size):
            Z = transfer_function(model.system, s[p])
            want = Z[0, 0] if Y[p] == 0 else Z[0, 0] - Z[0, 1] * Z[1, 0] / (Z[1, 1] + 1 / Y[p])
            assert got[p] == pytest.approx(want, rel=1e-10)

    def test_state_dimension_and_split(self):
        model = assemble(uniform(), 6, C_SOUND, RHO)
        assert model.system.n == 24 and model.system.split == (1, 1)

    def test_conservative_certificate(self):
        model = assemble(uniform(), 12, C_SOUND, RHO)
        cert = impedance_certificate(model.system)
        assert cert.verdict == CONSERVATIVE
        assert np.array_equal(model.system.B, model.system.C.T)
        assert np.count_nonzero(model.system.D) == 0

    def test_uniform_tube_resonances(self):
        # Neumann-Neumann duct: f_k = k c / (2 L)
        model = assemble(uniform(), 33, C_SOUND, RHO)
        lam = np.linalg.eigvals(model.system.A)
        freqs = np.sort(lam.imag[lam.imag > 1.0]) / (2 * np.pi)
        for k in range(1, 4):
            target = k * C_SOUND / (2 * L)
            assert abs(freqs[k - 1] - target) <= 1e-3 * target

    def test_convergence_monotone(self):
        target = C_SOUND / (2 * L)
        errs = []
        for n in (8, 16, 32, 64):
            model = assemble(uniform(), n, C_SOUND, RHO)
            w = eigh(model.stiffness, model.mass, eigvals_only=True)
            f1 = np.sqrt(np.clip(w, 0, None)[1]) / (2 * np.pi)
            errs.append(abs(f1 - target) / target)
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_rejects_bad_input(self):
        with pytest.raises(BadGeometry):
            assemble(uniform(), 1, C_SOUND, RHO)
        with pytest.raises(BadGeometry):
            AreaFunction(np.array([0.0, L]), np.array([1e-4, -1e-4]))
        with pytest.raises(MonotonicityError):
            AreaFunction(np.array([0.0, 0.1, 0.05]), np.array([1e-4] * 3))
        for bad in (np.nan, np.inf):
            with pytest.raises(BadGeometry, match="nodes must be finite"):
                AreaFunction(np.array([0.0, 0.1, bad]), np.array([1e-4] * 3))

    @pytest.mark.parametrize("n, c, rho, match", [
        (4.5, C_SOUND, RHO, "n must be an integer"),
        ("8", C_SOUND, RHO, "n must be an integer"),
        (8, np.inf, RHO, "c must be positive and finite"),
        (8, np.nan, RHO, "c must be positive and finite"),
        (8, 0.0, RHO, "c must be positive and finite"),
        (8, C_SOUND, np.inf, "rho must be positive and finite"),
        (8, C_SOUND, np.nan, "rho must be positive and finite"),
        (8, C_SOUND, -1.0, "rho must be positive and finite"),
    ])
    def test_rejects_non_finite_physics_without_warning(self, n, c, rho, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadGeometry, match=match):
                assemble(uniform(), n, c, rho)

    def test_closed_tube_is_flagged_at_its_eigenfrequencies(self):
        # with Y = 0 the pencil is s^2 M + K, singular at the tube's own
        # eigenfrequencies; the near-spectrum gate flags those and passes
        # the points halfway between
        model = assemble(uniform(), 99, C_SOUND, RHO)
        omega = np.sqrt(eigh(model.stiffness, model.mass, eigvals_only=True)[[1, 5, 40, 41]])
        s = 1j * np.append(omega[:3], 0.5 * (omega[2] + omega[3]))
        got, ok = model.terminated_impedance(s, np.zeros(s.size))
        assert ok.tolist() == [False, False, False, True]
        assert np.isnan(got[:3]).all() and np.isfinite(got[3])

    def test_terminated_solve_needs_one_admittance_per_point(self):
        model = assemble(uniform(), 6, C_SOUND, RHO)
        s = 2j * np.pi * np.array([100.0, 200.0, 300.0])
        for count in (2, 5):
            with pytest.raises(DimensionMismatch, match=f"{count} admittance"):
                model.terminated_impedance(s, np.full(count, 1e-6))

    def test_terminated_solve_gates_non_finite_input_without_warning(self):
        model = assemble(uniform(), 6, C_SOUND, RHO)
        s = np.append(2j * np.pi * np.array([100.0, 200.0, 300.0, 400.0]), complex(0, np.inf))
        Y = np.array([1e-6, np.inf, complex(np.nan, 0.0), 1e-6, 1e-6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, ok = model.terminated_impedance(s, Y)
        assert ok.tolist() == [True, False, False, True, False]
        assert np.isnan(got[~ok]).all()
        want, _ = model.terminated_impedance(s[ok], Y[ok])
        np.testing.assert_array_equal(got[ok], want)


def _four_node():
    return AreaFunction(np.array([0.0, 0.03, 0.11, L]),
                        np.array([1.3e-4, 0.7e-4, 2.9e-4, 1.1e-4]))


def _assert_matches_loop(area, n):
    model = assemble(area, n, C_SOUND, RHO)
    M, K = assemble_loop(area, n, C_SOUND)
    np.testing.assert_array_equal(model.stiffness, K)
    order = model.band_order
    np.testing.assert_array_equal(model.stiffness_band,
                                  _band_storage(K[np.ix_(order, order)], BANDWIDTH))
    gap = np.linalg.norm(model.mass - M)
    assert gap <= 4 * np.finfo(float).eps * np.abs(M).max()


class TestAssemblyOracle:
    """The array assembly against ``oracles.assemble_loop``, the per-element
    loop it replaced."""

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 99])
    @pytest.mark.parametrize("shape", [uniform_tube, two_segment_tube, _four_node])
    def test_matches_the_element_loop(self, shape, n):
        _assert_matches_loop(shape(), n)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(gaps=st.lists(st.floats(1e-3, 0.1), min_size=1, max_size=6),
           areas=st.lists(st.floats(1e-5, 1e-3), min_size=7, max_size=7),
           n=st.integers(2, 40))
    def test_matches_the_element_loop_on_drawn_areas(self, gaps, areas, n):
        nodes = np.concatenate([[0.0], np.cumsum(gaps)])
        _assert_matches_loop(AreaFunction(nodes, np.array(areas[:nodes.size])), n)

    def test_one_basis_call_per_kind(self, monkeypatch):
        calls = []
        original = websterfem.hermite_basis_eval

        def counted(element, kind, x):
            calls.append(kind)
            return original(element, kind, x)

        monkeypatch.setattr(websterfem, "hermite_basis_eval", counted)
        assemble(two_segment_tube(), 99, C_SOUND, RHO)
        assert len(calls) <= 4


class TestTubeTop:
    """The tube's top frequency, sqrt(lambda_max(K, M)), which the waveguide
    pipeline reads as max |eigvals(A)| of the realisation, against mpmath."""

    # measured |eigvals| error: 1.4e-11 (uniform), 2.5e-10 (two-segment)
    @pytest.mark.parametrize("shape, bound", [(uniform_tube, 5e-11),
                                              (two_segment_tube, 5e-10)])
    def test_eigvals_of_the_realisation_against_mpmath(self, shape, bound):
        tube = assemble(shape(), 99, C_SOUND, RHO)
        want = tube_top_mp(tube)
        today = float(np.abs(np.linalg.eigvals(tube.system.A)).max())
        assert abs(today - want) <= bound * want
        # the pencil route is right to roundoff: 1.9e-16 and 0 measured
        pencil = float(np.sqrt(eigh(tube.stiffness, tube.mass, eigvals_only=True)[-1]))
        assert abs(pencil - want) <= 4 * np.finfo(float).eps * want


class TestAreaCsv:
    def test_two_line_uniform(self):
        text = "chi_m,area_m2\n0,1e-4\n0.175,1e-4\n"
        area = load_area_csv(io.StringIO(text))
        assert area.length == pytest.approx(0.175)
        assert np.all(area.areas == 1e-4)

    def test_comments_ignored(self):
        text = "# geometry\nchi_m,area_m2\n0,1e-4\n# mid\n0.175,2e-4\n"
        area = load_area_csv(io.StringIO(text))
        assert area.areas[-1] == 2e-4

    def test_parse_error_line_number(self):
        text = "chi_m,area_m2\n0,1e-4\n0.1=oops\n"
        with pytest.raises(ParseError, match="line 3"):
            load_area_csv(io.StringIO(text))

    def test_monotonicity_error(self):
        text = "chi_m,area_m2\n0,1e-4\n0.2,1e-4\n0.1,1e-4\n"
        with pytest.raises(MonotonicityError):
            load_area_csv(io.StringIO(text))

    def test_round_trip_identical(self):
        area = AreaFunction(np.array([0.0, 0.03, 0.175]),
                            np.array([1.3e-4, 0.7e-4, 2.9e-4]))
        buf = io.StringIO()
        save_area_csv(buf, area)
        back = load_area_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.nodes, area.nodes)
        assert np.array_equal(back.areas, area.areas)
