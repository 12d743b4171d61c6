"""Webster FEM assembly: basis cardinality, matrix structure, analytic
resonances of the uniform tube, and the geometry CSV format."""

import io

import numpy as np
import pytest
from scipy.linalg import eigh

from passivenet.core import transfer_function
from passivenet.errors import (
    BadGeometry,
    MonotonicityError,
    OutOfElement,
    ParseError,
)
from passivenet.passivity import CONSERVATIVE, impedance_certificate
from passivenet.websterfem import (
    BANDWIDTH,
    AreaFunction,
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
