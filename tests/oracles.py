"""Independent reference computations used as test oracles.

Everything here deliberately avoids the code paths under test: transfer
functions by explicit dense inversion, special functions by adaptive
quadrature of their integral representations, ladder impedances by ABCD
two-port chains, the ladder's impedance and the pi section's regularised
scattering form in closed form, star products by solving the coupled feedthrough
equations (and their realisations by the component formulas), cascades by
the block triangle, second-order transfers by the quadratic pencil, the
terminated waveguide by a dense (or mpmath) solve of its pencil, time stepping one
sample at a time, a periodic steady state harmonic by harmonic from the
eigendecomposition, FEM assembly one element, basis pair and quadrature point
at a time, the tube's top frequency by mpmath Sturm-count bisection.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from passivenet.core import StateSpaceSystem
from passivenet.errors import BadGeometry, DimensionMismatch
from passivenet.websterfem import BANDWIDTH, hermite_basis_eval


def transfer_dense(sys, s: complex) -> np.ndarray:
    """G(s) by explicit matrix inverse (never used by the library)."""
    if sys.n == 0:
        return sys.D.astype(complex)
    return sys.D + sys.C @ np.linalg.inv(s * np.eye(sys.n) - sys.A) @ sys.B


def transfer_equilibrated(A, B, C, D, s: complex) -> np.ndarray:
    """D + C (sI - A)^-1 B by a dense solve of the row-equilibrated system,
    which keeps stiff (badly row-scaled) matrices accurate."""
    M = s * np.eye(A.shape[0]) - A
    r = np.abs(M).max(axis=1)
    return D + C @ np.linalg.solve(M / r[:, None], B / r[:, None])


def bessel_j1_quadrature(z: complex) -> complex:
    """J1 via (1/pi) integral_0^pi cos(theta - z sin theta) d theta."""
    z = complex(z)

    def re(th):
        return np.cos(th - z.real * np.sin(th)) * np.cosh(z.imag * np.sin(th))

    def im(th):
        return np.sin(th - z.real * np.sin(th)) * np.sinh(z.imag * np.sin(th))

    vr, _ = quad(re, 0.0, np.pi, limit=400)
    vi, _ = quad(im, 0.0, np.pi, limit=400)
    return (vr + 1j * vi) / np.pi


def struve_h1_quadrature(z: complex) -> complex:
    """H1 via (2 z / pi) integral_0^{pi/2} sin(z cos t) sin^2 t dt."""
    z = complex(z)

    def part(t, which):
        v = np.sin(z * np.cos(t)) * np.sin(t) ** 2
        return v.real if which == 0 else v.imag

    vr, _ = quad(part, 0.0, np.pi / 2, args=(0,), limit=400)
    vi, _ = quad(part, 0.0, np.pi / 2, args=(1,), limit=400)
    return (2.0 * z / np.pi) * (vr + 1j * vi)


# ---------------------------------------------------------------------------
# ABCD two-port chains (shunt-C / series-L ladders)


def _shunt(s, c):
    return np.array([[1.0, 0.0], [s * c, 1.0]], dtype=complex)


def _series(s, l):
    return np.array([[1.0, s * l], [0.0, 1.0]], dtype=complex)


def pi_abcd(s: complex, c1: float, l1: float, c2: float) -> np.ndarray:
    return _shunt(s, c1) @ _series(s, l1) @ _shunt(s, c2)


def ladder5_abcd(s: complex, c1: float, l1: float, c3: float) -> np.ndarray:
    return (_shunt(s, c1) @ _series(s, l1) @ _shunt(s, c3)
            @ _series(s, l1) @ _shunt(s, c1))


def abcd_to_impedance(T: np.ndarray) -> np.ndarray:
    A, B, C, D = T.ravel()
    return np.array([[A / C, (A * D - B * C) / C], [1.0 / C, D / C]])


def abcd_to_s21(T: np.ndarray, r0: float) -> complex:
    A, B, C, D = T.ravel()
    return 2.0 / (A + B / r0 + C * r0 + D)


def abcd_to_s11(T: np.ndarray, r0: float) -> complex:
    A, B, C, D = T.ravel()
    return (A + B / r0 - C * r0 - D) / (A + B / r0 + C * r0 + D)


# ---------------------------------------------------------------------------
# closed forms of the Butterworth pi section and ladder


def ladder_impedance_closed_form(cfg, s: complex) -> np.ndarray:
    """Closed-form 2x2 impedance of the lossless C1-L-C3-L-C1 ladder of the
    ``ButterworthConfig`` cfg."""
    c1, c3, l1 = cfg.c1, cfg.c3, cfg.l1
    num = l1**2 * c1 * c3 * s**4 + l1 * (2 * c1 + c3) * s**2 + 1.0
    den = s * (l1 * c1 * s**2 + 1.0) * (l1 * c1 * c3 * s**2 + 2 * c1 + c3)
    return np.array([[num, 1.0], [1.0, num]]) / den


def pi_scattering_system(c1: float, c2: float, l1: float, r1: float, r2: float,
                         epsilon: float = 0.0) -> StateSpaceSystem:
    """Regularised scattering form of the pi circuit at resistances (r1, r2).

    Exactly the external Cayley transform of the impedance form with the
    shifted feedthrough eps*I, hence B = sqrt(2 r / C) / (r + eps) columns;
    at eps = 0 this reduces to sqrt(2 / (r C)).
    """
    w1 = 1.0 / math.sqrt(l1 * c1)
    w2 = 1.0 / math.sqrt(l1 * c2)
    g1 = 1.0 / (c1 * (r1 + epsilon))
    g2 = 1.0 / (c2 * (r2 + epsilon))
    A = np.array([[-g1, w1, 0.0], [-w1, 0.0, w2], [0.0, -w2, -g2]])
    B = np.array([[math.sqrt(2.0 * r1 / c1) / (r1 + epsilon), 0.0],
                  [0.0, 0.0],
                  [0.0, math.sqrt(2.0 * r2 / c2) / (r2 + epsilon)]])
    D = np.diag([1.0 - 2.0 * r1 / (r1 + epsilon), 1.0 - 2.0 * r2 / (r2 + epsilon)])
    return StateSpaceSystem(A, B, B.T.copy(), D, split=(1, 1))


# ---------------------------------------------------------------------------
# feedback coupling solved at the transfer-function level


def star_transfer(p, q, s: complex) -> np.ndarray:
    """Closed-loop transfer of the star coupling u2 = y~1, u~1 = y2."""
    Gp = transfer_dense(p, s)
    Gq = transfer_dense(q, s)
    m1p, k = p.m1, p.m2
    Gp11, Gp12 = Gp[:m1p, :m1p], Gp[:m1p, m1p:]
    Gp21, Gp22 = Gp[m1p:, :m1p], Gp[m1p:, m1p:]
    Gq11, Gq12 = Gq[:k, :k], Gq[:k, k:]
    Gq21, Gq22 = Gq[k:, :k], Gq[k:, k:]
    I = np.eye(k)
    u2_u1 = np.linalg.solve(I - Gq11 @ Gp22, Gq11 @ Gp21)
    u2_uq2 = np.linalg.solve(I - Gq11 @ Gp22, Gq12)
    top = np.hstack([Gp11 + Gp12 @ u2_u1, Gp12 @ u2_uq2])
    bottom = np.hstack([Gq21 @ (Gp21 + Gp22 @ u2_u1),
                        Gq22 + Gq21 @ Gp22 @ u2_uq2])
    return np.vstack([top, bottom])


def star_product_blocks(p, q):
    """The star product p * q (split (p.m1, q.m2)) by its component formulas,
    with Delta2^-1 on the p-side blocks and Delta1^-1 on the q-side blocks;
    the pair must be well-posed (no gate here)."""
    Dp22 = p.D[p.m1:, p.m1:]
    Dq11 = q.D[:q.m1, :q.m1]
    k = Dp22.shape[0]
    m1p, m2q = p.m1, q.m2
    Bp1, Bp2 = p.B[:, :m1p], p.B[:, m1p:]
    Cp1, Cp2 = p.C[:m1p], p.C[m1p:]
    Bq1, Bq2 = q.B[:, :k], q.B[:, k:]
    Cq1, Cq2 = q.C[:k], q.C[k:]
    Dp11, Dp12, Dp21 = p.D[:m1p, :m1p], p.D[:m1p, m1p:], p.D[m1p:, :m1p]
    Dq12, Dq21, Dq22 = q.D[:k, k:], q.D[k:, :k], q.D[k:, k:]

    I = np.eye(k)
    # i2 * [Dq11 Cp2, Dq11 Dp21, Cq1, Dq12]  and  i1 * [Cp2, Dp21, Dp22 Cq1, Dp22 Dq12]
    rhs2 = np.hstack([Dq11 @ Cp2, Dq11 @ Dp21, Cq1, Dq12])
    X2 = np.linalg.solve(I - Dq11 @ Dp22, rhs2) if k else rhs2
    rhs1 = np.hstack([Cp2, Dp21, Dp22 @ Cq1, Dp22 @ Dq12])
    X1 = np.linalg.solve(I - Dp22 @ Dq11, rhs1) if k else rhs1
    np_, nq = p.n, q.n
    # column offsets inside the stacked solves (same layout in X1 and X2)
    s2 = {"Cp2": slice(0, np_), "Dp21": slice(np_, np_ + m1p),
          "Cq1": slice(np_ + m1p, np_ + m1p + nq), "Dq12": slice(np_ + m1p + nq, None)}
    A = np.block([
        [p.A + Bp2 @ X2[:, s2["Cp2"]], Bp2 @ X2[:, s2["Cq1"]]],
        [Bq1 @ X1[:, s2["Cp2"]], q.A + Bq1 @ X1[:, s2["Cq1"]]]])
    B = np.block([
        [Bp1 + Bp2 @ X2[:, s2["Dp21"]], Bp2 @ X2[:, s2["Dq12"]]],
        [Bq1 @ X1[:, s2["Dp21"]], Bq2 + Bq1 @ X1[:, s2["Dq12"]]]])
    C = np.block([
        [Cp1 + Dp12 @ X2[:, s2["Cp2"]], Dp12 @ X2[:, s2["Cq1"]]],
        [Dq21 @ X1[:, s2["Cp2"]], Cq2 + Dq21 @ X1[:, s2["Cq1"]]]])
    D = np.block([
        [Dp11 + Dp12 @ X2[:, s2["Dp21"]], Dp12 @ X2[:, s2["Dq12"]]],
        [Dq21 @ X1[:, s2["Dp21"]], Dq22 + Dq21 @ X1[:, s2["Dq12"]]]])
    return StateSpaceSystem(A, B, C, D, split=(m1p, m2q))


def butterworth_star_mp(cfg, dps: int = 50):
    """The coupled Butterworth product in the printed state basis
    (p1, p2, p3, q1, q2, q3), in mpmath at ``dps`` digits, from its
    definition: each pi section in impedance form with feedthrough eps I,
    its external Cayley transform at R0 on both ports, then the Redheffer
    loop u2 = y~1, u~1 = y2 eliminated by its one scalar Delta.  Returns
    the stacked [[A, B], [C, D]] (8 x 8) as an mpmath matrix."""
    with mpmath.workdps(dps):
        eps, r, l1 = (mpmath.mpf(v) for v in (cfg.epsilon, cfg.r0, cfg.l1))

        def scattering(ca, cb):  # [[A, B], [C, D]] of the section C_a - L - C_b
            ca, cb = mpmath.mpf(ca), mpmath.mpf(cb)
            wa, wb = 1 / mpmath.sqrt(l1 * ca), 1 / mpmath.sqrt(l1 * cb)
            A = mpmath.matrix([[0, wa, 0], [-wa, 0, wb], [0, -wb, 0]])
            Bi = mpmath.matrix([[1 / mpmath.sqrt(ca), 0], [0, 0], [0, 1 / mpmath.sqrt(cb)]])
            k = 1 / (eps + r)   # (D_i + R)^-1 for D_i = eps I, R = R0 I
            S = mpmath.zeros(5, 5)
            A, B = A - k * Bi * Bi.T, mpmath.sqrt(2 * r) * k * Bi
            for i in range(3):
                for j in range(3):
                    S[i, j] = A[i, j]
                for j in range(2):
                    S[i, 3 + j] = S[3 + j, i] = B[i, j]   # C = B^T
            S[3, 3] = S[4, 4] = 1 - 2 * r * k
            return S

        p, q = scattering(cfg.c1, cfg.c2), scattering(cfg.c2, cfg.c1)
        # stacked order (x, z, u1, u~2); p's rows/cols 0-2 and 6, q's 3-5 and 7
        ip, iq = [0, 1, 2, 6, None], [3, 4, 5, None, 7]
        full = mpmath.zeros(8, 8)
        for sys, idx in ((p, ip), (q, iq)):
            for a in range(5):
                for b in range(5):
                    if idx[a] is not None and idx[b] is not None:
                        full[idx[a], idx[b]] = sys[a, b]
        delta = 1 - p[4, 4] * q[3, 3]
        # u2 = (q row 3 + Dq11 * p row 4) / Delta, u~1 = (p row 4 + Dp22 * q row 3) / Delta,
        # as rows over the stacked (x, z, u1, u~2)
        p_row, q_row = mpmath.zeros(1, 8), mpmath.zeros(1, 8)
        for a in range(5):
            if ip[a] is not None:
                p_row[ip[a]] = p[4, a]
            if iq[a] is not None:
                q_row[iq[a]] = q[3, a]
        u2 = (q_row + q[3, 3] * p_row) / delta
        uq1 = (p_row + p[4, 4] * q_row) / delta
        for a in range(5):          # p's column for u2, q's column for u~1
            if ip[a] is not None:
                for b in range(8):
                    full[ip[a], b] += p[a, 4] * u2[b]
            if iq[a] is not None:
                for b in range(8):
                    full[iq[a], b] += q[a, 3] * uq1[b]
        return full


def cascade_product_blocks(p, q):
    """G_p(s) G_q(s) via the block upper-triangular realisation."""
    A = np.block([[p.A, p.B @ q.C],
                  [np.zeros((q.n, p.n)), q.A]])
    B = np.vstack([p.B @ q.D, q.B])
    C = np.hstack([p.C, p.D @ q.C])
    return StateSpaceSystem(A, B, C, p.D @ q.D, split=p.split)


def second_order_transfer(so, s: complex, general: bool) -> np.ndarray:
    """(Q1 + s Q2)(s^2 M + s P + K)^-1 F for the quadratic pencil."""
    pencil = s * s * so.M + s * so.P + so.K
    X = np.linalg.solve(pencil, so.F)
    if general:
        return (so.Q1 + s * so.Q2) @ X
    return s * so.F.T @ X  # co-located path observes F^T z'


# ---------------------------------------------------------------------------
# terminated waveguide: the tube's pencil closed by the load, in double and
# in mpmath


def terminated_impedance(tube, load, epsilon: float, s: complex) -> complex:
    """Glottis input impedance of the FEM tube closed at the mouth by the
    load plus a series ``epsilon``: a dense solve of
    (s^2 M + K + rho s e_n e_n^T / (Z_L(s) + eps)) w = e_0, Z = rho s w_0,
    in the assembly DOF order (glottis value 0, mouth value n), with Z_L
    from ``transfer_dense``."""
    n = tube.n_elements
    P = s * s * tube.mass + tube.stiffness + 0j
    P[n, n] += tube.rho * s / (transfer_dense(load, s)[0, 0] + epsilon)
    glottis = np.zeros(P.shape[0])
    glottis[0] = 1.0
    return complex(tube.rho * s * np.linalg.solve(P, glottis)[0])


def _mp_sparse_solve(rows: list, rhs: list) -> list:
    """Gaussian elimination with partial pivoting on rows given as
    {column: value} dicts; exact zeros are never stored."""
    n = len(rows)
    for k in range(n):
        p = max((i for i in range(k, n) if k in rows[i]), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p], rhs[k], rhs[p] = rows[p], rows[k], rhs[p], rhs[k]
        for i in range(k + 1, n):
            if k not in rows[i]:
                continue
            f = rows[i].pop(k) / rows[k][k]
            for c, v in rows[k].items():
                if c != k:
                    rows[i][c] = rows[i].get(c, 0) - f * v
            rhs[i] -= f * rhs[k]
    x = [mpmath.mpf(0)] * n
    for k in reversed(range(n)):
        acc = rhs[k] - mpmath.fsum(v * x[c] for c, v in rows[k].items() if c > k)
        x[k] = acc / rows[k][k]
    return x


def terminated_impedance_mp(tube, load, epsilon: float, s: complex,
                            dps: int = 40) -> complex:
    """``terminated_impedance`` at ``dps`` digits, taking the double inputs
    (M, K, the load's quadruple, eps and s) as exact.  The pencil is put in
    reverse Cuthill-McKee order and eliminated sparsely."""
    with mpmath.workdps(dps):
        sm = mpmath.mpc(s.real, s.imag)
        A = mpmath.matrix(load.A.tolist())
        x = mpmath.lu_solve(sm * mpmath.eye(load.n) - A, mpmath.matrix(load.B.tolist()))
        z_load = (mpmath.matrix(load.C.tolist()) * x)[0, 0] + load.D[0, 0] + epsilon
        n = tube.n_elements
        pattern = csr_matrix((tube.mass != 0) | (tube.stiffness != 0))
        order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        where = np.argsort(order)
        rows = []
        for i in order:
            row = {}
            for j in np.flatnonzero(pattern[i].toarray()):
                row[int(where[j])] = sm * sm * tube.mass[i, j] + tube.stiffness[i, j]
            if i == n:
                row[int(where[n])] += tube.rho * sm / z_load
            rows.append(row)
        rhs = [mpmath.mpf(0)] * len(rows)
        rhs[int(where[0])] = mpmath.mpf(1)
        w = _mp_sparse_solve(rows, rhs)
        return complex(tube.rho * sm * w[int(where[0])])


def step_response_loop(phi, inputs: np.ndarray, x0=None, record_energy=False):
    """Per-sample reference for ``simulate.step_response``: three matvecs per
    step in Python, no blocking.

    Runs the exact recursion x_{j+1} = Ad x_j + Bd u_j, y_j = Cd x_j + Dd u_j.

    ``inputs`` has one row per step.  ``record_energy`` selects a per-step
    balance to record: "impedance" (or True) stores the defect
    |x_{j+1}|^2 - |x_j|^2 - 2 <u_j, y_j>, "scattering" stores
    |x_{j+1}|^2 - |x_j|^2 - (|u_j|^2 - |y_j|^2); either is <= 0 for a
    passive system of that type and zero for a conservative one up to
    roundoff.  The recorded return value is (outputs, balance, states).
    """
    if record_energy is True:
        record_energy = "impedance"
    if record_energy not in (False, "impedance", "scattering"):
        raise DimensionMismatch(f"unknown energy mode {record_energy!r}")
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    if U.shape[1] != phi.m:
        raise DimensionMismatch(f"inputs have width {U.shape[1]}, system has m={phi.m}")
    nsteps = U.shape[0]
    x = np.zeros(phi.n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (phi.n,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({phi.n},)")
    Y = np.empty((nsteps, phi.m))
    balance = np.empty(nsteps) if record_energy else None
    states = np.empty((nsteps, phi.n)) if record_energy else None
    for j in range(nsteps):
        u = U[j]
        y = phi.Cd @ x + phi.Dd @ u
        x_next = phi.Ad @ x + phi.Bd @ u
        Y[j] = y
        if record_energy:
            states[j] = x
            gain = x_next @ x_next - x @ x
            supply = 2.0 * (u @ y) if record_energy == "impedance" \
                else (u @ u - y @ y)
            balance[j] = float(gain - supply)
        x = x_next
    if record_energy:
        return Y, balance, states
    return Y


def periodic_steady_state(sys, sigma: float, period: np.ndarray, rows=None):
    """One period of the steady state of the bilinear step of ``sys``.

    ``period`` (P x m, P odd) is one period of an input that repeats every
    P samples.  Harmonic k of the period sees the transfer at the bilinear
    point s_k = sigma (z_k - 1) / (z_k + 1), z_k = exp(2 pi i k / P), which
    the internal Cayley transform at ``sigma`` maps it to; an odd P keeps
    every z_k off -1.  Returns the outputs y_j = Cd x_j + Dd u_j over the
    period, and with ``rows`` (p x n) also the readouts rows . x_j of the
    discrete state, whose harmonic k is sqrt(2 sigma) / (z_k + 1) times
    rows (s_k I - A)^-1 B U_k.  The mean (k = 0, s = 0) is left out of
    both.  The resolvent comes from the eigendecomposition of A, not from a
    factorisation per point, so its rounding grows with the condition of
    the eigenvectors.
    """
    period = np.asarray(period, dtype=float)
    P = period.shape[0]
    if P % 2 == 0:
        raise ValueError(f"period length {P} is even: z = -1 is a harmonic")
    U = np.fft.rfft(period, axis=0)[1:]                    # harmonics 1 .. (P - 1) / 2
    z = np.exp(2j * np.pi * np.arange(1, U.shape[0] + 1) / P)
    s = sigma * (z - 1) / (z + 1)
    lam, V = np.linalg.eig(sys.A)
    # column k of modal is V^-1 (s_k I - A)^-1 B U_k
    modal = (np.linalg.solve(V, sys.B) @ U.T) / (s[None, :] - lam[:, None])

    def series(harmonics):                                 # zero mean, P samples
        full = np.vstack([np.zeros((1, harmonics.shape[1])), harmonics])
        return np.fft.irfft(full, n=P, axis=0)

    Y = series((sys.C @ V @ modal).T + U @ sys.D.T)
    if rows is None:
        return Y
    rows = np.atleast_2d(rows)
    return Y, series((np.sqrt(2.0 * sigma) / (z + 1))[:, None] * (rows @ V @ modal).T)


def _element_dofs(e: int, n: int) -> list[int]:
    """Global DOF of local (phi1, phi2, phi3, phi4) in element e (1-based); -1 = dropped."""
    left, right = e - 1, e
    d3 = n + left if 1 <= left <= n - 1 else -1
    d4 = n + right if 1 <= right <= n - 1 else -1
    return [left, right, d3, d4]


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def assemble_loop(area, n: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-element reference for the (mass, stiffness) of
    ``websterfem.assemble``: a Python loop over element x basis pair x
    quadrature point, one scalar ``hermite_basis_eval`` call per basis
    function and point, one ``np.sum`` per matrix entry and element."""
    if n < 2:
        raise BadGeometry(f"need at least 2 elements, got {n}")
    L = area.length
    h = L / n
    ndof = 2 * n
    M = np.zeros((ndof, ndof))
    K = np.zeros((ndof, ndof))
    for e in range(1, n + 1):
        xl, xr = (e - 1) * h, e * h
        gdof = _element_dofs(e, n)
        xq = xl + 0.5 * (_GAUSS_X + 1.0) * h
        wq = 0.5 * h * _GAUSS_W
        a_q = area(xq)
        vals = np.zeros((4, xq.size))
        ders = np.zeros((4, xq.size))
        for kloc in range(4):
            for iq, x in enumerate(xq):
                vals[kloc, iq], ders[kloc, iq] = hermite_basis_eval((xl, xr), kloc + 1, x)
        k1 = a_q / c**2
        k2 = a_q
        for i in range(4):
            gi = gdof[i]
            if gi < 0:
                continue
            for j in range(4):
                gj = gdof[j]
                if gj < 0:
                    continue
                M[gi, gj] += np.sum(wq * k1 * vals[i] * vals[j])
                K[gi, gj] += np.sum(wq * k2 * ders[i] * ders[j])
    M = 0.5 * (M + M.T)
    K = 0.5 * (K + K.T)
    return M, K


def _negative_pivots(band_k, band_m, mu, k: int) -> int:
    """Negative pivots of the LDL^T of K - mu M (no pivoting), with K and M
    given as {(i, j): value} dicts over 0 <= i - j <= k (k sub-diagonals);
    by Sylvester's law of inertia the number of eigenvalues of the pencil
    (K, M) below mu."""
    n = 1 + max(i for i, _ in band_k)
    low, piv = {}, []
    for j in range(n):
        for i in range(j, min(n, j + k + 1)):
            a = band_k.get((i, j), 0) - mu * band_m.get((i, j), 0)
            a -= mpmath.fsum(low[i, p] * low[j, p] * piv[p] for p in range(max(0, i - k), j))
            if i > j:
                low[i, j] = a / piv[j]
            elif a == 0:
                raise ZeroDivisionError(f"zero pivot at mu = {mu}")
            else:
                piv.append(a)
    return sum(1 for d in piv if d < 0)


def tube_top_mp(tube, digits: int = 30) -> float:
    """sqrt(lambda_max(K, M)) of an assembled tube, the largest |eigenvalue|
    of its conservative realisation, taking the double M and K as exact.

    Bisection on mu in mpmath: the count of eigenvalues below mu comes from
    the inertia of the banded LDL^T of K - mu M in the node-interleaved
    order (``_negative_pivots``), and the bracket is halved until it is
    ``10**-digits`` relative.
    """
    order = tube.band_order
    with mpmath.workdps(digits + 15):
        bands = []
        for X in (tube.stiffness, tube.mass):
            P = X[np.ix_(order, order)]
            bands.append({(i, j): mpmath.mpf(float(P[i, j]))
                          for i, j in zip(*np.nonzero(np.tril(P)))})
        n = P.shape[0]
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while _negative_pivots(*bands, hi, BANDWIDTH) < n:
            lo, hi = hi, 2 * hi
        tol = mpmath.mpf(10) ** -digits
        while hi - lo > tol * hi:
            mid = (lo + hi) / 2
            if _negative_pivots(*bands, mid, BANDWIDTH) < n:
                lo = mid
            else:
                hi = mid
        return float(mpmath.sqrt((lo + hi) / 2))
