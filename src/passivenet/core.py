"""State-space system values and their realisation algebra.

Systems are immutable quadruples (A, B, C, D) with a declared port split
(m1, m2), m1 + m2 = m.  Every operation returns a fresh system; nothing here
mutates shared state, so all functions are safe to call concurrently.

The transfer function is G(s) = D + C (sI - A)^-1 B, always evaluated
through one gated resolvent plan (A factored once, O(n^2) per point),
never by an explicit inverse.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NearSpectrum, NotSPD, SingularBlock

#: A symmetric matrix value may be off symmetry by |X - X^T|_2 <= SYMMETRY_RTOL
#: |X|_2; a definite one needs every eigenvalue above DEFINITE_RTOL max|w|, a
#: semidefinite one none below minus that (its fuzzy kernel is clipped to 0).
SYMMETRY_RTOL = 1e-10
DEFINITE_RTOL = 1e-12

#: The gate's floor: a solve is rejected when its sigma_min estimate is below
#: RCOND_FLOOR times the row scale, unless the site passes its own floor.
RCOND_FLOOR = 1e-12

#: Singular values below this fraction of the largest count as zero in
#: rank decisions (Kalman matrices are badly graded; a relative cut is the
#: standard compromise).
RANK_RTOL = 1e-10


def _as_matrix(name: str, value, shape=None) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D real matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a real number (a bool is not one) that converts to
    a finite double: json.loads also reads NaN, Infinity and integers beyond
    double range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _quote(value, render=repr) -> str:
    """``render(value)`` for a usage error, cut to 60 characters plus "…":
    an outside value (a config entry, a JSON field) can be any size, and an
    int past ``sys.get_int_max_str_digits()`` cannot be rendered at all."""
    try:
        text = render(value)
    except ValueError:  # an int too long to render
        text = f"<int of {value.bit_length()} bits>"
    return text if len(text) <= 60 else text[:60] + "…"


def _require_positive(exc_type, nonnegative=(), **values) -> None:
    """Raise exc_type naming the first of ``values`` that is not a real number
    (a bool is not one), or not positive and finite (nonnegative and finite,
    for the names in ``nonnegative``); finite means a finite double."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise exc_type(f"{name} must be a real number, got {_quote(value)}")
        if not (_is_finite_real(value) and (value > 0 or name in nonnegative and value == 0)):
            kind = "nonnegative" if name in nonnegative else "positive"
            raise exc_type(f"{name} must be {kind} and finite, got {_quote(value, str)}")


def _symmetric_eig(name: str, value, definite: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, w, V): the symmetrised matrix value and the eigenpairs of one eigh,
    once X is checked finite, square, symmetric, and positive definite if
    ``definite`` else semidefinite.  The package's one such check; it raises
    DimensionMismatch, or its subclass NotSPD, naming the matrix."""
    X = _as_matrix(name, value)
    if X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {X.shape}")
    # an exactly symmetric X (the FEM's) has asymmetry 0 and needs no SVD
    if not np.array_equal(X, X.T) and (
            np.linalg.norm(X - X.T, 2) > SYMMETRY_RTOL * np.linalg.norm(X, 2)):
        raise NotSPD(f"{name} is not symmetric")
    X = 0.5 * (X + X.T)
    if not definite and not X.any():  # zero (the FEM's damping): no eigh needed
        return X, np.zeros(X.shape[0]), np.eye(X.shape[0])
    w, V = np.linalg.eigh(X)
    if w.size:
        floor = DEFINITE_RTOL * max(-w[0], w[-1])
        if (w[0] <= floor) if definite else (w[0] < -floor):
            kind = "definite" if definite else "semidefinite"
            raise NotSPD(f"{name} must be positive {kind} "
                         f"(eigenvalues {w[0]:.3e} to {w[-1]:.3e})")
    return X, w, V


def _freeze(obj, **arrays: np.ndarray) -> None:
    """Store read-only copies of ``arrays`` as fields of the frozen dataclass ``obj``."""
    for name, arr in arrays.items():
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def _freeze_quadruple(sys, names: tuple[str, str, str, str]) -> None:
    """Check a frozen system's quadruple (field ``names``) and split, then
    store read-only copies.  The default split halves an even m, else (m, 0).
    """
    a, b, c, d = names
    A = _as_matrix(a, getattr(sys, a))
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"{a} must be square, got {A.shape}")
    D = _as_matrix(d, getattr(sys, d))
    m = D.shape[0]
    if D.shape != (m, m) or m < 1:
        raise DimensionMismatch(f"{d} must be square with m >= 1, got {D.shape}")
    B = _as_matrix(b, getattr(sys, b), (n, m))
    C = _as_matrix(c, getattr(sys, c), (m, n))
    split = sys.split
    if split is None:
        split = (m // 2, m - m // 2) if m % 2 == 0 else (m, 0)
    m1, m2 = int(split[0]), int(split[1])
    if m1 < 0 or m2 < 0 or m1 + m2 != m:
        raise DimensionMismatch(f"split {split} incompatible with m={m}")
    _freeze(sys, **dict(zip(names, (A, B, C, D))))
    object.__setattr__(sys, "split", (m1, m2))


@dataclass(frozen=True)
class StateSpaceSystem:
    """Continuous-time system x' = A x + B u, y = C x + D u with a port split.

    ``split = (m1, m2)`` declares the widths of the top and bottom signal
    groups; m1 + m2 = m.  ``n = 0`` is allowed and means pure feedthrough.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    split: tuple[int, int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        _freeze_quadruple(self, ("A", "B", "C", "D"))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[0]

    @property
    def m1(self) -> int:
        return self.split[0]

    @property
    def m2(self) -> int:
        return self.split[1]

    def replace(self, **kw) -> "StateSpaceSystem":
        data = {"A": self.A, "B": self.B, "C": self.C, "D": self.D, "split": self.split}
        data.update(kw)
        return StateSpaceSystem(**data)

    def transfer_values(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(G at each point, ok) through one resolvent plan; the values are
        NaN where the plan's gate flags the point (see ``_ResolventPlan``)."""
        values, ok, _, _ = _ResolventPlan(self.A, self.B, self.C, self.D).evaluate(points)
        return values, ok


@dataclass(frozen=True)
class DiscreteSystem:
    """Discrete-time system x_{j+1} = Ad x_j + Bd u_j, y_j = Cd x_j + Dd u_j.

    ``sigma`` is the Cayley parameter (rad/s) that produced it; kept so the
    inverse transform and time axes are well defined.
    """

    Ad: np.ndarray
    Bd: np.ndarray
    Cd: np.ndarray
    Dd: np.ndarray
    sigma: float
    split: tuple[int, int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        _require_positive(DimensionMismatch, sigma=self.sigma)
        object.__setattr__(self, "sigma", float(self.sigma))
        _freeze_quadruple(self, ("Ad", "Bd", "Cd", "Dd"))

    @property
    def n(self) -> int:
        return self.Ad.shape[0]

    @property
    def m(self) -> int:
        return self.Dd.shape[0]


@functools.lru_cache(maxsize=8)
def _gate_probes(n: int) -> np.ndarray:
    """The near-spectrum gate's two seeded unit probes of size n (read-only
    n x 2), built once per size."""
    rng = np.random.default_rng(0x5EED)
    probes = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]
    probes = np.stack([y / np.linalg.norm(y) for y in probes], axis=1)
    probes.flags.writeable = False
    return probes


def _near_spectrum_gate(norms: np.ndarray, rows: np.ndarray, floor: float | None = None):
    """The package's one invertibility gate: (sigma, scale, ok) from the
    norms of the probes' solutions and their inverse-power steps (last
    axis) and the matrix's row maxima (axis 0).

    sigma estimates sigma_min as 1 / the largest norm (0 where a solve is
    not finite); scale is the median row max, which keeps the gate
    meaningful for stiff systems, where sigma_max would let one huge
    decoupled mode condemn every point; ok is sigma >= floor * scale, the
    floor RCOND_FLOOR read at call time unless given.
    """
    inv_norm = norms.max(axis=-1)
    sigma = np.where(np.isnan(inv_norm), 0.0, 1.0 / inv_norm)
    n = rows.shape[0]
    # the median, as np.median takes it but cheaper
    mid = np.partition(rows, [(n - 1) // 2, n // 2], axis=0)[(n - 1) // 2:n // 2 + 1]
    scale = mid.sum(axis=0) / mid.shape[0]
    floor = RCOND_FLOOR if floor is None else floor
    return sigma, scale, np.isfinite(sigma) & (sigma > 0.0) & (sigma >= floor * scale)


def _gate_message(message: str, sigma: float, scale: float) -> str:
    """What a gate raises: ``message`` and the measure it failed on."""
    return message + f" (sigma_min ~ {sigma:.2e} vs row scale {scale:.2e})"


def _gate_sigma(M: np.ndarray, floor: float | None = None) -> tuple[float, float, bool]:
    """(sigma, scale, ok) of _near_spectrum_gate on one non-empty real square
    M, its probes and their inverse-power step taken by np.linalg.solve as
    four real columns.  An exactly singular M reads sigma 0."""
    probes = _gate_probes(M.shape[0])
    X, norms = np.hstack([probes.real, probes.imag]), np.zeros(2)
    with np.errstate(all="ignore"):
        try:
            for _ in range(2):
                X = np.linalg.solve(M, X).reshape(-1, 2, 2)  # (row, real/imag, probe)
                norm = np.linalg.norm(X, axis=(0, 1))
                norms, X = np.maximum(norms, norm), (X / norm).reshape(-1, 4)
        except np.linalg.LinAlgError:
            norms = np.full(2, np.nan)
    sigma, scale, ok = _near_spectrum_gate(norms, np.abs(M).max(axis=1), floor)
    return float(sigma), float(scale), bool(ok)


def _gated_solve(M: np.ndarray, Y: np.ndarray, exc_type, message: str,
                 floor: float | None = None) -> np.ndarray:
    """np.linalg.solve(M, Y) where _gate_sigma passes M, else
    exc_type(``message`` and the measure); an empty M passes."""
    sigma, scale, ok = _gate_sigma(M, floor) if M.size else (1.0, 1.0, True)
    if not ok:
        raise exc_type(_gate_message(message, sigma, scale))
    return np.linalg.solve(M, Y)


#: Columns per chunk of a resolvent plan, which takes
#: max(1, _PLAN_WIDTH // (m + 2)) points at a time, each with its m inputs
#: and the gate's two probes.  No point's solve depends on its chunk-mates;
#: the width bounds the working set, and it decides whether OpenBLAS hands a
#: product to its thread pool.  512 (128 points of a 2-input sweep) was
#: about the fastest of 32 to 512 points on the 412-state composite and the
#: 6-state Butterworth product (2-vCPU host, OpenBLAS); twice as wide is
#: faster in a warm loop, but its 6-state products go to the thread pool,
#: and a fresh benchmark process then ran the sweep slower.
_PLAN_WIDTH = 512

#: A point is left to the Schur solve only when the refined solution's
#: componentwise backward error
#: max_i |B - (sI - A) X|_i / (|B| + |sI - A| |X|)_i is at most this.
#: Converged refinement reaches a few eps (about 1e-15 on the 412-state
#: waveguide and on the stiff Butterworth product).
_BERR_LIMIT = 1e-13


class _ResolventPlan:
    """D + C (sI - A)^-1 B at many points from one factorisation of A, for
    any B (n x m), C (p x n) and D (p x m): a caller that reads some columns
    of the transfer passes only those columns of B and D.

    A is balanced, A = Tm Ab Tm^-1 with Tm a scaled permutation, and Ab is
    reduced once to complex Schur form Z T Z^H, so that
    (sI - A)^-1 = Tm Z (sI - T)^-1 Z^H Tm^-1, with Tm Z and Z^H Tm^-1
    formed once.  The triangular solves are one back-substitution over the
    rows of T for all points at once
    (Laub, IEEE TAC 26(2), 1981), each column with its own pivots s - T_kk,
    so a point costs O(n^2), forms no n x n matrix and shares no scale with
    the others.  Each solution gets two steps of iterative refinement with
    the residual taken against the original A: an orthogonal reduction
    spreads an error of eps |A| into every mode, which for a stiff A (an
    eigenvalue at -3e17 beside modes near 1e6, which balancing leaves
    alone) swamps the slow ones.

    Where that is not enough, because a point lies within a few eps |A| of
    a slow eigenvalue, the refined solution's backward error shows it, and
    the point is solved again by an LU of the row- and column-equilibrated
    sI - A, with the same probes and refinement; see _BERR_LIMIT.

    Each point is gated by _near_spectrum_gate on sI - A, with the probes
    solved beside B.  The gate, the refinement and the fallback are per
    point, so the columns of B change only the values and how many points
    share a chunk of _PLAN_WIDTH columns.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray):
        self.A, self.B, self.C, self.D = A, B, C, D
        n = A.shape[0]
        if n == 0:
            self._pivots = np.zeros(0, dtype=complex)
            return
        Ab, (scale, perm) = scipy.linalg.matrix_balance(A, separate=True)
        # real Schur form made complex: the same factorisation as a complex
        # Schur decomposition, at about half its cost
        self._T, Z = scipy.linalg.rsf2csf(*scipy.linalg.schur(Ab))
        self._pivots = np.diag(self._T).copy()
        # the balancing folded into the Schur vectors, exactly, as the scales
        # are powers of two: with Tm = I[:, perm] diag(scale),
        # (sI - A)^-1 = right (sI - T)^-1 left, right = Tm Z, left = Z^H Tm^-1
        self._left = np.empty_like(Z)
        self._left[:, perm] = Z.conj().T / scale
        self._right = np.empty_like(Z)
        self._right[perm] = scale[:, None] * Z
        self._diag = np.diag(A).copy()
        self._offdiag = np.abs(A)
        np.fill_diagonal(self._offdiag, 0.0)
        self._offdiag_rowmax = self._offdiag.max(axis=1)
        self._probes = _gate_probes(n)
        self._chunk_points = max(1, _PLAN_WIDTH // (B.shape[1] + 2))
        # every full chunk starts from the same right-hand sides
        self._full_round1 = self._round1(self._chunk_points)

    def _round1(self, k: int) -> np.ndarray:
        """The first round's right-hand sides for k points: B tiled k times,
        then both probes tiled k times."""
        return np.hstack([np.tile(self.B, (1, k)), np.tile(self._probes, (1, k))])

    def _solve(self, shifts: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Column j of the result is (shifts[j] I - A)^-1 Y[:, j]."""
        X = self._left @ Y
        T, pivots = self._T, shifts - self._pivots[:, None]
        X[-1] /= pivots[-1]
        for i in range(T.shape[0] - 2, -1, -1):
            row = X[i]  # a view, so the updates below write no copy back
            row += T[i, i + 1:] @ X[i + 1:]
            row /= pivots[i]
        return self._right @ X

    def _dense_solver(self, s: complex):
        """A solve at the one point s by an LU of the row- and
        column-equilibrated sI - A: no Schur pivots, and a stiff row is
        scaled away instead of spread into the slow modes."""
        M = s * np.eye(self.A.shape[0]) - self.A
        r = np.abs(M).max(axis=1)
        Mr = M / r[:, None]
        c = np.abs(Mr).max(axis=0)
        c[c == 0.0] = 1.0
        with warnings.catch_warnings():
            # an exactly singular sI - A is gated, not an error
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(Mr / c, check_finite=False)
        return lambda shifts, Y: scipy.linalg.lu_solve(lu, Y / r[:, None],
                                                       check_finite=False) / c[:, None]

    def _residual(self, shifts: np.ndarray, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Y - (sI - A) X column by column, with A kept real: one real GEMM
        on the float view of X (which the view needs C-contiguous)."""
        X = np.ascontiguousarray(X)
        AX = (self.A @ X.view(float)).view(complex)
        return Y - (shifts * X - AX)

    def _chunk(self, s: np.ndarray, solve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, the gate's probe norms (k x 2) and whether the
        componentwise backward error is at most _BERR_LIMIT, at the points
        s, all clear of a zero row; ``solve(shifts, Y)`` applies
        (shifts[j] I - A)^-1 to the columns of Y.  A point whose solve is
        not finite fails the backward-error test."""
        m = self.B.shape[1]
        k = s.size
        Y = self._full_round1
        if Y.shape[1] != k * (m + 2):
            Y = self._round1(k)
        rhs = Y[:, :k * m]
        shifts = np.repeat(s, m)
        both = np.concatenate([shifts, np.repeat(s, 2)])
        # round 1 solves the right-hand sides and both probes; round 2 the
        # first refinement and the probes' inverse-power steps; round 3 the
        # second refinement
        sol = solve(both, Y)
        X, probes = sol[:, :k * m], sol[:, k * m:]
        norm1 = np.linalg.norm(probes, axis=0)
        sol = solve(both, np.hstack([self._residual(shifts, rhs, X), probes / norm1]))
        X = X + sol[:, :k * m]
        norm2 = np.linalg.norm(sol[:, k * m:], axis=0)
        X = X + solve(shifts, self._residual(shifts, rhs, X))
        absX = np.abs(X)
        bound = (np.abs(rhs) + self._offdiag @ absX
                 + np.abs(shifts - self._diag[:, None]) * absX)
        # NaN compares False, so a non-finite solution never converges
        converged = np.abs(self._residual(shifts, rhs, X)) <= _BERR_LIMIT * bound
        values = self.D + (self.C @ X).reshape(self.C.shape[0], k, m).transpose(1, 0, 2)
        return (values, np.maximum(norm1, norm2).reshape(k, 2),
                converged.all(axis=0).reshape(k, m).all(axis=1))

    def evaluate(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(values, ok, sigma_min estimate, row scale) at each point; values
        are NaN where ``ok`` is False.  RCOND_FLOOR is read at call time."""
        s = np.asarray(points, dtype=complex).reshape(-1)
        n = self.A.shape[0]
        values = np.full((s.size, *self.D.shape), np.nan, dtype=complex)
        norms = np.full((s.size, 2), np.nan)  # a point left unsolved reads sigma 0
        sigma, scale, ok = np.zeros(s.size), np.zeros(s.size), np.ones(s.size, dtype=bool)
        if n == 0:
            values[:] = self.D
            return values, ok, np.full(s.size, np.inf), scale
        with np.errstate(all="ignore"):
            for lo in range(0, s.size, self._chunk_points):
                part = np.arange(lo, min(lo + self._chunk_points, s.size))
                # |sI - A| row maxima
                rows = np.maximum(self._offdiag_rowmax[:, None],
                                  np.abs(s[part] - self._diag[:, None]))
                live = part[(rows.min(axis=0) > 0) & np.isfinite(rows).all(axis=0)]
                if live.size:
                    values[live], norms[live], converged = self._chunk(s[live], self._solve)
                    for p in live[~converged]:
                        values[[p]], norms[[p]], _ = self._chunk(s[[p]], self._dense_solver(s[p]))
                sigma[part], scale[part], ok[part] = _near_spectrum_gate(norms[part], rows)
        values[~ok] = np.nan
        return values, ok, sigma, scale

    def at(self, s: complex, message: str) -> np.ndarray:
        """The value at one point; NearSpectrum(message + measure) if gated."""
        values, ok, sigma, scale = self.evaluate([s])
        if not ok[0]:
            raise NearSpectrum(_gate_message(message, sigma[0], scale[0]))
        return values[0]


def transfer_function(sys: StateSpaceSystem, s: complex) -> np.ndarray:
    """Evaluate G(s) = D + C (sI - A)^-1 B through a resolvent plan; raise
    NearSpectrum when s sits on the spectrum of A, DimensionMismatch if s is
    not finite."""
    s = complex(s)
    if not np.isfinite(s):
        raise DimensionMismatch(f"s={s} is not finite")
    return _ResolventPlan(sys.A, sys.B, sys.C, sys.D).at(
        s, f"s={s} is numerically on the spectrum of A")


def discrete_transfer_function(phi: DiscreteSystem, z: complex) -> np.ndarray:
    """Evaluate the discrete transfer D(z) = Dd + z Cd (I - z Ad)^-1 Bd.

    The variable lives in the unit disk (z = 1/zeta for the usual
    z-transform variable zeta), which is the convention under which the
    internal Cayley transform satisfies D(z) = G(sigma (1-z)/(1+z)).
    Since I - z Ad = z (z^-1 I - Ad), D(z) = Dd + Cd (z^-1 I - Ad)^-1 Bd is
    evaluated by the resolvent plan of Ad at z^-1; the gate's ratio of
    sigma_min to row scale is the same for both matrices.  An infinite z is
    evaluated at z^-1 = 0; a NaN raises DimensionMismatch.
    """
    z = complex(z)
    if np.isnan(z):
        raise DimensionMismatch(f"z={z} is not a number")
    if abs(z) * np.finfo(float).max < 1.0:
        # z = 0, or so small that z^-1 overflows: D(z) is Dd to within z
        return phi.Dd.astype(complex)
    return _ResolventPlan(phi.Ad, phi.Bd, phi.Cd, phi.Dd).at(
        0j if np.isinf(z) else 1.0 / z,
        f"z={z}: I - z Ad is numerically singular (measured on z^-1 I - Ad)")


def scalar_multiple(c: float, sys: StateSpaceSystem) -> StateSpaceSystem:
    """c * G(s): scale the output map, leave the state dynamics alone."""
    return sys.replace(C=c * sys.C, D=c * sys.D)


def parallel_sum(p: StateSpaceSystem, q: StateSpaceSystem) -> StateSpaceSystem:
    """G_p(s) + G_q(s) via the block-diagonal stacked realisation."""
    if p.m != q.m or p.split != q.split:
        raise DimensionMismatch(
            f"parallel sum needs equal port layout, got m/split {p.m}/{p.split} vs {q.m}/{q.split}")
    A = scipy.linalg.block_diag(p.A, q.A)
    B = np.vstack([p.B, q.B])
    C = np.hstack([p.C, q.C])
    return StateSpaceSystem(A, B, C, p.D + q.D, split=p.split)


def _closed_loop(p: StateSpaceSystem, q: StateSpaceSystem, inputs, outputs,
                 loop, fed, split: tuple[int, int]) -> StateSpaceSystem:
    """p and q side by side (states and signals stacked p first), with the
    stacked inputs ``loop`` driven by the stacked outputs ``fed``.  One solve
    of (I - D[fed, loop]) u_loop = C[fed] x + D[fed, inputs] u eliminates the
    loop; the result maps u[inputs] to y[outputs] with port split ``split``.
    All four index arguments are integer arrays into the stacked signals.
    The caller gates I - D[fed, loop]."""
    n, m = p.n + q.n, p.m + q.m
    # the stacked [[A, B], [C, D]], rows (x_p, x_q, y_p, y_q), cols (x_p, x_q, u_p, u_q)
    S = np.zeros((n + m, n + m))
    for sys, x0, u0 in ((p, 0, n), (q, p.n, n + p.m)):
        xs, us = slice(x0, x0 + sys.n), slice(u0, u0 + sys.m)
        S[xs, xs], S[xs, us], S[us, xs], S[us, us] = sys.A, sys.B, sys.C, sys.D
    rows, inputs = np.r_[:n, n + outputs][:, None], n + inputs
    loop, fed = n + loop, (n + fed)[:, None]
    X = np.linalg.solve(np.eye(loop.size) - S[fed, loop], S[fed, np.r_[:n, inputs]])
    closed = S[rows, loop] @ X
    # plus S[rows, (x, inputs)], the state block added in place, not gathered
    closed[:n, :n] += S[:n, :n]
    closed[n:, :n] += S[n + outputs, :n]
    closed[:, n:] += S[rows, inputs]
    return StateSpaceSystem(closed[:n, :n], closed[:n, n:], closed[n:, :n],
                            closed[n:, n:], split=split)


def cascade_product(p: StateSpaceSystem, q: StateSpaceSystem) -> StateSpaceSystem:
    """G_p(s) G_q(s): q's outputs drive p's inputs, a loop matrix of I."""
    if p.m != q.m:
        raise DimensionMismatch(f"cascade needs equal signal width, got {p.m} vs {q.m}")
    own, other = np.arange(p.m), p.m + np.arange(q.m)
    return _closed_loop(p, q, other, own, own, other, p.split)


def similarity(sys: StateSpaceSystem, T: np.ndarray) -> StateSpaceSystem:
    """Change state coordinates x -> T^-1 x; the transfer function is unchanged."""
    T = _as_matrix("T", T, (sys.n, sys.n))
    Tinv = _gated_solve(T, np.eye(sys.n), SingularBlock, "T is numerically singular")
    return sys.replace(A=Tinv @ sys.A @ T, B=Tinv @ sys.B, C=sys.C @ T)


def _stacked_rank(blocks: list[np.ndarray]) -> int:
    # normalising each power block rescales columns only, which preserves the
    # span; without it physical systems (|A| ~ 1e7) grade the Kalman matrix
    # across dozens of decades and the SVD cut sees nothing past A B
    scaled = [blk / nrm if (nrm := np.linalg.norm(blk)) > 0 else blk for blk in blocks]
    sv = np.linalg.svd(np.hstack(scaled), compute_uv=False)
    return int(np.count_nonzero(sv > RANK_RTOL * sv[0]))  # 0 for an all-zero stack


def minimality(sys: StateSpaceSystem) -> tuple[int, int, bool]:
    """Kalman ranks (controllability, observability) and the minimality flag."""
    n = sys.n
    ctrb, obsv = [sys.B], [sys.C]
    for _ in range(n - 1):
        ctrb.append(sys.A @ ctrb[-1])
        obsv.append(obsv[-1] @ sys.A)
    rc, ro = (_stacked_rank(blocks) if n else 0 for blocks in (ctrb, [Ck.T for Ck in obsv]))
    return rc, ro, (rc == n and ro == n)


def io_equivalent(p: StateSpaceSystem, q: StateSpaceSystem, tol: float = 1e-8) -> bool:
    """Sampled I/O equivalence: compare transfers at n_p + n_q + 1 points.

    That many agreement points exceed the McMillan-degree bound, so two
    distinct rational functions of these orders cannot pass.  This is a
    numerical surrogate for algebraic equality, not an exact decision.
    Points are deterministic pseudo-random (round r draws from seed 7919 r),
    log-spaced in magnitude across both spectra and kept off the real axis;
    a NearSpectrum hit is retried with fresh points (at most 5 rounds).
    """
    if p.m != q.m:
        raise DimensionMismatch(f"io_equivalent needs equal signal width, got {p.m} vs {q.m}")
    npts = p.n + q.n + 1
    plans = [_ResolventPlan(sys.A, sys.B, sys.C, sys.D) for sys in (p, q)]
    # both spectra's magnitudes from the plans' Schur diagonals
    mags = np.abs(np.concatenate([plan._pivots for plan in plans]))
    lo = max(float(np.min(mags[mags > 0], initial=1.0)), 1e-6)
    hi = float(np.max(mags, initial=1.0))
    for attempt in range(5):
        rng = np.random.default_rng(7919 * attempt)
        mags = np.exp(rng.uniform(np.log(0.3 * lo), np.log(3.0 * hi), npts))
        angles = rng.uniform(0.15, np.pi - 0.15, npts)  # keep clear of the real axis
        pts = mags * np.exp(1j * angles)
        (Gp, ok_p, _, _), (Gq, ok_q, _, _) = (plan.evaluate(pts) for plan in plans)
        if not (ok_p.all() and ok_q.all()):
            continue
        scale = np.maximum(np.abs(Gp).max(axis=(1, 2)), np.abs(Gq).max(axis=(1, 2)))
        diff = np.abs(Gp - Gq).max(axis=(1, 2))
        worst = np.max(diff[scale > 0] / scale[scale > 0], initial=0.0)
        return worst <= tol
    raise NearSpectrum("could not find sample points clear of both spectra in 5 rounds")


# ---------------------------------------------------------------------------
# JSON exchange format

_SYSTEM_FIELDS = ("A", "B", "C", "D")


def system_to_json(sys: StateSpaceSystem | DiscreteSystem) -> dict:
    """Serialise a system to the shared JSON exchange format."""
    discrete = isinstance(sys, DiscreteSystem)
    mats = (sys.Ad, sys.Bd, sys.Cd, sys.Dd) if discrete else (sys.A, sys.B, sys.C, sys.D)
    out = {"n": sys.n, "m1": sys.split[0], "m2": sys.split[1]}
    out.update({k: np.asarray(v).tolist() for k, v in zip(_SYSTEM_FIELDS, mats)})
    return {**out, "sigma": sys.sigma} if discrete else out


def system_from_json(obj: dict) -> StateSpaceSystem | DiscreteSystem:
    """Parse a system from the JSON exchange format, naming bad fields.

    n, m1 and m2 are integers >= 0; each matrix is a list of rows of finite
    numbers in its documented shape, or [] where that shape has size 0.
    """
    if not isinstance(obj, dict):
        raise DimensionMismatch("system JSON must be an object")
    for key in ("n", "m1", "m2", *_SYSTEM_FIELDS):
        if key not in obj:
            raise DimensionMismatch(f"system JSON is missing field '{key}'")
        if key in ("n", "m1", "m2") and (type(obj[key]) is not int or obj[key] < 0):
            raise DimensionMismatch(f"field '{key}' must be an integer >= 0, "
                                    f"got {_quote(obj[key])}")
    n, m1, m2 = obj["n"], obj["m1"], obj["m2"]
    m = m1 + m2
    mats = []
    for key, (rows, cols) in zip(_SYSTEM_FIELDS, ((n, n), (n, m), (m, n), (m, m))):
        value = obj[key]
        shaped = isinstance(value, list) and (
            value == [] and rows * cols == 0
            or len(value) == rows and all(isinstance(row, list) and len(row) == cols
                                          and all(map(_is_finite_real, row))
                                          for row in value))
        if not shaped:
            raise DimensionMismatch(f"field '{key}' must be {_quote(rows, str)} rows of "
                                    f"{_quote(cols, str)} finite numbers")
        mats.append(np.array(value, dtype=float).reshape(rows, cols))
    sigma = obj.get("sigma")
    if sigma is None:
        return StateSpaceSystem(*mats, split=(m1, m2))
    if not _is_finite_real(sigma):
        raise DimensionMismatch(f"field 'sigma' must be a finite number, got {_quote(sigma)}")
    return DiscreteSystem(*mats, sigma=float(sigma), split=(m1, m2))
