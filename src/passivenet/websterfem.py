"""Cubic Hermite FEM for the Webster horn equation on [0, L].

The weak form of  (A(x)/c^2) phi_tt = (A(x) phi_x)_x  with volume-velocity
inputs at both ends produces M w'' + K w = F [i1; i2] on the coefficient
vector of the Hermite space.  The global basis follows the 2n-dimensional
choice: value and derivative degrees of freedom at every interior node plus
a value-only function at each endpoint (no endpoint derivative DOFs), so a
tube split into n elements yields 2n coefficients and a 4n-dimensional
first-order state.

DOF numbering: 0..n are nodal values (0 and n are the endpoint functions),
n+1..2n-1 are the derivative DOFs of interior nodes 1..n-1.  The input
matrix F selects the endpoint values, i.e. rows 0 and n.  Interleaved by
node (v0, v1, d1, ..., v_{n-1}, d_{n-1}, v_n) each element couples four
consecutive DOFs, so M and K have bandwidth 3; the terminated solve works
in that order, on LAPACK band storage, gated like every resolvent evaluation.

The mesh is equidistant.  Geometry arrives as a piecewise-linear area
function sampled at its own nodes, independent of the FEM subdivision;
integrals use 5-point Gauss-Legendre per element (exact for polynomial
degree <= 9, which covers the mass integrand with piecewise-linear area).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs

from . import core
from .core import StateSpaceSystem, _freeze
from .errors import BadGeometry, DimensionMismatch, MonotonicityError, OutOfElement, ParseError
from .secondorder import SecondOrderSystem, first_order_realization


@dataclass(frozen=True)
class AreaFunction:
    """Piecewise-linear cross-section area A(x) on strictly increasing nodes."""

    nodes: np.ndarray
    areas: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).reshape(-1)
        areas = np.asarray(self.areas, dtype=float).reshape(-1)
        if nodes.size < 2 or nodes.size != areas.size:
            raise BadGeometry("need at least two (node, area) samples of equal count")
        if nodes[0] != 0.0:
            raise BadGeometry(f"first node must be 0, got {nodes[0]}")
        if not np.all(np.isfinite(nodes)):
            raise BadGeometry("area nodes must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise MonotonicityError("area nodes must be strictly increasing")
        if np.any(areas <= 0) or not np.all(np.isfinite(areas)):
            raise BadGeometry("areas must be positive and finite")
        _freeze(self, nodes=nodes, areas=areas)

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.nodes, self.areas)


#: Sub- and super-diagonals of M and K in the interleaved DOF order.
BANDWIDTH = 3


def _interleaved_order(n: int) -> np.ndarray:
    """The interleaving permutation v0, v1, d1, ..., v_{n-1}, d_{n-1}, v_n
    of the 2n DOFs: the glottis value comes first and the mouth value last."""
    order = np.empty(2 * n, dtype=int)
    order[0], order[-1] = 0, n
    order[1:-1:2] = np.arange(1, n)
    order[2:-1:2] = np.arange(n + 1, 2 * n)
    return order


def _band_storage(A: np.ndarray, k: int) -> np.ndarray:
    """A with k sub- and super-diagonals in LAPACK gbtrf layout (Fortran
    order): entry (i, j) at row 2k + i - j of column j, under k rows left
    for fill-in."""
    ab = np.zeros((3 * k + 1, A.shape[0]), dtype=A.dtype, order="F")
    for d in range(-k, k + 1):
        diag = np.diagonal(A, -d)
        ab[2 * k + d, max(0, -d):max(0, -d) + diag.size] = diag
    return ab


def _gated_band_solve(ab: np.ndarray, rhs: np.ndarray, k: int) -> Optional[np.ndarray]:
    """x with A x = rhs (one column) for the band-stored complex symmetric A
    (``_band_storage`` layout, k sub- and super-diagonals; overwritten), or
    None where ``core._near_spectrum_gate`` fires: the probes are solved
    with rhs by the same zgbtrf factor, one more zgbtrs takes their
    inverse-power step, and A's column maxima, read off the band storage,
    are its row maxima.  A non-finite entry or an exactly zero pivot fails
    unsolved.
    """
    rows = np.abs(ab).max(axis=0)
    if not np.isfinite(rows).all():
        return None
    lu, piv, info = zgbtrf(ab, k, k, overwrite_ab=True)
    if info != 0:
        return None
    with np.errstate(all="ignore"):
        x = zgbtrs(lu, k, k, np.hstack([rhs, core._gate_probes(ab.shape[1])]), piv)[0]
        norm1 = np.linalg.norm(x[:, 1:], axis=0)
        norm2 = np.linalg.norm(zgbtrs(lu, k, k, x[:, 1:] / norm1, piv)[0], axis=0)
        ok = core._near_spectrum_gate(np.maximum(norm1, norm2), rows)[2]
    return x[:, 0] if ok else None


@dataclass(frozen=True)
class WaveguideModel:
    """Assembled FEM waveguide: conservative two-port plus its matrices.

    ``mass`` and ``stiffness`` are in the assembly DOF order;
    ``mass_band`` and ``stiffness_band`` hold the same matrices permuted by
    ``band_order`` in LAPACK band storage (``BANDWIDTH`` off-diagonals).
    """

    system: StateSpaceSystem
    mass: np.ndarray
    stiffness: np.ndarray
    n_elements: int
    c: float
    rho: float
    band_order: np.ndarray
    mass_band: np.ndarray
    stiffness_band: np.ndarray

    def terminated_impedance(self, points,
                             admittance) -> tuple[np.ndarray, np.ndarray]:
        """Glottis input impedance with the mouth closed by ``admittance``.

        At each point s (one admittance Y(s) per point) this solves the
        banded pencil (s^2 M + K + rho s Y(s) e_mouth e_mouth^T) w = e_glottis
        and returns (rho s w_glottis, ok).  The pencil never inverts the
        lossless tube on its own, so the tube's own resonances are ordinary
        points.  ``ok`` is ``core._near_spectrum_gate`` on the pencil (see
        ``_gated_band_solve``); a point whose s or Y is not finite is gated
        without being solved.
        """
        s = np.asarray(points, dtype=complex).reshape(-1)
        Y = np.asarray(admittance, dtype=complex).reshape(-1)
        if Y.shape != s.shape:
            raise DimensionMismatch(f"{Y.size} admittance(s) for {s.size} point(s)")
        glottis = np.zeros((self.mass.shape[0], 1), dtype=complex)
        glottis[0] = 1.0
        values = np.full(s.size, np.nan, dtype=complex)
        ok = np.zeros(s.size, dtype=bool)
        for p in np.flatnonzero(np.isfinite(s) & np.isfinite(Y)):
            ab = s[p] * s[p] * self.mass_band + self.stiffness_band
            ab[2 * BANDWIDTH, -1] += self.rho * s[p] * Y[p]
            w = _gated_band_solve(ab, glottis, BANDWIDTH)
            if w is not None:
                values[p], ok[p] = self.rho * s[p] * w[0], True
        return values, ok


def hermite_basis_eval(element, kind: int, x):
    """Value and x-derivative of the local cubic Hermite function phi^kind.

    kind 1, 2 are the value functions of the left/right node; kind 3, 4 the
    derivative functions (scaled by the element width h so the DOF is the
    physical slope).  The bounds ``element = (xl, xr)`` and the points ``x``
    broadcast against each other, and a scalar call returns the same bits
    as the same point inside an array call.  Powers go through
    ``np.float_power``, which rounds like Python's float ``**`` (numpy's
    ``**`` may take a SIMD pow that rounds differently).
    """
    xl, xr, x = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                      for v in (element[0], element[1], x)))
    h = xr - xl
    bad = ~(np.isfinite(xl) & np.isfinite(xr) & (h > 0))
    if bad.any():
        raise BadGeometry(f"element [{xl[bad][0]}, {xr[bad][0]}] is non-finite or empty")
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(xl), np.abs(xr)))
    bad = ~((x >= xl - tol) & (x <= xr + tol))
    if bad.any():
        raise OutOfElement(f"x={x[bad][0]} outside element [{xl[bad][0]}, {xr[bad][0]}]")
    l = (x - xl) / h
    l2, l3 = np.float_power(l, 2), np.float_power(l, 3)
    if kind == 1:
        return 2 * l3 - 3 * l2 + 1, (6 * l2 - 6 * l) / h
    if kind == 2:
        return -2 * l3 + 3 * l2, (-6 * l2 + 6 * l) / h
    if kind == 3:
        return (l3 - 2 * l2 + l) * h, 3 * l2 - 4 * l + 1
    if kind == 4:
        return (l3 - l2) * h, 3 * l2 - 2 * l
    raise ValueError(f"kind must be 1..4, got {kind}")


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def assemble(area: AreaFunction, n: int, c: float, rho: float) -> WaveguideModel:
    """Assemble the 2n-DOF mass/stiffness pair and its conservative two-port.

    Every element shares the reference Gauss table: the four basis
    functions are evaluated once each on the n x 5 quadrature grid, and each
    element's 4 x 4 mass and stiffness blocks come from one product and sum
    over the quadrature axis.  ``np.add.at`` scatters them in element order
    into the full Hermite space (value DOFs 0..n, slope DOFs n+1..2n+1),
    whose two endpoint slopes n+1 and 2n+1 are then dropped.  The
    first-order system uses the singular-stiffness realisation path (K
    always has the constants in its kernel) with the medium density split
    as sqrt(rho) between the input and output maps, which makes B = C^T and
    the system exactly impedance conservative.
    """
    if not isinstance(n, numbers.Integral) or n < 2:
        raise BadGeometry(f"n must be an integer of at least 2 elements, got {n}")
    core._require_positive(BadGeometry, c=c, rho=rho)
    h = area.length / n
    xl, xr = np.arange(n)[:, None] * h, np.arange(1, n + 1)[:, None] * h
    xq = xl + 0.5 * (_GAUSS_X + 1.0) * h
    a_q = area(xq)
    # f[0] values, f[1] slopes, indexed (element, kind, point); each block is
    # multiplied and summed in the per-element loop's order, so M and K match it bit for bit
    f = np.moveaxis([hermite_basis_eval((xl, xr), kind, xq) for kind in (1, 2, 3, 4)],
                    (0, 1), (2, 0))
    weight = (np.stack([a_q / c**2, a_q]) * (0.5 * h * _GAUSS_W))[:, :, None, :]
    blocks = np.sum((weight * f)[:, :, :, None] * f[:, :, None], axis=-1)
    dofs = np.arange(n)[:, None] + [0, 1, n + 1, n + 2]
    MK = np.zeros((2, 2 * n + 2, 2 * n + 2))
    np.add.at(MK, (slice(None), dofs[:, :, None], dofs[:, None, :]), blocks)
    keep = np.r_[:n + 1, n + 2:2 * n + 1]
    M, K = (0.5 * (X + X.T) for X in MK[:, keep][:, :, keep])
    F = np.zeros((2 * n, 2))
    F[[0, n], [0, 1]] = 1.0
    so = SecondOrderSystem(M, np.zeros_like(M), K, F)
    sys0 = first_order_realization(so, method="colocated", split=(1, 1))
    system = sys0.replace(B=np.sqrt(rho) * sys0.B, C=np.sqrt(rho) * sys0.C)
    order = _interleaved_order(n)
    band = [_band_storage(X[np.ix_(order, order)], BANDWIDTH) for X in (M, K)]
    return WaveguideModel(system, M, K, n, float(c), float(rho), order, *band)


# ---------------------------------------------------------------------------
# geometry file I/O

_HEADER = "chi_m,area_m2"


def load_area_csv(path_or_file) -> AreaFunction:
    """Read an area CSV: header 'chi_m,area_m2', '#' comments ignored."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        lines = Path(path_or_file).read_text(encoding="utf-8").splitlines()
    nodes, areas = [], []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.replace(" ", "") != _HEADER:
                raise ParseError(f"line {lineno}: expected header '{_HEADER}', got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two comma-separated fields")
        try:
            nodes.append(float(parts[0]))
            areas.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not header_seen:
        raise ParseError("line 1: missing header")
    return AreaFunction(np.array(nodes), np.array(areas))


def save_area_csv(path_or_file, area: AreaFunction) -> None:
    """Write an area CSV that load_area_csv reads back bit-identically."""
    text = "".join([_HEADER + "\n"] + [f"{float(x)!r},{float(a)!r}\n"
                                        for x, a in zip(area.nodes, area.areas)])
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        Path(path_or_file).write_text(text, encoding="utf-8")
