"""Piston radiation impedance and its Loewner-framework rational interpolant.

The circular-piston impedance

    Z(s) = Z0 (1 - (c/(a s)) (i J1(-2ais/c) + H1(-2ais/c)))

needs the Bessel J1 and Struve H1 functions at complex arguments.  Both are
entire; we evaluate them by their power series up to |z| <= SERIES_RADIUS
(accumulated in extended precision to beat the catastrophic cancellation of
the alternating series near the real axis) and by Hankel-type asymptotic
expansions beyond, using the exact parities J1(-z) = -J1(z), H1(-z) = H1(z)
to stay in the right half-plane where the expansions converge fastest.
The supported envelope is |z| <= 200.

The Loewner stage samples Z at two conjugate-closed point families mu and
lambda, forms the divided-difference pencil (L, M), rotates it to real
matrices with the unitary pair transform, and reduces the order by
projecting onto the leading SVD subspaces of L.  Order-k reduction yields
the explicit load model (A, B, C) = (Lk^-1 Mk, -Lk^-1 Uk' b, c Vk) with
zero feedthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import StateSpaceSystem, _freeze, _gated_solve, _require_positive
from .errors import (
    CoincidentPoints,
    DimensionMismatch,
    NearSpectrum,
    OutOfEnvelope,
    PairingViolation,
    RankDeficient,
    ZeroFrequency,
)

#: Power series / asymptotics switch radius.  Above it the Hankel and
#: Struve tail expansions reach ~1e-9 relative accuracy; below it the
#: extended-precision series is exact to working accuracy.
SERIES_RADIUS = 24.0

#: Documented accuracy envelope of the special-function evaluators.
ENVELOPE_RADIUS = 200.0

#: Gate limit on reduce_order's projected pencil Lk = diag(sigma_1..k) of L,
#: whose measure is sigma_median / sigma_k (2e4 to 3e10 on the waveguide
#: loads, where cond_2 reaches 1e16): it guards only against an exactly
#: singular projection, as the extra directions are harmless.
PENCIL_LIMIT = 1e18

#: Log-spaced point pairs ``default_scheme`` places above its square.
_ANCHOR_PAIRS = 8

_LD = np.clongdouble


def _check_envelope(z: complex) -> complex:
    z = complex(z)
    if abs(z) > ENVELOPE_RADIUS:
        raise OutOfEnvelope(f"|z|={abs(z):.1f} exceeds supported radius {ENVELOPE_RADIUS}")
    return z


def _series(term, zz, a, b) -> complex:
    """Sum the alternating series whose k-th term is the previous one times
    -zz / ((k + a)(k + b)), starting from ``term``, in extended precision."""
    total = term
    for k in range(1, 200):
        term = -term * zz / ((k + a) * (k + b))
        total += term
        if abs(term) <= 1e-25 * abs(total) + _LD(1e-320):
            break
    return complex(total)


def _j1_series(z: complex) -> complex:
    half = _LD(z) / 2
    return _series(half, half * half, 0, 1)


def _h1_series(z: complex) -> complex:
    half = _LD(z) / 2
    zz = half * half
    # (z/2)^2 / (Gamma(3/2) Gamma(5/2))
    return _series(zz / _LD(3 * np.pi / 8), zz, _LD(0.5), _LD(1.5))


def _hankel_pq(z: complex) -> tuple[complex, complex]:
    """P and Q sums of the order-1 Hankel asymptotic expansion at z."""
    a = 1.0
    P = 0.0 + 0.0j
    Q = 0.0 + 0.0j
    zpow = 1.0 + 0.0j
    last = np.inf
    for k in range(60):
        term = a / zpow
        if abs(term) > last:
            break  # asymptotic tail started diverging; stop at the smallest term
        last = abs(term)
        if k % 2 == 0:
            P += term * (-1) ** (k // 2)
        else:
            Q += term * (-1) ** ((k - 1) // 2)
        a = a * (4.0 - (2 * k + 1) ** 2) / (8.0 * (k + 1))
        zpow = zpow * z
    return P, Q


def _j1_y1_asym(z: complex) -> tuple[complex, complex]:
    P, Q = _hankel_pq(z)
    w = z - 0.75 * np.pi
    amp = np.sqrt(2.0 / (np.pi * z))
    return amp * (P * np.cos(w) - Q * np.sin(w)), amp * (P * np.sin(w) + Q * np.cos(w))


def _h1_minus_y1_asym(z: complex) -> complex:
    # t0 = 2/pi, t_{k+1} = -t_k (4k^2 - 1)/z^2; truncate at the smallest term
    t = 2.0 / np.pi
    total = t
    zz = z * z
    last = abs(t)
    for k in range(40):
        t = -t * (4 * k * k - 1) / zz
        if abs(t) > last:
            break
        total += t
        last = abs(t)
    return total


def bessel_j1(z: complex) -> complex:
    """Bessel function of the first kind, order 1, complex argument."""
    z = _check_envelope(z)
    if abs(z) <= SERIES_RADIUS:
        return _j1_series(z)
    if z.real < 0:
        return -bessel_j1(-z)
    j1, _ = _j1_y1_asym(z)
    return j1


def struve_h1(z: complex) -> complex:
    """Struve function of order 1, complex argument."""
    z = _check_envelope(z)
    if abs(z) <= SERIES_RADIUS:
        return _h1_series(z)
    if z.real < 0:
        return struve_h1(-z)
    _, y1 = _j1_y1_asym(z)
    return y1 + _h1_minus_y1_asym(z)


@dataclass(frozen=True)
class PistonParams:
    """Circular piston radiating into a half space: aperture and medium."""

    a: float
    rho: float
    c: float

    def __post_init__(self):
        _require_positive(DimensionMismatch, a=self.a, rho=self.rho, c=self.c)

    @property
    def aperture_area(self) -> float:
        return np.pi * self.a**2

    @property
    def Z0(self) -> float:
        """Characteristic impedance rho c / (pi a^2) of the matched duct."""
        return self.rho * self.c / self.aperture_area

    @classmethod
    def from_mouth_area(cls, area: float, rho: float, c: float) -> "PistonParams":
        return cls(a=float(np.sqrt(area / np.pi)), rho=rho, c=c)


def piston_impedance(s: complex, p: PistonParams) -> complex:
    """Acoustic radiation impedance Z(s) of the piston model.

    Real on the real axis (Z(conj s) = conj Z(s)); the s = 0 value is a
    removable zero of the formula but the evaluation path divides by s, so
    zero is rejected explicitly.
    """
    s = complex(s)
    if s == 0:
        raise ZeroFrequency("piston impedance formula is singular at s = 0")
    w = -2j * p.a * s / p.c
    _check_envelope(w)
    return p.Z0 * (1.0 - (p.c / (p.a * s)) * (1j * bessel_j1(w) + struve_h1(w)))


# ---------------------------------------------------------------------------
# Loewner interpolation


@dataclass(frozen=True)
class InterpolationScheme:
    """Two families of m interpolation points each, conjugate-closed.

    Consecutive points pair as (p, conj(p)); no point may be real, repeat,
    or appear in both families.
    """

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=complex).reshape(-1)
        lam = np.asarray(self.lam, dtype=complex).reshape(-1)
        m = mu.size
        if m == 0 or m % 2 != 0 or lam.size != m:
            raise DimensionMismatch(f"need equal even point counts, got {mu.size}, {lam.size}")
        for name, pts in (("mu", mu), ("lambda", lam)):
            if np.any(pts.imag == 0.0):
                raise DimensionMismatch(f"{name} contains real points")
            if np.unique(pts).size != m:
                raise DimensionMismatch(f"{name} contains repeated points")
            pairs = pts.reshape(-1, 2)
            if not np.allclose(pairs[:, 1], np.conj(pairs[:, 0]), rtol=0, atol=0):
                raise DimensionMismatch(
                    f"{name} must list conjugate pairs consecutively")
        if np.intersect1d(mu, lam).size:
            raise CoincidentPoints("mu and lambda must be disjoint")
        _freeze(self, mu=mu, lam=lam)

    @property
    def m(self) -> int:
        return self.mu.size

    def to_json(self) -> dict:
        return {"mu_re": self.mu.real.tolist(), "mu_im": self.mu.imag.tolist(),
                "lambda_re": self.lam.real.tolist(), "lambda_im": self.lam.imag.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "InterpolationScheme":
        mu = np.asarray(obj["mu_re"]) + 1j * np.asarray(obj["mu_im"])
        lam = np.asarray(obj["lambda_re"]) + 1j * np.asarray(obj["lambda_im"])
        return cls(mu, lam)


@dataclass(frozen=True)
class DescriptorInterpolant:
    """Loewner pencil (L, M) with sample vectors b, c; descriptor form

        L v' = M v - b i(t),   p(t) = c^T v,

    so the transfer function is -c^T (sL - M)^-1 b.  After realification
    everything is real; ``reduced`` holds the explicit SVD-projected system
    once reduce_order has run, and ``singular_values`` the drop report.
    """

    L_mat: np.ndarray
    M_mat: np.ndarray
    b: np.ndarray
    c: np.ndarray
    is_real: bool
    reduced: Optional[StateSpaceSystem] = None
    singular_values: Optional[np.ndarray] = field(default=None)

    @property
    def order(self) -> int:
        return self.L_mat.shape[0]

    def transfer(self, s: complex) -> complex:
        """Descriptor transfer -c^T (sL - M)^-1 b by a direct solve; only an
        exactly singular sL - M raises NearSpectrum (full-order Loewner
        pencils are numerically singular by design, so no condition gate)."""
        try:
            x = np.linalg.solve(s * self.L_mat - self.M_mat, self.b)
        except np.linalg.LinAlgError:
            raise NearSpectrum(f"s={s}: sL - M is singular") from None
        return complex(-self.c @ x)


def loewner_matrices(scheme: InterpolationScheme, values_mu: np.ndarray,
                     values_lam: np.ndarray) -> DescriptorInterpolant:
    """Build the (complex) Loewner and shifted Loewner matrices from samples."""
    mu = scheme.mu
    lam = scheme.lam
    vm = np.asarray(values_mu, dtype=complex).reshape(-1)
    vl = np.asarray(values_lam, dtype=complex).reshape(-1)
    if vm.size != mu.size or vl.size != lam.size:
        raise DimensionMismatch("sample counts do not match the scheme")
    # the scheme keeps mu and lambda disjoint, so no denominator vanishes
    denom = mu[:, None] - lam[None, :]
    L = (vm[:, None] - vl[None, :]) / denom
    M = (mu[:, None] * vm[:, None] - lam[None, :] * vl[None, :]) / denom
    return DescriptorInterpolant(L, M, vm.copy(), vl.copy(), is_real=False)


def _pair_rotation(m: int) -> np.ndarray:
    U = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0)
    return np.kron(np.eye(m // 2, dtype=complex), U)


def realify(interp: DescriptorInterpolant) -> DescriptorInterpolant:
    """Rotate a conjugate-paired interpolant to purely real matrices.

    The per-pair unitary (1/sqrt2) [[1, -i], [1, i]] sends conjugate
    structure to real entries and leaves the transfer function unchanged.
    Residual imaginary parts above 1e-12 of the matrix scale mean the data
    was not conjugate-symmetric and raise PairingViolation.
    """
    if interp.is_real:
        return interp
    m = interp.order
    J = _pair_rotation(m)
    Lr = J.conj().T @ interp.L_mat @ J
    Mr = J.conj().T @ interp.M_mat @ J
    br = J.conj().T @ interp.b
    cr = interp.c @ J
    scale = max(np.abs(X).max() for X in (Lr, Mr, br, cr))
    resid = max(np.abs(X.imag).max() for X in (Lr, Mr, br, cr))
    if resid > 1e-12 * (1.0 + scale):
        raise PairingViolation(
            f"imaginary residue {resid:.3e} after rotation; data is not conjugate-symmetric")
    return DescriptorInterpolant(Lr.real, Mr.real, br.real, cr.real, is_real=True)


def reduce_order(interp: DescriptorInterpolant, k: int) -> DescriptorInterpolant:
    """Project onto the k leading SVD directions of L and realise explicitly.

    Returns a copy of the interpolant with ``reduced`` set to the
    single-port system (Lk^-1 Mk, -Lk^-1 Uk' b, c Vk, 0) and
    ``singular_values`` carrying the full spectrum of L for drop reports.
    Raises RankDeficient when the projected pencil is numerically singular
    (the gate of ``core._gated_solve`` at PENCIL_LIMIT).
    """
    if not interp.is_real:
        interp = realify(interp)
    m = interp.order
    if not 1 <= k <= m:
        raise DimensionMismatch(f"order k={k} outside 1..{m}")
    U, S, Vt = np.linalg.svd(interp.L_mat)
    Uk = U[:, :k]
    Vk = Vt[:k].T
    Lk = Uk.T @ interp.L_mat @ Vk
    Mk = Uk.T @ interp.M_mat @ Vk
    X = _gated_solve(Lk, np.column_stack([Mk, Uk.T @ interp.b]), RankDeficient,
                     f"projected Loewner pencil is numerically singular at order {k}",
                     floor=1.0 / PENCIL_LIMIT)
    A, B = X[:, :k], -X[:, k:]
    C = (interp.c @ Vk).reshape(1, -1)
    sys = StateSpaceSystem(A, B, C, np.zeros((1, 1)), split=(1, 0))
    return DescriptorInterpolant(interp.L_mat, interp.M_mat, interp.b, interp.c,
                                 is_real=True, reduced=sys, singular_values=S)


def sample_function(scheme: InterpolationScheme,
                    fn: Callable[[complex], complex]) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate fn on both point families of the scheme."""
    vm = np.array([fn(s) for s in scheme.mu], dtype=complex)
    vl = np.array([fn(s) for s in scheme.lam], dtype=complex)
    return vm, vl


def default_scheme(p: PistonParams, m: int, seed: int, square: float = 3e5,
                   anchor_band: Optional[tuple[float, float]] = None) -> InterpolationScheme:
    """Point placement for the piston: |Z| minima plus random square fill.

    Places conjugate pairs near the minima of |Z(i w)| found by a coarse
    grid search (the function's "zeros"), then fills with uniform random
    points in the square { |Re s|, |Im s| <= square } restricted to the
    left half-plane.  ``anchor_band = (lo, hi)`` adds _ANCHOR_PAIRS
    log-spaced pairs hugging the imaginary axis above the square; coupling
    a waveguide whose modes extend past the square needs those anchors to
    keep the reduced load resistive there; m must hold every minimum and
    anchor pair (DimensionMismatch otherwise).  Deterministic for a given seed.
    """
    if m % 2 != 0 or m < 4:
        raise DimensionMismatch(f"m must be even and >= 4, got {m}")
    rng = np.random.default_rng(seed)
    pts: list[complex] = []
    wgrid = np.linspace(square / 2000.0, square, 2048)
    mags = np.abs([piston_impedance(1j * w, p) for w in wgrid])
    minima = [wgrid[i] for i in range(1, wgrid.size - 1)
              if mags[i] < mags[i - 1] and mags[i] < mags[i + 1]]
    for w in minima[:4]:
        pts.append(complex(-0.02 * square, w))
    if anchor_band is not None:
        lo, hi = anchor_band
        for w in np.geomspace(max(lo, square * 1.05), hi, _ANCHOR_PAIRS):
            pts.append(complex(-0.01 * square, w))
    if len(pts) > m:  # m points per family = m pairs across both families
        raise DimensionMismatch(f"m={m} cannot hold the {len(pts)} |Z|-minimum and "
                                f"anchor pairs; need m >= {len(pts) + len(pts) % 2}")
    while len(pts) < m:
        pts.append(complex(-rng.uniform(1e-3, 1.0) * square,
                           rng.uniform(1e-3, 1.0) * square))
    pairs = np.empty((m, 2), dtype=complex)
    pairs[:, 0] = np.array(pts)
    pairs[:, 1] = np.conj(pairs[:, 0])
    mu = pairs[0::2].reshape(-1)
    lam = pairs[1::2].reshape(-1)
    return InterpolationScheme(mu, lam)
