"""State-space system values and their realisation algebra.

Systems are immutable quadruples (A, B, C, D) with a declared port split
(m1, m2), m1 + m2 = m.  Every operation returns a fresh system; nothing here
mutates shared state, so all functions are safe to call concurrently.

The transfer function is G(s) = D + C (sI - A)^-1 B, always evaluated by a
linear solve with a reciprocal-condition gate, never by an explicit inverse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NearSpectrum, SingularBlock

#: Relative reciprocal-condition threshold below which a resolvent solve
#: is rejected as "on top of the spectrum".
RCOND_FLOOR = 1e-12

#: Condition limit for one-off block inversions (transforms, Cayley steps,
#: feedback loop); sites with their own limit pass it to ``_gate``.
COND_LIMIT = 1e12

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
        if not (float(self.sigma) > 0.0):
            raise DimensionMismatch(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))
        _freeze_quadruple(self, ("Ad", "Bd", "Cd", "Dd"))

    @property
    def n(self) -> int:
        return self.Ad.shape[0]

    @property
    def m(self) -> int:
        return self.Dd.shape[0]


@dataclass(frozen=True)
class PortSignalFrame:
    """One sample of the four port signals, widths matching a system split."""

    u1: np.ndarray
    u2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray

    def check(self, split: tuple[int, int]) -> None:
        m1, m2 = split
        for name, vec, width in (("u1", self.u1, m1), ("u2", self.u2, m2),
                                 ("y1", self.y1, m1), ("y2", self.y2, m2)):
            if np.asarray(vec).reshape(-1).shape != (width,):
                raise DimensionMismatch(f"{name} must have width {width}")


def _condition(M: np.ndarray, scale: float | None = None) -> float:
    """scale / sigma_min(M) from one SVD; ``scale`` defaults to sigma_max
    (the 2-norm condition number).  inf for singular M, 1.0 for empty M."""
    if M.size == 0:
        return 1.0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] == 0.0:
        return np.inf
    return float((sv[0] if scale is None else scale) / sv[-1])


def _gate(M: np.ndarray, exc_type, message: str, limit: float = COND_LIMIT) -> None:
    """Raise exc_type(message) when cond_2(M) exceeds ``limit``; the message
    may reference the measured condition as ``{cond}``."""
    cond = _condition(M)
    if cond > limit:
        raise exc_type(message.format(cond=cond))


def _gated_inv(M: np.ndarray, exc_type, name: str) -> np.ndarray:
    """Invert square M, raising exc_type with the block name if cond > COND_LIMIT."""
    _gate(M, exc_type, name + " is numerically singular (condition {cond:.3e})")
    return np.linalg.inv(M)


def _gated_solve(M: np.ndarray, rhs: np.ndarray, message: str) -> np.ndarray:
    """Solve M X = rhs, rejecting solves whose smallest singular value sits
    below RCOND_FLOOR times the typical row magnitude of M.

    The solve itself runs on the row/column-equilibrated matrix (stiff
    systems keep full accuracy that way), and sigma_min is estimated by
    deterministic inverse-power probes through the same factorisation.
    Measuring sigma_min against the *median* row scale rather than
    sigma_max keeps the gate meaningful for stiff systems, where one huge
    decoupled mode would otherwise condemn every solve.
    """
    r = np.abs(M).max(axis=1)
    if np.any(r == 0.0) or not np.all(np.isfinite(r)):
        raise NearSpectrum(message + " (zero or non-finite row)")
    Mr = M / r[:, None]
    c = np.abs(Mr).max(axis=0)
    c[c == 0.0] = 1.0
    Ms = Mr / c[None, :]
    try:
        with warnings.catch_warnings():
            # exact singularity is an anticipated, gated condition here
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(Ms, check_finite=False)
    except scipy.linalg.LinAlgError:
        raise NearSpectrum(message + " (singular factorisation)") from None

    def apply_inverse(y: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return scipy.linalg.lu_solve((lu, piv), y / r[:, None],
                                         check_finite=False) / c[:, None]

    n = M.shape[0]
    probe_rng = np.random.default_rng(0x5EED)
    scale = float(np.median(r))
    inv_norm = 0.0
    with np.errstate(all="ignore"):
        for _ in range(2):
            y = probe_rng.standard_normal(n) + 1j * probe_rng.standard_normal(n)
            y /= np.linalg.norm(y)
            x = apply_inverse(y[:, None])[:, 0]
            nx = np.linalg.norm(x)
            if not np.isfinite(nx):
                raise NearSpectrum(message + " (singular solve)")
            # one inverse-power refinement sharpens the estimate
            x2 = apply_inverse((x / nx)[:, None])[:, 0]
            nx2 = np.linalg.norm(x2)
            if not np.isfinite(nx2):
                raise NearSpectrum(message + " (singular solve)")
            inv_norm = max(inv_norm, nx, nx2)
    sigma_min_est = 1.0 / inv_norm if inv_norm > 0 else np.inf
    if not np.isfinite(sigma_min_est) or sigma_min_est < RCOND_FLOOR * scale:
        raise NearSpectrum(message + f" (sigma_min ~ {sigma_min_est:.2e} "
                                     f"vs row scale {scale:.2e})")
    return apply_inverse(rhs)


def transfer_function(sys: StateSpaceSystem, s: complex) -> np.ndarray:
    """Evaluate G(s) = D + C (sI - A)^-1 B by direct solve; raise
    NearSpectrum when s sits on the spectrum of A."""
    if sys.n == 0:
        return sys.D.astype(complex)
    s = complex(s)
    X = _gated_solve(s * np.eye(sys.n) - sys.A, sys.B.astype(complex),
                     f"s={s} is numerically on the spectrum of A")
    return sys.D + sys.C @ X


def discrete_transfer_function(phi: DiscreteSystem, z: complex) -> np.ndarray:
    """Evaluate the discrete transfer D(z) = Dd + z Cd (I - z Ad)^-1 Bd.

    The variable lives in the unit disk (z = 1/zeta for the usual
    z-transform variable zeta), which is the convention under which the
    internal Cayley transform satisfies D(z) = G(sigma (1-z)/(1+z)).
    """
    if phi.n == 0:
        return phi.Dd.astype(complex)
    z = complex(z)
    M = np.eye(phi.n) - z * phi.Ad
    X = _gated_solve(M, phi.Bd.astype(complex),
                     f"z={z}: I - z Ad is numerically singular")
    return phi.Dd + z * (phi.Cd @ X)


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


def cascade_product(p: StateSpaceSystem, q: StateSpaceSystem) -> StateSpaceSystem:
    """G_p(s) G_q(s) via the block upper-triangular realisation."""
    if p.m != q.m:
        raise DimensionMismatch(f"cascade needs equal signal width, got {p.m} vs {q.m}")
    A = np.block([[p.A, p.B @ q.C],
                  [np.zeros((q.n, p.n)), q.A]])
    B = np.vstack([p.B @ q.D, q.B])
    C = np.hstack([p.C, p.D @ q.C])
    return StateSpaceSystem(A, B, C, p.D @ q.D, split=p.split)


def similarity(sys: StateSpaceSystem, T: np.ndarray) -> StateSpaceSystem:
    """Change state coordinates x -> T^-1 x; the transfer function is unchanged."""
    T = _as_matrix("T", T, (sys.n, sys.n))
    Tinv = _gated_inv(T, SingularBlock, "T")
    return sys.replace(A=Tinv @ sys.A @ T, B=Tinv @ sys.B, C=sys.C @ T)


def _stacked_rank(blocks: list[np.ndarray]) -> int:
    # normalising each power block rescales columns only, which preserves the
    # span; without it physical systems (|A| ~ 1e7) grade the Kalman matrix
    # across dozens of decades and the SVD cut sees nothing past A B
    scaled = []
    for blk in blocks:
        nrm = np.linalg.norm(blk)
        scaled.append(blk / nrm if nrm > 0 else blk)
    M = np.hstack(scaled) if scaled else np.zeros((0, 0))
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_RTOL * sv[0]))


def minimality(sys: StateSpaceSystem) -> tuple[int, int, bool]:
    """Kalman ranks (controllability, observability) and the minimality flag."""
    n = sys.n
    ctrb, obsv = [], []
    Bk, Ck = sys.B, sys.C
    for _ in range(max(n, 1)):
        ctrb.append(Bk)
        obsv.append(Ck.T)
        Bk = sys.A @ Bk
        Ck = Ck @ sys.A
    rc = _stacked_rank(ctrb) if n else 0
    ro = _stacked_rank(obsv) if n else 0
    return rc, ro, (rc == n and ro == n)


def _spectrum_scale(sys: StateSpaceSystem) -> tuple[float, float]:
    if sys.n == 0:
        return 1.0, 1.0
    mags = np.abs(np.linalg.eigvals(sys.A))
    lo = float(np.min(mags[mags > 0], initial=1.0))
    hi = float(np.max(mags, initial=1.0))
    return max(lo, 1e-6), max(hi, 1.0)


def io_equivalent(p: StateSpaceSystem, q: StateSpaceSystem, tol: float = 1e-8,
                  seed: int = 0) -> bool:
    """Sampled I/O equivalence: compare transfers at n_p + n_q + 1 points.

    That many agreement points exceed the McMillan-degree bound, so two
    distinct rational functions of these orders cannot pass.  This is a
    numerical surrogate for algebraic equality, not an exact decision.
    Points are deterministic pseudo-random, log-spaced in magnitude across
    both spectra and kept off the real axis; a NearSpectrum hit is retried
    with fresh points (at most 5 rounds).
    """
    if p.m != q.m:
        raise DimensionMismatch(f"io_equivalent needs equal signal width, got {p.m} vs {q.m}")
    npts = p.n + q.n + 1
    (lo_p, hi_p), (lo_q, hi_q) = _spectrum_scale(p), _spectrum_scale(q)
    lo, hi = min(lo_p, lo_q), max(hi_p, hi_q)
    for attempt in range(5):
        rng = np.random.default_rng(seed + 7919 * attempt)
        mags = np.exp(rng.uniform(np.log(0.3 * lo), np.log(3.0 * hi), npts))
        angles = rng.uniform(0.15, np.pi - 0.15, npts)  # keep clear of the real axis
        pts = mags * np.exp(1j * angles)
        try:
            worst = 0.0
            for s in pts:
                Gp = transfer_function(p, s)
                Gq = transfer_function(q, s)
                scale = max(np.abs(Gp).max(), np.abs(Gq).max())
                diff = np.abs(Gp - Gq).max()
                if scale == 0.0:
                    continue
                worst = max(worst, diff / scale)
            return worst <= tol
        except NearSpectrum:
            continue
    raise NearSpectrum("could not find sample points clear of both spectra in 5 rounds")


# ---------------------------------------------------------------------------
# JSON exchange format

_SYSTEM_FIELDS = ("A", "B", "C", "D")


def system_to_json(sys: StateSpaceSystem | DiscreteSystem) -> dict:
    """Serialise a system to the shared JSON exchange format."""
    if isinstance(sys, DiscreteSystem):
        mats = dict(zip(_SYSTEM_FIELDS, (sys.Ad, sys.Bd, sys.Cd, sys.Dd)))
        extra = {"sigma": sys.sigma}
    else:
        mats = dict(zip(_SYSTEM_FIELDS, (sys.A, sys.B, sys.C, sys.D)))
        extra = {}
    out = {"n": sys.n, "m1": sys.split[0], "m2": sys.split[1]}
    out.update({k: np.asarray(v).tolist() for k, v in mats.items()})
    out.update(extra)
    return out


def system_from_json(obj: dict) -> StateSpaceSystem | DiscreteSystem:
    """Parse a system from the JSON exchange format, naming bad fields."""
    for key in ("n", "m1", "m2", *_SYSTEM_FIELDS):
        if key not in obj:
            raise DimensionMismatch(f"system JSON is missing field '{key}'")
    n, m1, m2 = int(obj["n"]), int(obj["m1"]), int(obj["m2"])
    m = m1 + m2
    mats = {}
    for key, shape in zip(_SYSTEM_FIELDS, ((n, n), (n, m), (m, n), (m, m))):
        arr = np.asarray(obj[key], dtype=float)
        arr = arr.reshape(shape) if arr.size == np.prod(shape) and arr.shape != shape else arr
        if arr.shape != shape:
            raise DimensionMismatch(f"field '{key}' has shape {arr.shape}, expected {shape}")
        mats[key] = arr
    if "sigma" in obj and obj["sigma"] is not None:
        return DiscreteSystem(mats["A"], mats["B"], mats["C"], mats["D"],
                              sigma=float(obj["sigma"]), split=(m1, m2))
    return StateSpaceSystem(mats["A"], mats["B"], mats["C"], mats["D"], split=(m1, m2))

