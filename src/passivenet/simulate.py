"""Time stepping, excitation signals, resonance lists and frequency sweeps.

Stepping runs the discrete quadruple of the internal Cayley transform in
blocks: the run is cut into about sqrt(N) blocks of about sqrt(N) steps,
each block's first state comes from a short scan with Ad^L, and then all
blocks advance together, one matrix-matrix product per step offset, so the
dense work is BLAS-3 and Python iterates about 3 sqrt(N) times instead
of N.  For conservative systems the per-step impedance balance

    |x_{j+1}|^2 - |x_j|^2 = 2 <u_j, y_j>

holds as an identity and can be recorded alongside the outputs.

Frequency sweeps evaluate G(2 pi i f) through the swept object's own
``transfer_values``: a StateSpaceSystem factors A once per sweep (one
resolvent plan), and a composed waveguide solves its terminated banded
pencil per point.  Points that either gate rejects are flagged rather than
fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import DiscreteSystem, StateSpaceSystem, _as_matrix, _require_positive
from .errors import DimensionMismatch, NonPositive


# ---------------------------------------------------------------------------
# stepping


def step_response(phi: DiscreteSystem, inputs: np.ndarray,
                  x0: Optional[np.ndarray] = None,
                  record_energy=False, observe: Optional[np.ndarray] = None):
    """Run the exact recursion x_{j+1} = Ad x_j + Bd u_j, y_j = Cd x_j + Dd u_j.

    ``inputs`` has one row per step.  ``record_energy`` selects a per-step
    balance to record: "impedance" (or True) stores the defect
    |x_{j+1}|^2 - |x_j|^2 - 2 <u_j, y_j>, "scattering" stores
    |x_{j+1}|^2 - |x_j|^2 - (|u_j|^2 - |y_j|^2); either is <= 0 for a
    passive system of that type and zero for a conservative one up to
    roundoff.  The recorded return value is (outputs, balance, states).

    ``observe`` (p x n, or one row of length n) reads the state without
    recording it: the outputs gain p columns, column m + r holding
    observe[r] . x_j, and their first m columns keep the same bits.

    The N steps run as nb = ceil(N / L) blocks of L = ceil(sqrt(N)) steps
    (``_block_starts`` gives each block's first state).  All blocks then take
    their i-th step together: [x_{j+1}, y_j] = [x_j, u_j] [[Ad', Cd'],
    [Bd', Dd']] for j = bL + i, one GEMM over the blocks per offset i.  Each
    balance pairs x_j with that one-step successor, not with the next
    block's start, so it means the same at block seams as anywhere else.
    Working memory is nb x n; only the recorded ``states`` are N x n, and
    the readouts cost one nb x p product per offset.

    Inside a block the arithmetic is the per-step recursion's; the block
    starts carry the rounding of Ad^L.  Rescaling the state units leaves
    that rounding alone, but a strongly non-normal Ad amplifies it: the
    waveguide composites (|Ad| about 1e3) stay within 4e-12 normwise of a
    per-step loop, while a 2-state Ad of norm 640 in coordinates of
    condition 1e3 is off by 3e-8.  L follows from N, so runs whose inputs
    share a prefix agree on it to the same roundoff (up to 2.2e-11 on the
    composites), not bit for bit; repeating a call is bit-identical.
    """
    if record_energy is True:
        record_energy = "impedance"
    if record_energy not in (False, "impedance", "scattering"):
        raise DimensionMismatch(f"unknown energy mode {record_energy!r}")
    U = _as_matrix("inputs", np.atleast_2d(inputs))
    if U.shape[1] != phi.m:
        raise DimensionMismatch(f"inputs have width {U.shape[1]}, system has m={phi.m}")
    nsteps = U.shape[0]
    x = np.zeros(phi.n) if x0 is None else _as_matrix("x0", np.reshape(x0, (1, -1)))[0]
    if x.shape != (phi.n,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({phi.n},)")
    n, m = phi.n, phi.m
    if observe is not None:
        observe = _as_matrix("observe", np.atleast_2d(observe))
        if observe.shape[1] != n:
            raise DimensionMismatch(f"observe has width {observe.shape[1]}, system has n={n}")
    Y = np.empty((nsteps, m + (0 if observe is None else observe.shape[0])))
    balance = np.empty(nsteps) if record_energy else None
    states = np.empty((nsteps, n)) if record_energy else None
    if nsteps:
        L = math.isqrt(nsteps - 1) + 1
        # row b of Z is [x_j, u_j] of block b at its current step j = bL + i
        Z = np.concatenate([_block_starts(phi, U, x, L), U[::L]], axis=1)
        Zn = np.empty_like(Z)
        step = np.block([[phi.Ad.T, phi.Cd.T], [phi.Bd.T, phi.Dd.T]])
        if record_energy:
            energy = np.einsum("ij,ij->i", Z[:, :n], Z[:, :n])
        for i in range(L):
            k = (nsteps - i + L - 1) // L      # blocks that still have step i
            z, zn = Z[:k], Zn[:k]
            np.matmul(z, step, out=zn)         # zn = [x_{j+1}, y_j]
            u, y = z[:, n:], zn[:, n:]
            Y[i::L, :m] = y
            if observe is not None:
                Y[i::L, m:] = z[:, :n] @ observe.T
            if record_energy:
                states[i::L] = z[:, :n]
                energy_next = np.einsum("ij,ij->i", zn[:, :n], zn[:, :n])
                supply = 2.0 * np.einsum("ij,ij->i", u, y) if record_energy == "impedance" \
                    else np.einsum("ij,ij->i", u, u) - np.einsum("ij,ij->i", y, y)
                balance[i::L] = (energy_next - energy[:k]) - supply
                energy = energy_next
            if i + 1 < L:
                u_next = U[i + 1::L]
                zn[:len(u_next), n:] = u_next
            Z, Zn = Zn, Z
    if record_energy:
        return Y, balance, states
    return Y


def _block_starts(phi: DiscreteSystem, U: np.ndarray, x0: np.ndarray, L: int) -> np.ndarray:
    """States x_{bL} of every block b, by the scan x_{(b+1)L} = Ad^L x_{bL} + F_b.

    F_b = sum_k Ad^(L-1-k) Bd u_{bL+k} is one GEMM of the blocks' inputs with
    H = [Ad^(L-1) Bd, ..., Bd] (L - 1 thin products); Ad^L is formed by repeated
    squaring, and the scan costs one matvec per block.
    """
    n, m = phi.n, phi.m
    nb = -(-U.shape[0] // L)
    X = np.empty((nb, n))
    X[0] = x0
    if nb == 1:
        return X
    H = np.empty((L, m, n))                    # H[k] = (Ad^(L-1-k) Bd)'
    H[-1] = phi.Bd.T
    for k in range(L - 2, -1, -1):
        H[k] = H[k + 1] @ phi.Ad.T
    F = U[:(nb - 1) * L].reshape(nb - 1, L * m) @ H.reshape(L * m, n)
    Pt = np.linalg.matrix_power(phi.Ad, L).T
    for b in range(nb - 1):
        X[b + 1] = X[b] @ Pt + F[b]
    return X


# ---------------------------------------------------------------------------
# excitations


@dataclass(frozen=True)
class ExcitationSpec:
    """Excitation request: LF pulse train, logarithmic sweep or unit impulse.

    ``f0`` is the pulse rate (LF) or sweep start; ``f1`` the sweep end
    (defaults to 0.45 * sample_rate).  ``lf_shape`` is (open quotient,
    asymmetry, return-phase quotient), each in (0, 1); the defaults are a
    generic modal-voice shape.
    """

    kind: str
    f0: float
    duration: float
    sample_rate: float
    lf_shape: tuple[float, float, float] = (0.6, 0.7, 0.1)
    f1: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("LFPulseTrain", "LogSweep", "Impulse"):
            raise DimensionMismatch(f"unknown excitation kind {self.kind!r}")
        _require_positive(DimensionMismatch, sample_rate=self.sample_rate,
                          duration=self.duration, f0=self.f0)
        if self.n_samples < 1:
            raise DimensionMismatch(f"duration={self.duration} s at sample_rate="
                                    f"{self.sample_rate} Hz gives no samples")
        if not all(0.0 < v < 1.0 for v in self.lf_shape):
            raise DimensionMismatch("LF shape parameters must lie in (0, 1)")
        if self.f1 is not None and not (math.isfinite(self.f1) and self.f1 > self.f0):
            raise DimensionMismatch(f"sweep end f1={self.f1} must be finite and exceed "
                                    f"f0={self.f0}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


@dataclass(frozen=True)
class _LFWaveform:
    """Solved LF pulse: flow derivative parameters for one period T0."""

    T0: float
    Te: float
    Tp: float
    Ta: float
    alpha: float
    eps: float
    omega_g: float

    def flow(self, t: np.ndarray) -> np.ndarray:
        """Glottal flow U(t) = integral of the LF flow derivative, one period."""
        t = np.asarray(t, dtype=float)
        w, a = self.omega_g, self.alpha
        den = a * a + w * w
        U = np.empty_like(t)
        rising = t <= self.Te
        tr = t[rising]
        U[rising] = (np.exp(a * tr) * (a * np.sin(w * tr) - w * np.cos(w * tr)) + w) / den
        Ue = (math.exp(a * self.Te) * (a * math.sin(w * self.Te)
                                       - w * math.cos(w * self.Te)) + w) / den
        Ee = -math.exp(a * self.Te) * math.sin(w * self.Te)
        Td = self.T0 - self.Te
        tq = t[~rising] - self.Te
        decay = (1.0 - np.exp(-self.eps * tq)) / self.eps - tq * math.exp(-self.eps * Td)
        U[~rising] = Ue - (Ee / (self.eps * self.Ta)) * decay
        return U


def _brentq(f, xa: float, xb: float) -> Optional[float]:
    """A root of f between xa and xb by Brent's method, or None.

    A port of scipy.optimize.brentq at its defaults, xtol = 2e-12,
    rtol = 4 eps and 100 iterations (scipy's brentq.c: the same operations
    in the same order, so the same root bit for bit).  None means f(xa) and
    f(xb) share a sign, f gave NaN, or 100 iterations did not converge.
    Importing scipy.optimize for it would load scipy's sparse, spatial,
    special and fft packages too: about 20 MB and 0.14 s.
    """
    xtol, rtol = 2e-12, 4 * np.finfo(float).eps
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        return None
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry       # good short step
            else:
                spre = scur = sbis            # bisect
        else:
            spre = scur = sbis                # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            return None
    return None


# net_flow evaluates exp(a Te), which overflows once a Te passes this
_LF_EXPONENT_CAP = math.log(np.finfo(float).max)


def _solve_lf(f0: float, shape: tuple[float, float, float]) -> _LFWaveform:
    oq, am, qa = shape
    T0 = 1.0 / f0
    Te = oq * T0
    Tp = am * Te
    Ta = qa * (T0 - Te)
    omega_g = math.pi / Tp
    Td = T0 - Te

    def root(f, lo, hi, what):
        x = _brentq(f, lo, hi)
        if x is None:
            raise DimensionMismatch(f"lf_shape={shape} at f0={f0} Hz: no {what} "
                                    f"in [{lo:.6g}, {hi:.6g}]")
        return x

    # eps solves eps*Ta = 1 - exp(-eps*Td)
    eps = root(lambda e: e * Ta - 1.0 + math.exp(-e * Td), 1e-9 / Ta, 1e3 / Ta,
               "return-phase decay rate")

    def net_flow(a: float) -> float:
        # closed-form integral of E over [0, T0]; zero net flow closes the pulse
        den = a * a + omega_g * omega_g
        area1 = (omega_g - math.exp(a * Te) * (omega_g * math.cos(omega_g * Te)
                                               - a * math.sin(omega_g * Te))) / den
        Ee = -math.exp(a * Te) * math.sin(omega_g * Te)
        area2 = -(Ee / (eps * Ta)) * ((1.0 - math.exp(-eps * Td)) / eps
                                      - Td * math.exp(-eps * Td))
        return area1 + area2

    lo, hi = -5.0 / Te, 20.0 / Te
    flo, fhi = net_flow(lo), net_flow(hi)
    while flo * fhi > 0 and 2.0 * hi * Te < _LF_EXPONENT_CAP:
        hi *= 2
        fhi = net_flow(hi)
    alpha = root(net_flow, lo, hi, "growth rate alpha that closes the pulse")
    return _LFWaveform(T0, Te, Tp, Ta, alpha, eps, omega_g)


def lf_pulse_train(spec: ExcitationSpec) -> np.ndarray:
    """Liljencrants-Fant glottal flow pulses, peak-normalised, >= 0.

    Sampled by evaluating the continuous one-period flow at t mod T0, so a
    fractional period (e.g. 367.5 samples at 120 Hz / 44.1 kHz) accumulates
    exactly instead of drifting.  The samples must reach the first flow
    peak Tp = asymmetry * open quotient / f0, or there is no peak to scale by.
    """
    wf = _solve_lf(spec.f0, spec.lf_shape)
    t = np.arange(spec.n_samples) / spec.sample_rate
    if t[-1] < wf.Tp:  # no sample at or past the first flow peak to normalise by
        raise DimensionMismatch(f"duration={spec.duration} s puts the last sample at "
                                f"{t[-1]:.4g} s, before the first LF flow peak at {wf.Tp:.4g} s")
    flow = wf.flow(np.mod(t, wf.T0))
    peak = flow.max()
    if peak <= 0:
        raise DimensionMismatch("LF solve produced a non-positive pulse")
    flow = flow / peak
    # the closure balance leaves O(roundoff) negatives at the period seam
    return np.clip(flow, 0.0, None)


def _sweep_end(spec: ExcitationSpec) -> float:
    """f1, or 0.45 * sample_rate by default; a sweep must rise."""
    f1 = spec.f1 if spec.f1 is not None else 0.45 * spec.sample_rate
    if f1 <= spec.f0:
        raise DimensionMismatch(f"sweep end {f1} must exceed start {spec.f0}")
    return f1


def log_sweep(spec: ExcitationSpec) -> np.ndarray:
    """Constant-amplitude logarithmic sweep from f0 to f1."""
    f1 = _sweep_end(spec)
    t = np.arange(spec.n_samples) / spec.sample_rate
    T = spec.duration
    r = math.log(f1 / spec.f0)
    phase = 2.0 * np.pi * spec.f0 * T / r * (np.exp(t * r / T) - 1.0)
    return np.sin(phase)


def sweep_instant_frequency(spec: ExcitationSpec, t: np.ndarray) -> np.ndarray:
    """Instantaneous frequency of the log sweep at times t."""
    r = math.log(_sweep_end(spec) / spec.f0)
    return spec.f0 * np.exp(np.asarray(t) * r / spec.duration)


def impulse(spec: ExcitationSpec) -> np.ndarray:
    out = np.zeros(spec.n_samples)
    out[0] = 1.0
    return out


def excitation_signal(spec: ExcitationSpec) -> np.ndarray:
    if spec.kind == "LFPulseTrain":
        return lf_pulse_train(spec)
    if spec.kind == "LogSweep":
        return log_sweep(spec)
    return impulse(spec)


# ---------------------------------------------------------------------------
# resonances and frequency responses


@dataclass(frozen=True)
class ResonanceList:
    """(frequency Hz, decay rate 1/s) per Im > 0 eigenvalue, sorted by frequency."""

    frequencies: np.ndarray
    decay_rates: np.ndarray

    def __len__(self) -> int:
        return self.frequencies.size

    def __iter__(self):
        return iter(zip(self.frequencies, self.decay_rates))


def resonances(sys: StateSpaceSystem) -> ResonanceList:
    """Resonances f = Im(lambda)/2pi with decay -Re(lambda), Im(lambda) > 0 only.

    Real eigenvalues (including the negative-real-axis spurious modes of
    interpolated loads) carry no oscillation and are excluded.
    """
    if sys.n == 0:
        return ResonanceList(np.empty(0), np.empty(0))
    lam = np.linalg.eigvals(sys.A)
    sel = lam.imag > 0.0
    order = np.argsort(lam.imag[sel])
    freqs = lam.imag[sel][order] / (2.0 * np.pi)
    decays = -lam.real[sel][order]
    return ResonanceList(freqs, decays)


@dataclass(frozen=True)
class FrequencyResponse:
    """G(2 pi i f) on a grid; ``ok[i]`` is False where the solve was gated."""

    frequencies: np.ndarray
    values: np.ndarray
    ok: np.ndarray

    def magnitude(self, row: int = 0, col: int = 0) -> np.ndarray:
        return np.abs(self.values[:, row, col])


def frequency_response(sys, frequencies_hz) -> FrequencyResponse:
    """Evaluate a transfer function along the imaginary axis.

    ``sys`` is anything with ``transfer_values(points) -> (values, ok)``:
    a StateSpaceSystem, or a ``pipelines.WaveguideComposite``, which
    evaluates its input impedance from its components.
    """
    freqs = np.asarray(frequencies_hz, dtype=float).reshape(-1)
    # 2 pi i f without a complex multiply, whose 0 * inf would warn: a
    # non-finite f gives a non-finite point, which the gates flag
    points = np.zeros(freqs.size, dtype=complex)
    points.imag = 2.0 * np.pi * freqs
    values, ok = sys.transfer_values(points)
    return FrequencyResponse(freqs, values, ok)


def semitone_discrepancy(f_model: float, f_target: float) -> float:
    """12 log2(f_model / f_target); both frequencies must be positive."""
    if not (f_model > 0 and f_target > 0):
        raise NonPositive(f"frequencies must be positive, got {f_model}, {f_target}")
    return 12.0 * math.log2(f_model / f_target)


# ---------------------------------------------------------------------------
# CSV output (17 significant digits so doubles round-trip exactly)


def _csv_text(names: list[str], columns) -> str:
    """Header ``names`` and one row per entry of the equal-length ``columns``."""
    rows = [",".join(names)]
    rows += [",".join(f"{v:.17g}" for v in row)
             for row in zip(*(np.asarray(c).tolist() for c in columns))]
    return "\n".join(rows) + "\n"


def _timeseries_csv(t: np.ndarray, columns: dict[str, np.ndarray]) -> str:
    return _csv_text(["t_s", *columns], [t, *columns.values()])


def _response_csv(resp: FrequencyResponse) -> str:
    """f_hz, then re/im of every G_ij, row-major in (i, j)."""
    n, m, _ = resp.values.shape
    heads = [f"{p}_{i+1}{j+1}" for i in range(m) for j in range(m) for p in ("re", "im")]
    parts = np.stack([resp.values.real, resp.values.imag], axis=-1).reshape(n, -1)
    return _csv_text(["f_hz", *heads], [resp.frequencies, *parts.T])


def write_timeseries_csv(path, t: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    Path(path).write_text(_timeseries_csv(t, columns), encoding="utf-8")


def write_response_csv(path, resp: FrequencyResponse) -> None:
    Path(path).write_text(_response_csv(resp), encoding="utf-8")
