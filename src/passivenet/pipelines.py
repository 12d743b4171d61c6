"""End-to-end applications: Butterworth pi-ladder and terminated waveguide.

Butterworth
-----------
Two lossless LC pi-circuits (shunt C1, series L, shunt C2) are coupled back
to back through shift-and-invert regularised external Cayley transforms and
the Redheffer star product, giving a 6-state scattering model whose
generator splits as A_eps = A(eps) + A'/eps with a rank-one symmetric A'.
Every realisation comes from one exact product, ``_rotated_product``,
written analytically in the basis that diagonalises A': the fast 1/eps mode
occupies one diagonal entry and every other entry is O(1).  One exact
Givens pair maps it to the printed basis, its inverse external Cayley
transform is the impedance form, and at eps = 0, where the fast entry does
not exist, the same formulas give the 5-state minimal realisation (the two
coupled C2 capacitors merge into C3 = 2 C2).  The generic star product of
the same operands buries the slow dynamics under the 1/eps entries in
floating point (relative damage ~ eps_machine / eps), so no output uses
it; at eps = 0 it is what rejects the unregularised loop (NotWellPosed).

Waveguide
---------
A Webster-FEM tube (impedance conservative, 4n states) is terminated at the
mouth by the piston radiation impedance, rationally approximated through
the Loewner framework at order k.  The load is regularised by
eps = epsilon_factor * Z0 (acting as an acoustic series resistance at the
mouth), both systems are externally Cayley transformed at one fixed
channel resistance, star-coupled, and mapped back to a one-port impedance
of dimension 4n + k.  The interpolation points include a high-frequency
anchor track along the imaginary axis covering the tube's full spectral
band; without it the order-k load model is unconstrained above the sampling
square and its junk modes can destabilise the otherwise lossless tube.

The report's frequency sweep does not evaluate that (4n + k)-state
composite: ``WaveguideComposite.transfer_values`` couples the components
pointwise instead.  The load is evaluated once per sweep through its own
k-state resolvent plan, and the tube, closed at the mouth by the
regularised admittance 1/(Z_L + eps), is one banded FEM solve per point.
This is the frequency-domain form of the regularised star product, and it
never inverts the lossless tube on its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import loewner, simulate, transforms, websterfem
from .core import (DiscreteSystem, StateSpaceSystem, _ResolventPlan, _is_finite_real,
                   _require_positive)
from .errors import DimensionMismatch, NearSpectrum
from .feedback import star_of_impedance_pair, star_product
from .loewner import InterpolationScheme, PistonParams
from .transforms import ResistanceMatrix, external_cayley, inverse_external_cayley
from .websterfem import AreaFunction, WaveguideModel


# ---------------------------------------------------------------------------
# Butterworth


@dataclass(frozen=True)
class ButterworthConfig:
    """Component values of one pi section plus port resistance and shift."""

    c1: float = 2.2e-9
    c2: float = 3.4e-9
    l1: float = 14e-6
    r0: float = 50.0
    epsilon: float = 1e-9

    def __post_init__(self):
        _require_positive(DimensionMismatch, ("epsilon",), c1=self.c1, c2=self.c2,
                          l1=self.l1, r0=self.r0, epsilon=self.epsilon)

    @property
    def c3(self) -> float:
        """Middle capacitor of the coupled ladder: the two C2 in parallel."""
        return 2.0 * self.c2


def pi_circuit_system(c1: float, c2: float, l1: float) -> StateSpaceSystem:
    """Impedance-conservative 3-state two-port of the lossless pi circuit.

    Skew generator on energy coordinates with co-located ports:
    A = [[0, w1, 0], [-w1, 0, w2], [0, -w2, 0]], B = diag-ish columns
    [1/sqrt(C1), 0, 0] and [0, 0, 1/sqrt(C2)], C = B^T, D = 0.  Equals the
    inverse external Cayley transform of the scattering form for any R.
    """
    w1 = 1.0 / math.sqrt(l1 * c1)
    w2 = 1.0 / math.sqrt(l1 * c2)
    A = np.array([[0.0, w1, 0.0], [-w1, 0.0, w2], [0.0, -w2, 0.0]])
    B = np.array([[1.0 / math.sqrt(c1), 0.0], [0.0, 0.0], [0.0, 1.0 / math.sqrt(c2)]])
    return StateSpaceSystem(A, B, B.T.copy(), np.zeros((2, 2)), split=(1, 1))


def _rotated_product(cfg: ButterworthConfig, epsilon: float) -> StateSpaceSystem:
    """Exact star product of the two regularised pi sections, rotated basis.

    State order (p1, p2, s, q2, q3, f): s and f are the symmetric and
    antisymmetric combinations of the two coupled C2 node states.  All the
    1/epsilon content sits in the single fast diagonal A[5, 5]; the slow
    5x5 block carries the physical ladder with 1/sqrt(L C3) couplings.
    At epsilon = 0 the fast entry -1/(C2 eps) does not exist, and the result
    is the slow 5x5 block of the same formulas: the eps -> 0 slow subsystem,
    which is the minimal realisation.
    """
    _require_positive(DimensionMismatch, ("epsilon",), epsilon=epsilon)
    c1, c2, l1, r0 = cfg.c1, cfg.c2, cfg.l1, cfg.r0
    w1 = 1.0 / math.sqrt(l1 * c1)
    w3 = 1.0 / math.sqrt(l1 * cfg.c3)  # = (1/sqrt(L C2)) / sqrt(2)
    g1 = 1.0 / (c1 * (r0 + epsilon))
    b1 = math.sqrt(2.0 * r0 / c1) / (r0 + epsilon)
    d = (epsilon - r0) / (epsilon + r0)
    # exact coupled-corner algebra: the star coupling adds
    # vhat [[d, 1], [1, d]] with vhat = b2^2 / Delta1 = 1/(2 C2 eps)
    # on top of the diagonal -1/(C2 (R0+eps)); the symmetric (slow)
    # combination cancels exactly and the antisymmetric (fast) one
    # carries the whole -1/(C2 eps), which exists only for eps > 0
    fast, n = (-1.0 / (c2 * epsilon), 6) if epsilon > 0 else (0.0, 5)
    A = np.array([
        [-g1, w1, 0.0, 0.0, 0.0, 0.0],
        [-w1, 0.0, w3, 0.0, 0.0, w3],
        [0.0, -w3, 0.0, w3, 0.0, 0.0],
        [0.0, 0.0, -w3, 0.0, w1, w3],
        [0.0, 0.0, 0.0, -w1, -g1, 0.0],
        [0.0, -w3, 0.0, -w3, 0.0, fast]])[:n, :n]
    B = np.zeros((n, 2))
    B[0, 0] = b1
    B[4, 1] = b1
    return StateSpaceSystem(A, B, B.T.copy(), np.diag([d, d]), split=(1, 1))


def minimal_butterworth(cfg: ButterworthConfig) -> StateSpaceSystem:
    """The 5-state minimal scattering realisation of the coupled ladder."""
    return _rotated_product(cfg, 0.0)


@dataclass(frozen=True)
class ButterworthModel:
    """All realisations the Butterworth pipeline produces."""

    regularized: StateSpaceSystem        # the exact product, printed state basis
    regularized_rotated: StateSpaceSystem  # the same product, fast mode isolated
    impedance: StateSpaceSystem          # impedance form of the coupled ladder
    minimal: StateSpaceSystem            # 5-state eps = 0 slow block


def _unrotate(rotated: StateSpaceSystem) -> StateSpaceSystem:
    """Map the rotated product back to the printed state ordering.

    The exact Givens pair (s, f) -> (p3, q1) = ((s+f)/sqrt2, (s-f)/sqrt2)
    reconstitutes the +-1/(2 C2 eps) coupled corner without cancellation.
    It is applied to rows and columns elementwise rather than as a matrix
    product, so every structural zero stays exactly zero.
    """
    s2 = 1.0 / math.sqrt(2.0)
    # rotated order (p1, p2, s, q2, q3, f) -> (p1, p2, s, f, q2, q3), then the
    # pair (s, f) becomes (p3, q1): printed order (p1, p2, p3, q1, q2, q3)
    order = [0, 1, 2, 5, 3, 4, 6, 7]
    S = np.block([[rotated.A, rotated.B], [rotated.C, rotated.D]])[np.ix_(order, order)]
    for X in (S, S.T):  # rows, then columns through the transposed view
        s, f = X[2].copy(), X[3].copy()
        X[2], X[3] = s2 * (s + f), s2 * (s - f)
    return StateSpaceSystem(S[:6, :6], S[:6, 6:], S[6:, :6], S[6:, 6:], split=rotated.split)


def butterworth_compose(cfg: ButterworthConfig) -> ButterworthModel:
    """Couple the two regularised pi sections; see the module docstring.

    Every realisation comes from the one exact product
    ``_rotated_product(cfg, eps)``: ``regularized_rotated`` is that product
    with the fast mode isolated, ``regularized`` the same product in the
    printed state basis (``_unrotate``), ``impedance`` its inverse external
    Cayley transform and ``minimal`` its eps = 0 slow block.  The generic
    star product is not assembled for eps > 0 (see the module docstring); at
    eps = 0 it rejects the loop, raising NotWellPosed with its report.
    """
    R = ResistanceMatrix.scalars(cfg.r0, cfg.r0)
    if cfg.epsilon <= 0:
        # the unregularised loop has D = -I against D = -I: not well-posed
        p_i = pi_circuit_system(cfg.c1, cfg.c2, cfg.l1)
        q_i = pi_circuit_system(cfg.c2, cfg.c1, cfg.l1)
        star_product(external_cayley(p_i, R), external_cayley(q_i, R))  # raises NotWellPosed
    rotated = _rotated_product(cfg, cfg.epsilon)
    return ButterworthModel(_unrotate(rotated), rotated, inverse_external_cayley(rotated, R),
                            minimal_butterworth(cfg))


@dataclass(frozen=True)
class SParams:
    frequencies: np.ndarray
    s11: np.ndarray
    s21: np.ndarray


def butterworth_sparams(cfg: ButterworthConfig, grid_hz) -> SParams:
    """Reflection s11 and transmission s21 of the coupled ladder at R0 ports.

    Both answer a wave incident at port 1, so the resolvent plan of
    ``_rotated_product(cfg, cfg.epsilon)`` solves only the first column of
    B, and s12 and s22 are never formed.  Raises DimensionMismatch naming
    the first non-finite grid frequency, and NearSpectrum if any grid point
    is gated.
    """
    freqs = np.asarray(grid_hz, dtype=float).reshape(-1)
    if not np.isfinite(freqs).all():
        raise DimensionMismatch(f"grid frequency {freqs[~np.isfinite(freqs)][0]} Hz is not finite")
    sys = _rotated_product(cfg, cfg.epsilon)
    values, ok, _, _ = _ResolventPlan(sys.A, sys.B[:, :1], sys.C, sys.D[:, :1]).evaluate(
        2j * np.pi * freqs)
    if not ok.all():
        bad = freqs[~ok]
        raise NearSpectrum(f"{bad.size} grid point(s) on the spectrum, first at {bad[0]} Hz")
    return SParams(freqs, values[:, 0, 0], values[:, 1, 0])


# ---------------------------------------------------------------------------
# waveguide

# the external Cayley pair changes only port variables: R sets rounding and Delta = 2eps/(eps+R)
_CHANNEL_RESISTANCE = 1.1e6


def uniform_tube(length: float = 0.175, area: float = 1e-4) -> AreaFunction:
    """Constant cross-section tube geometry."""
    return AreaFunction(np.array([0.0, length]), np.array([area, area]))


def two_segment_tube(length: float = 0.175, back_area: float = 2.6e-4,
                     front_area: float = 0.65e-4, junction: float = 0.5,
                     taper: float = 0.05) -> AreaFunction:
    """Wide back cavity, narrow front segment (vowel-[i]-like) with a short taper."""
    xj = junction * length
    dx = 0.5 * taper * length
    nodes = np.array([0.0, xj - dx, xj + dx, length])
    areas = np.array([back_area, back_area, front_area, front_area])
    return AreaFunction(nodes, areas)


@dataclass(frozen=True)
class WaveguideConfig:
    """Everything the terminated-waveguide pipeline needs."""

    area: AreaFunction = field(default_factory=uniform_tube)
    n: int = 99
    c: float = 343.0
    rho: float = 1.225
    epsilon_factor: float = 0.194     # in units of the piston Z0
    k: int = 16
    sigma: float = 88200.0
    seed: int = 2024
    sample_points: int = 150          # points per family; 2m = 300 total
    square: float = 3e5               # half-width of the sampling square, rad/s

    def __post_init__(self):
        def whole(value, low):  # an integer (not a bool) of at least low, in double range
            return isinstance(value, numbers.Integral) and _is_finite_real(value) and value >= low
        if not (whole(self.n, 1) and whole(self.k, 1)):
            raise DimensionMismatch(f"n and k must be positive integers, got {self.n}, {self.k}")
        if not whole(self.sample_points, 1):
            raise DimensionMismatch(f"sample_points must be a positive integer, "
                                    f"got {self.sample_points!r}")
        # what assemble, default_scheme and reduce_order would reject later
        if self.n < 2:
            raise DimensionMismatch(f"n must be at least 2, got {self.n}")
        if self.sample_points % 2 or self.sample_points < 4:
            raise DimensionMismatch(f"sample_points must be even and at least 4, "
                                    f"got {self.sample_points}")
        if self.k > self.sample_points:
            raise DimensionMismatch(f"k must be at most sample_points = {self.sample_points}, "
                                    f"got {self.k}")
        if not whole(self.seed, 0):
            raise DimensionMismatch(f"seed must be a nonnegative integer, got {self.seed!r}")
        _require_positive(DimensionMismatch, ("epsilon_factor",), c=self.c, rho=self.rho,
                          sigma=self.sigma, square=self.square, epsilon_factor=self.epsilon_factor)

    @property
    def piston(self) -> PistonParams:
        """Load parameters; the aperture matches the mouth area A(L)."""
        return PistonParams.from_mouth_area(float(self.area.areas[-1]),
                                            self.rho, self.c)

    @property
    def epsilon(self) -> float:
        return self.epsilon_factor * self.piston.Z0


@dataclass(frozen=True)
class WaveguideComposite:
    """Assembled terminated waveguide and the pieces it was built from."""

    tube: WaveguideModel
    piston: PistonParams
    scheme: InterpolationScheme
    interpolant: loewner.DescriptorInterpolant
    load: StateSpaceSystem
    composite_impedance: StateSpaceSystem
    discrete: DiscreteSystem
    mouth_row: np.ndarray
    epsilon: float

    def transfer_values(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The composite impedance's values at ``points``, from the components.

        Z_in(s) = rho s w_glottis(s), where w solves the tube's banded pencil
        closed at the mouth by Y(s) = 1/(Z_L(s) + eps) (see
        ``WaveguideModel.terminated_impedance``).  ``ok`` is False where the
        load's resolvent gate or the band gate fires, or where Z_L + eps is
        zero or not finite; the values are NaN there.
        """
        s = np.asarray(points, dtype=complex).reshape(-1)
        z_load, ok = self.load.transfer_values(s)
        with np.errstate(all="ignore"):
            series = z_load[:, 0, 0] + self.epsilon
            ok &= np.isfinite(series) & (series != 0.0)
            admittance = np.where(ok, 1.0 / series, 0.0)
            values, solved = self.tube.terminated_impedance(s, admittance)
        ok &= solved
        values[~ok] = np.nan
        return values.reshape(-1, 1, 1), ok


def waveguide_compose(cfg: WaveguideConfig) -> WaveguideComposite:
    """FEM tube + Loewner piston load -> one-port impedance and its Cayley form.

    Steps: assemble the tube; sample and reduce the piston impedance;
    regularise the load by eps = epsilon_factor * Z0; external Cayley both
    at one fixed R; star product; inverse external Cayley at R; internal
    Cayley at sigma.  State dimension is 4n + k with the tube states first,
    so the mouth pressure stays readable as the tube's second output row.
    """
    tube = websterfem.assemble(cfg.area, cfg.n, cfg.c, cfg.rho)
    piston = cfg.piston
    # anchor the load model across the tube's spectral band (capped inside
    # the special-function envelope) so it stays resistive where the tube
    # still has undamped modes
    tube_top = float(np.abs(np.linalg.eigvals(tube.system.A)).max())
    envelope_cap = 0.8 * loewner.ENVELOPE_RADIUS * cfg.c / (2.0 * piston.a)
    anchor_hi = min(1.25 * tube_top, envelope_cap)
    anchor = (1.05 * cfg.square, anchor_hi) if anchor_hi > 1.1 * cfg.square else None
    scheme = loewner.default_scheme(piston, m=cfg.sample_points, seed=cfg.seed,
                                    square=cfg.square, anchor_band=anchor)
    vm, vl = loewner.sample_function(scheme, lambda s: loewner.piston_impedance(s, piston))
    interp = loewner.reduce_order(loewner.realify(
        loewner.loewner_matrices(scheme, vm, vl)), cfg.k)
    load = interp.reduced
    Rp = ResistanceMatrix.scalars(_CHANNEL_RESISTANCE, _CHANNEL_RESISTANCE)
    Rq = ResistanceMatrix.scalars(_CHANNEL_RESISTANCE)
    composite = star_of_impedance_pair(tube.system, load, Rp, Rq, epsilon_p=0.0,
                                       epsilon_q=cfg.epsilon, impedance=True)
    discrete = transforms.internal_cayley(composite, cfg.sigma)
    mouth_row = np.concatenate([tube.system.C[1], np.zeros(cfg.k)])
    return WaveguideComposite(tube, piston, scheme, interp, load,
                              composite, discrete, mouth_row, cfg.epsilon)


@dataclass(frozen=True)
class WaveguideReport:
    """Resonances, frequency response and an excited time-domain run."""

    resonances: simulate.ResonanceList
    response: simulate.FrequencyResponse
    time: np.ndarray
    flow: np.ndarray
    pressure_folds: np.ndarray
    pressure_mouth: np.ndarray


def waveguide_report(composite: WaveguideComposite,
                     excitation: Optional[simulate.ExcitationSpec] = None,
                     response_grid_hz=None) -> WaveguideReport:
    """Run the standard diagnostics on a composed waveguide.

    The resonances come from the composite's generator; the frequency
    response is one ``simulate.frequency_response`` of the composite, which
    evaluates it from its components (``WaveguideComposite.transfer_values``).
    The time series drives the discrete system with the excitation as the
    glottal flow; the folds pressure is the port output and the mouth
    pressure is the tube's second output row read from the state as the
    steps run (``observe``; exact, the tube has no feedthrough), so no
    state history is kept.  One step of the discrete system is 2 / sigma
    seconds, so the excitation must be sampled at sigma / 2.
    """
    sys = composite.composite_impedance
    fs = composite.discrete.sigma / 2.0
    if excitation is None:
        excitation = simulate.ExcitationSpec("LFPulseTrain", f0=120.0,
                                             duration=0.05, sample_rate=fs)
    if excitation.sample_rate != fs:
        raise DimensionMismatch(f"excitation sample_rate={excitation.sample_rate} Hz, but the "
                                f"discrete system at sigma={composite.discrete.sigma} steps "
                                f"at sigma / 2 = {fs} Hz")
    if response_grid_hz is None:
        response_grid_hz = np.geomspace(30.0, 10000.0, 300)
    res = simulate.resonances(sys)
    resp = simulate.frequency_response(composite, response_grid_hz)
    flow = simulate.excitation_signal(excitation)
    y = simulate.step_response(composite.discrete, flow.reshape(-1, 1),
                               observe=composite.mouth_row)
    t = np.arange(flow.size) / excitation.sample_rate
    return WaveguideReport(res, resp, t, flow, y[:, 0], y[:, 1])
