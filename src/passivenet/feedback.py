"""Redheffer star products, well-posedness diagnostics and regularisation.

The star product couples the bottom port of p to the top port of q
(u2 = y~1, u~1 = y2) and exposes (u1, u~2) -> (y1, y~2).  The coupled widths
must agree (p.m2 == q.m1) but may differ from the external widths, so
one-port loads (q.m2 == 0) terminate a two-port naturally.

The product closes that loop with ``core._closed_loop``: p and q side by
side, one solve of the loop matrix [[I, -D_q11], [-D_p22, I]] for the loop
inputs (u2, u~1), substituted back.  The loop matrix is invertible exactly
when Delta1 = I - D_p22 D_q11 and Delta2 = I - D_q11 D_p22 are (its
Schur complements); the two are singular together, and |D_p22| + |D_q11|
< 2 is a sufficient condition.  The gate (``well_posedness``) measures
both against the data scale before the loop is closed.  Conservative
components (D = -I against matched resistances) are the canonical failure:
the shift-and-invert regularisation D_i -> D_i + eps*I restores proper
impedance passivity and with it a well-posed scattering loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COND_LIMIT, StateSpaceSystem, _condition, _require_positive
from .errors import DimensionMismatch, NotProperlyPassive, NotWellPosed, ResistanceMismatch
from .passivity import properly_impedance_passive
from .transforms import (
    ResistanceMatrix,
    chain_transform,
    external_cayley,
    inverse_chain,
    inverse_external_cayley,
)
from . import core


@dataclass(frozen=True)
class WellPosednessReport:
    """Condition numbers of the loop matrices plus the contraction margin."""

    delta1_condition: float
    delta2_condition: float
    norm_sum: float
    well_posed: bool

    def to_json(self) -> dict:
        return {"delta1_condition": self.delta1_condition,
                "delta2_condition": self.delta2_condition,
                "norm_sum": self.norm_sum,
                "well_posed": self.well_posed}


def well_posedness(p: StateSpaceSystem, q: StateSpaceSystem) -> WellPosednessReport:
    """Diagnose the feedback loop between p's bottom and q's top port."""
    if p.m2 != q.m1:
        raise DimensionMismatch(f"coupled widths differ: p.m2={p.m2} vs q.m1={q.m1}")
    Dp22, Dq11 = p.D[p.m1:, p.m1:], q.D[:q.m1, :q.m1]
    k = Dp22.shape[0]
    np_ = float(np.linalg.norm(Dp22, 2)) if Dp22.size else 0.0
    nq = float(np.linalg.norm(Dq11, 2)) if Dq11.size else 0.0
    # sigma_max / sigma_min misses the Delta ~ 0 case (a uniformly tiny
    # matrix can look well conditioned), so measure against the data scale
    scale = 1.0 + np_ * nq
    d1 = _condition(np.eye(k) - Dp22 @ Dq11, scale)
    d2 = _condition(np.eye(k) - Dq11 @ Dp22, scale)
    return WellPosednessReport(d1, d2, np_ + nq,
                               well_posed=(d1 <= COND_LIMIT and d2 <= COND_LIMIT))


def star_product(p: StateSpaceSystem, q: StateSpaceSystem) -> StateSpaceSystem:
    """Redheffer star product p * q, split (p.m1, q.m2); raises NotWellPosed
    (carrying the report) where the gate rejects the loop."""
    report = well_posedness(p, q)
    if not report.well_posed:
        raise NotWellPosed(
            f"feedback loop not well-posed: cond(Delta1)={report.delta1_condition:.3e}, "
            f"cond(Delta2)={report.delta2_condition:.3e}", report=report)
    m1p, mp, k = p.m1, p.m, p.m2
    outer = np.r_[:m1p, mp + k:mp + q.m]       # (u1, u~2) in, (y1, y~2) out
    loop, fed = np.r_[m1p:mp + k], np.r_[mp:mp + k, m1p:mp]  # (u2, u~1) fed by (y~1, y2)
    return core._closed_loop(p, q, outer, outer, loop, fed, (m1p, q.m2))


def star_via_chain(p: StateSpaceSystem, q: StateSpaceSystem) -> StateSpaceSystem:
    """Star product through the cascade-of-chains identity.

    inverse_chain(chain(p) * chain(q)); needs square invertible D21 blocks
    on both factors and a well-posed loop.  I/O-equivalent to star_product
    wherever both exist.
    """
    report = well_posedness(p, q)
    if not report.well_posed:
        raise NotWellPosed("feedback loop not well-posed", report=report)
    cascade = core.cascade_product(chain_transform(p), chain_transform(q))
    return inverse_chain(cascade)


def regularize(sys_i: StateSpaceSystem, epsilon: float) -> StateSpaceSystem:
    """Shift-and-invert step one: D_i -> D_i + eps*I, eps >= 0.

    An impedance passive input becomes properly impedance passive for any
    eps > 0; eps = 0 returns the input unchanged.
    """
    _require_positive(DimensionMismatch, ("epsilon",), epsilon=epsilon)
    if epsilon == 0.0:
        return sys_i
    return sys_i.replace(D=sys_i.D + epsilon * np.eye(sys_i.m))


def regularized_external_cayley(sys_i: StateSpaceSystem, R: ResistanceMatrix,
                                epsilon: float) -> StateSpaceSystem:
    """External Cayley transform of the eps-shifted impedance system."""
    return external_cayley(regularize(sys_i, epsilon), R)


def star_of_impedance_pair(p_i: StateSpaceSystem, q_i: StateSpaceSystem,
                           Rp: ResistanceMatrix, Rq: ResistanceMatrix,
                           epsilon_p: float = 0.0, epsilon_q: float = 0.0,
                           impedance: bool = False) -> StateSpaceSystem:
    """Couple two impedance systems through their external Cayley transforms.

    The coupled channel must use one resistance block (Rp.R2 == Rq.R1
    entrywise).  At least one of the (possibly eps-shifted) operands must be
    properly impedance passive; that guarantees the scattering loop is
    well-posed and the product scattering passive.  With ``impedance=True``
    the result is transformed back to impedance form against
    diag(Rp.R1, Rq.R2).
    """
    if Rp.R2.shape != Rq.R1.shape or not np.array_equal(Rp.R2, Rq.R1):
        raise ResistanceMismatch(
            "coupled-channel resistance blocks differ (Rp.R2 != Rq.R1)")
    p_sh = regularize(p_i, epsilon_p)
    q_sh = regularize(q_i, epsilon_q)
    proper_p, _ = properly_impedance_passive(p_sh)
    proper_q, _ = properly_impedance_passive(q_sh)
    if not (proper_p or proper_q) and epsilon_p == 0.0 and epsilon_q == 0.0:
        raise NotProperlyPassive(
            "neither operand is properly impedance passive and no "
            "regularisation was requested")
    prod = star_product(external_cayley(p_sh, Rp), external_cayley(q_sh, Rq))
    if impedance:
        R = ResistanceMatrix(Rp.R1, Rq.R2)
        return inverse_external_cayley(prod, R)
    return prod
