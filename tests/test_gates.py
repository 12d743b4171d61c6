"""Gate-boundary table: every invertibility gate at half and twice its
limit.

Each site gets a block whose gate measure is a chosen multiple of the
site's limit.  At 0.5x the operation must succeed; at 2x it must raise the
site's exception with a message naming the block, or, for a sweep gate
that flags points instead of raising, flag the point.  The blocks are diagonal
(or scalar), so the measure is known in closed form and the factor-2 margin
dwarfs any roundoff.  Every gate measures the median row max over the
probe estimate of sigma_min, so a graded block is diag(1, 1, 1/cond): its
median row max is exactly 1 (diag(1, 1/cond) would read (1 + 1/cond) / 2,
which puts its 2x point on the boundary).
"""

import inspect


import numpy as np
import pytest

from passivenet.core import (DiscreteSystem, StateSpaceSystem, _gate_probes, _gate_sigma,
                             _near_spectrum_gate, similarity, transfer_function)
from passivenet import errors
from passivenet.errors import (
    GateError,
    MinusOneEigenvalue,
    NearSpectrum,
    NotWellPosed,
    OneEigenvalue,
    RankDeficient,
    SingularBlock,
    SingularFeedthrough,
    SingularGenerator,
    SingularShiftedFeedthrough,
    SingularStiffness,
)
from passivenet.feedback import star_product
from passivenet.loewner import DescriptorInterpolant, reduce_order
from passivenet.secondorder import SecondOrderSystem, first_order_realization
from passivenet.transforms import (
    ResistanceMatrix,
    bottom_inversion,
    chain_transform,
    external_cayley,
    full_inversion,
    hybrid_transform,
    internal_cayley,
    internal_reciprocal,
    inverse_chain,
    inverse_external_cayley,
    inverse_hybrid,
    inverse_internal_cayley,
    top_inversion,
)
from passivenet.websterfem import _band_storage, _gated_band_solve

BLOCK_LIMIT = 1e12      # 1 / core.RCOND_FLOOR: transforms, Cayley steps, feedback loop
PENCIL_LIMIT = 1e18     # loewner.PENCIL_LIMIT
STIFFNESS_LIMIT = 1e6   # secondorder general path
RESOLVENT_LIMIT = 1e12  # 1 / core.RCOND_FLOOR: transfer evaluation, banded sweep


def _graded(cond: float) -> np.ndarray:
    """diag(1, 1, 1/cond): sigma_min 1/cond against a median row max of 1."""
    return np.diag([1.0, 1.0, 1.0 / cond])


def _with_d(D: np.ndarray, split) -> StateSpaceSystem:
    m = D.shape[0]
    return StateSpaceSystem(-np.eye(1), np.ones((1, m)), np.ones((m, 1)), D, split=split)


def _blocks(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    return np.block([[top_left, top_right], [bottom_left, bottom_right]])


def fi(cond):
    full_inversion(_with_d(_graded(cond), (3, 0)))


def ti(cond):
    D = _blocks(_graded(cond), np.zeros((3, 1)), np.zeros((1, 3)), np.ones((1, 1)))
    top_inversion(_with_d(D, (3, 1)))


def _d22_graded(cond):
    D = _blocks(np.ones((1, 1)), np.zeros((1, 3)), np.zeros((3, 1)), _graded(cond))
    return _with_d(D, (1, 3))


def bi(cond):
    bottom_inversion(_d22_graded(cond))


def hybrid(cond):
    hybrid_transform(_d22_graded(cond))


def inv_hybrid(cond):
    inverse_hybrid(_d22_graded(cond))


def chain(cond):
    Z = np.zeros((3, 3))
    chain_transform(_with_d(_blocks(Z, Z, _graded(cond), Z), (3, 3)))


def inv_chain(cond):
    Z = np.zeros((3, 3))
    inverse_chain(_with_d(_blocks(np.eye(3), Z, Z, _graded(cond)), (3, 3)))


def ext_cayley(cond):
    # D_i + R = diag(1, 1, 1/cond) against R = I
    R = ResistanceMatrix(np.eye(3), np.zeros((0, 0)))
    external_cayley(_with_d(_graded(cond) - np.eye(3), (3, 0)), R)


def inv_ext_cayley(cond):
    # I - D = diag(1, 1, 1/cond)
    R = ResistanceMatrix(np.eye(3), np.zeros((0, 0)))
    inverse_external_cayley(_with_d(np.eye(3) - _graded(cond), (3, 0)), R)


def _three_states(A) -> StateSpaceSystem:
    return StateSpaceSystem(A, np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)), split=(1, 0))


def reciprocal(cond):
    internal_reciprocal(_three_states(-_graded(cond)))


def int_cayley(cond):
    # sigma I - A = diag(1, 1, 1/cond) at sigma = 1
    internal_cayley(_three_states(np.eye(3) - _graded(cond)), 1.0)


def inv_int_cayley(cond):
    # I + Ad = diag(1, 1, 1/cond)
    inverse_internal_cayley(DiscreteSystem(_graded(cond) - np.eye(3), np.ones((3, 1)),
                                           np.ones((1, 3)), np.zeros((1, 1)), sigma=1.0,
                                           split=(1, 0)))


def loop(cond):
    # Delta1 = 1 - Dp22 Dq11 = delta against the scale 1 + |Dp22||Dq11| = 2 - delta
    delta = 2.0 / (cond + 1.0)
    p = _with_d(np.diag([0.0, 1.0 - delta]), (1, 1))
    q = _with_d(np.diag([1.0, 0.0]), (1, 1))
    star_product(p, q)


def pencil(cond):
    # the projection onto all three singular directions leaves Lk = L
    interp = DescriptorInterpolant(_graded(cond), -np.eye(3), np.ones(3), np.ones(3),
                                   is_real=True)
    reduce_order(interp, 3)


def similarity_t(cond):
    similarity(_three_states(-np.eye(3)), _graded(cond))


def resolvent(cond):
    # sI - A = diag(1, 1, 1/cond) at s = 0: sigma_min over the median row max is 1/cond
    transfer_function(StateSpaceSystem(-np.diag([1.0, 1.0, 1.0 / cond]), np.ones((3, 1)),
                                       np.ones((1, 3)), np.zeros((1, 1)), split=(1, 0)), 0.0)


def stiff_resolvent(cond):
    # a decoupled -1e17 beside the slow pair [[-1.5, .5], [.5, -1.5]]
    # (eigenvalues -1, -2) at s = -1 + delta: sigma_min(sI - A) = delta
    # against the median row max 0.5 + delta, so the measure is 1/cond
    A = np.array([[-1e17, 0.0, 0.0], [0.0, -1.5, 0.5], [0.0, 0.5, -1.5]])
    transfer_function(StateSpaceSystem(A, np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)),
                                       split=(1, 0)), -1.0 + 0.5 / (cond - 1.0))


def stiffness(cond):
    # the gate measures K^1/2 = diag(1, 1, 1/cond)
    so = SecondOrderSystem(np.eye(3), np.zeros((3, 3)), _graded(cond) ** 2, np.ones((3, 1)))
    first_order_realization(so, method="general")


# site, limit, exception, pattern naming the block
SITES = [
    (fi, BLOCK_LIMIT, SingularFeedthrough, r"^D is"),
    (ti, BLOCK_LIMIT, SingularBlock, "D11"),
    (bi, BLOCK_LIMIT, SingularBlock, "D22"),
    (hybrid, BLOCK_LIMIT, SingularBlock, "D22"),
    (inv_hybrid, BLOCK_LIMIT, SingularBlock, "D22"),
    (chain, BLOCK_LIMIT, SingularBlock, "D21"),
    (inv_chain, BLOCK_LIMIT, SingularBlock, "D22"),
    (ext_cayley, BLOCK_LIMIT, SingularShiftedFeedthrough, r"D_i \+ R"),
    (inv_ext_cayley, BLOCK_LIMIT, OneEigenvalue, "I - D"),
    (reciprocal, BLOCK_LIMIT, SingularGenerator, r"^A is"),
    (int_cayley, BLOCK_LIMIT, NearSpectrum, "spectrum of A"),
    (inv_int_cayley, BLOCK_LIMIT, MinusOneEigenvalue, r"I \+ Ad"),
    (loop, BLOCK_LIMIT, NotWellPosed, "Delta1"),
    (pencil, PENCIL_LIMIT, RankDeficient, "Loewner pencil"),
    (stiffness, STIFFNESS_LIMIT, SingularStiffness, "invertible K"),
    (similarity_t, BLOCK_LIMIT, SingularBlock, r"^T is"),
    (resolvent, RESOLVENT_LIMIT, NearSpectrum, "spectrum of A"),
    (stiff_resolvent, RESOLVENT_LIMIT, NearSpectrum, "spectrum of A"),
]


@pytest.mark.parametrize("site, limit, exc, block", SITES, ids=[s[0].__name__ for s in SITES])
def test_half_limit_passes(site, limit, exc, block):
    site(0.5 * limit)


@pytest.mark.parametrize("site, limit, exc, block", SITES, ids=[s[0].__name__ for s in SITES])
def test_twice_limit_raises_and_names_block(site, limit, exc, block):
    with pytest.raises(exc, match=block):
        site(2.0 * limit)


def banded(cond):
    # the band-stored pencil diag(1, 1, 1/cond), under the resolvent gate:
    # its median row max is exactly 1, and the probe estimate of sigma_min
    # is 1/cond to within roundoff, so the measure is 1/cond (diag(1, 1/cond)
    # would sit on the boundary, with median row max (1 + 1/cond) / 2)
    pencil = _band_storage(np.diag([1.0, 1.0, 1.0 / cond]).astype(complex), 1)
    return _gated_band_solve(pencil, np.ones((3, 1), dtype=complex), 1) is not None


# sweep gates flag the point instead of raising: site(cond) returns its ok flag
FLAGGING_SITES = [
    (banded, RESOLVENT_LIMIT),
]


@pytest.mark.parametrize("site, limit", FLAGGING_SITES, ids=[s[0].__name__ for s in FLAGGING_SITES])
def test_flagging_half_limit_passes(site, limit):
    assert site(0.5 * limit)


@pytest.mark.parametrize("site, limit", FLAGGING_SITES, ids=[s[0].__name__ for s in FLAGGING_SITES])
def test_flagging_twice_limit_flags(site, limit):
    assert not site(2.0 * limit)


def _hidden_from_probes(delta):
    """I - (1 - delta) v v^T, n = 8, sigma_min = delta along a v almost
    orthogonal to the four real probe columns: v = w + 1e-12 (first column),
    normalised, with w a unit vector orthogonal to all four."""
    probes = _gate_probes(8)
    cols = np.hstack([probes.real, probes.imag])
    Q, _ = np.linalg.qr(cols)
    w = np.random.default_rng(0).standard_normal(8)
    w -= Q @ (Q.T @ w)
    v = w / np.linalg.norm(w) + 1e-12 * cols[:, 0]
    v /= np.linalg.norm(v)
    return np.eye(8) - (1.0 - delta) * np.outer(v, v), cols


@pytest.mark.parametrize("delta, passes", [(5e-13, False), (2e-12, True)])
def test_inverse_power_step_finds_what_the_probes_miss(delta, passes):
    # the probes' own solutions barely see v (sigma ~ 0.56 and 0.94, both
    # passing); the step's second solve amplifies their 1e-12 share by 1 / delta
    M, cols = _hidden_from_probes(delta)
    first = np.linalg.norm(np.linalg.solve(M, cols).reshape(-1, 2, 2), axis=(0, 1))
    assert _near_spectrum_gate(first, np.abs(M).max(axis=1))[2]
    sigma, scale, ok = _gate_sigma(M)
    assert ok == passes
    assert 0.5 * delta <= sigma <= 4.0 * delta


@pytest.mark.parametrize("exc", sorted({s[2] for s in SITES}, key=lambda e: e.__name__))
def test_every_gate_exception_is_a_gate_error(exc):
    assert issubclass(exc, GateError)


def test_every_gate_error_has_a_row():
    # a flagging site raises nothing, so each GateError needs a raising row
    gate_errors = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                   if issubclass(cls, GateError) and cls is not GateError}
    missing = gate_errors - {s[2] for s in SITES}
    assert gate_errors and not missing, sorted(cls.__name__ for cls in missing)
