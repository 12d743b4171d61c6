"""Gate-boundary table: every one-off invertibility gate at half and twice
its limit.

Each site gets a block whose gate measure is a chosen multiple of the
site's limit.  At 0.5x the operation must succeed; at 2x it must raise the
site's exception with a message naming the block, or, for a sweep gate
that flags points instead of raising, flag the point.  The blocks are diagonal
(or scalar), so the measure is known in closed form and the factor-2 margin
dwarfs any roundoff.
"""

import numpy as np
import pytest

from passivenet.core import DiscreteSystem, StateSpaceSystem, similarity, transfer_function
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

BLOCK_LIMIT = 1e12      # transforms, Cayley steps, feedback loop
PENCIL_LIMIT = 1e18     # loewner.reduce_order default
STIFFNESS_LIMIT = 1e6   # secondorder general path
RESOLVENT_LIMIT = 1e12  # 1 / core.RCOND_FLOOR: transfer evaluation, banded sweep


def _graded(cond: float) -> np.ndarray:
    """diag(1, 1/cond): 2-norm condition number exactly ``cond``."""
    return np.diag([1.0, 1.0 / cond])


def _with_d(D: np.ndarray, split) -> StateSpaceSystem:
    m = D.shape[0]
    return StateSpaceSystem(-np.eye(1), np.ones((1, m)), np.ones((m, 1)), D, split=split)


def _blocks(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    return np.block([[top_left, top_right], [bottom_left, bottom_right]])


def fi(cond):
    full_inversion(_with_d(_graded(cond), (1, 1)))


def ti(cond):
    D = _blocks(_graded(cond), np.zeros((2, 1)), np.zeros((1, 2)), np.ones((1, 1)))
    top_inversion(_with_d(D, (2, 1)))


def _d22_graded(cond):
    D = _blocks(np.ones((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)), _graded(cond))
    return _with_d(D, (1, 2))


def bi(cond):
    bottom_inversion(_d22_graded(cond))


def hybrid(cond):
    hybrid_transform(_d22_graded(cond))


def inv_hybrid(cond):
    inverse_hybrid(_d22_graded(cond))


def chain(cond):
    Z = np.zeros((2, 2))
    chain_transform(_with_d(_blocks(Z, Z, _graded(cond), Z), (2, 2)))


def inv_chain(cond):
    Z = np.zeros((2, 2))
    inverse_chain(_with_d(_blocks(np.eye(2), Z, Z, _graded(cond)), (2, 2)))


def ext_cayley(cond):
    # D_i + R = diag(1, 1/cond) against R = I
    R = ResistanceMatrix(np.eye(2), np.zeros((0, 0)))
    external_cayley(_with_d(_graded(cond) - np.eye(2), (2, 0)), R)


def inv_ext_cayley(cond):
    # I - D = diag(1, 1/cond)
    R = ResistanceMatrix(np.eye(2), np.zeros((0, 0)))
    inverse_external_cayley(_with_d(np.eye(2) - _graded(cond), (2, 0)), R)


def reciprocal(cond):
    internal_reciprocal(StateSpaceSystem(-_graded(cond), np.ones((2, 1)), np.ones((1, 2)),
                                         np.zeros((1, 1)), split=(1, 0)))


def int_cayley(cond):
    # sigma I - A = diag(1, 1/cond) at sigma = 1
    internal_cayley(StateSpaceSystem(np.eye(2) - _graded(cond), np.ones((2, 1)),
                                     np.ones((1, 2)), np.zeros((1, 1)), split=(1, 0)), 1.0)


def inv_int_cayley(cond):
    # I + Ad = diag(1, 1/cond)
    inverse_internal_cayley(DiscreteSystem(_graded(cond) - np.eye(2), np.ones((2, 1)),
                                           np.ones((1, 2)), np.zeros((1, 1)), sigma=1.0,
                                           split=(1, 0)))


def loop(cond):
    # Delta1 = 1 - Dp22 Dq11 = delta against the scale 1 + |Dp22||Dq11| = 2 - delta
    delta = 2.0 / (cond + 1.0)
    p = _with_d(np.diag([0.0, 1.0 - delta]), (1, 1))
    q = _with_d(np.diag([1.0, 0.0]), (1, 1))
    star_product(p, q)


def pencil(cond):
    L = np.diag([1.0, 1.0 / cond])
    interp = DescriptorInterpolant(L, -np.eye(2), np.ones(2), np.ones(2), is_real=True)
    reduce_order(interp, 2)


def similarity_t(cond):
    similarity(StateSpaceSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                                np.zeros((1, 1)), split=(1, 0)), _graded(cond))


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
    # the gate measures K^1/2, whose condition is the square root of K's
    K = np.diag([1.0, 1.0 / cond**2])
    so = SecondOrderSystem(np.eye(2), np.zeros((2, 2)), K, np.ones((2, 1)))
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


@pytest.mark.parametrize("exc", sorted({s[2] for s in SITES}, key=lambda e: e.__name__))
def test_every_gate_exception_is_a_gate_error(exc):
    assert issubclass(exc, GateError)
