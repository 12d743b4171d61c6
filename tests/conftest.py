"""Shared generators for seeded-random test systems.

All generators are deterministic in the supplied rng.  "Well-conditioned"
means every feedthrough block a transform might invert has condition far
below the library's 1e12 gate, so round-trip tests measure algebra, not
luck.  ``stepping_gaps`` measures block stepping against the per-sample
oracle under one shared bound, ``STEP_PARITY``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import step_response_loop
from passivenet.core import StateSpaceSystem
from passivenet.simulate import step_response


def random_system(rng: np.random.Generator, n: int, m1: int, m2: int,
                  well_conditioned: bool = True) -> StateSpaceSystem:
    """Generic random system; D built as I + small perturbation when
    well_conditioned so D, D11, D22, D21 (square case) all invert safely."""
    m = m1 + m2
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    if well_conditioned:
        D = np.eye(m) + 0.35 * rng.standard_normal((m, m))
        if m1 == m2 and m1 > 0:
            # keep the off-diagonal D21 block invertible too (chain transform)
            D[m1:, :m1] += np.eye(m1)
        sv = np.linalg.svd(D, compute_uv=False)
        if sv[-1] < 0.15:
            return random_system(rng, n, m1, m2, well_conditioned)
    else:
        D = rng.standard_normal((m, m))
    return StateSpaceSystem(A, B, C, D, split=(m1, m2))


def random_conservative(rng: np.random.Generator, n: int, m1: int, m2: int,
                        skew_d: bool = True) -> StateSpaceSystem:
    """Impedance conservative: A skew, C = B^T, D skew (or zero)."""
    m = m1 + m2
    S = rng.standard_normal((n, n))
    A = S - S.T
    B = rng.standard_normal((n, m))
    Ds = rng.standard_normal((m, m)) if skew_d else np.zeros((m, m))
    D = 0.5 * (Ds - Ds.T)
    return StateSpaceSystem(A, B, B.T.copy(), D, split=(m1, m2))


def random_impedance_passive(rng: np.random.Generator, n: int, m1: int, m2: int,
                             strict: bool = True, proper: bool = True) -> StateSpaceSystem:
    """Certified-passive construction: A = skew - W W^T, C = B^T, D = a I + skew."""
    m = m1 + m2
    S = rng.standard_normal((n, n))
    W = rng.standard_normal((n, n))
    A = (S - S.T) - 0.5 * W @ W.T - (0.1 * np.eye(n) if strict else 0.0)
    B = rng.standard_normal((n, m))
    Ds = rng.standard_normal((m, m))
    D = 0.5 * (Ds - Ds.T)
    if proper:
        D = D + (0.5 + rng.uniform(0.0, 1.0)) * np.eye(m)
    return StateSpaceSystem(A, B, B.T.copy(), D, split=(m1, m2))


def random_resistance(rng: np.random.Generator, m1: int, m2: int):
    from passivenet.transforms import ResistanceMatrix

    def spd(k):
        if k == 0:
            return np.zeros((0, 0))
        Q = rng.standard_normal((k, k))
        return Q @ Q.T + (0.5 + rng.uniform()) * np.eye(k)

    return ResistanceMatrix(spd(m1), spd(m2))


# Bound on simulate.step_response's normwise gap to the per-sample oracle;
# the largest gap measured is 4.0e-12, on a two-segment composite's states.
STEP_PARITY = 1e-10


def normwise(got: np.ndarray, want: np.ndarray) -> float:
    """|got - want| / |want| in the Frobenius norm (absolute when want = 0)."""
    gap = float(np.linalg.norm(got - want))
    scale = float(np.linalg.norm(want))
    return gap / scale if scale else gap


def stepping_gaps(phi, inputs, x0=None, record_energy="impedance", probe=None) -> dict:
    """Gaps of ``simulate.step_response`` to ``oracles.step_response_loop``.

    Outputs, states and ``states @ probe`` are compared normwise; the energy
    balance, a difference of energies, per unit of the largest |x_j|^2
    (successor of the last step included) plus the largest |u_j|^2 and
    |y_j|^2 (absolute when all are zero).
    """
    got = step_response(phi, inputs, x0=x0, record_energy=record_energy)
    want = step_response_loop(phi, inputs, x0=x0, record_energy=record_energy)
    if not record_energy:
        return {"outputs": normwise(got, want)}
    (Y, balance, states), (Yw, balance_w, states_w) = got, want
    gaps = {"outputs": normwise(Y, Yw), "states": normwise(states, states_w)}
    if probe is not None:
        gaps["probe"] = normwise(states @ probe, states_w @ probe)
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    energies = [(a ** 2).sum(axis=1).max(initial=0.0) for a in (states_w, U, Yw)]
    if len(U):  # the last step's successor, which no recorded state holds
        x_last = phi.Ad @ states_w[-1] + phi.Bd @ U[-1]
        energies.append(x_last @ x_last)
    gaps["balance"] = float(np.abs(balance - balance_w).max(initial=0.0)) / (sum(energies) or 1.0)
    return gaps


def system_norm(sys) -> float:
    """|[[A, B], [C, D]]|_2, the scale of a system's data."""
    return float(np.linalg.norm(np.block([[sys.A, sys.B], [sys.C, sys.D]]), 2))


def assert_same_realisation(got, want, kappa: float, scale: float) -> None:
    """got and want share shapes and split, and each of A, B, C, D agrees to
    8 eps kappa (max|want| + scale): a solve of condition kappa loses about
    eps kappa of whatever it produces, and of the data it starts from."""
    assert got.split == want.split
    for name in "ABCD":
        X, Y = getattr(got, name), getattr(want, name)
        assert X.shape == Y.shape, name
        bound = 8 * np.finfo(float).eps * kappa * (np.abs(Y).max(initial=0.0) + scale)
        assert np.abs(X - Y).max(initial=0.0) <= bound, name


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
