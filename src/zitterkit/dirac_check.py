"""Finite-dimensional operator checks with explicit gamma matrices.

The momentum is treated as a commuting numeric 4-tuple, so every identity of
the proper-time operator theory (scalar Hamiltonian slash(p) - m) reduces to
4x4 complex matrix algebra.  The Dirac representation is used throughout so
example matrices are reproducible bit for bit.

Orientation.  Operator evolution rates are computed as i[G, H].  This is the
same global orientation pin as in :mod:`zitterkit.brackets`: with the
opposite commutator order every spin and acceleration identity of the theory
flips sign under this metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Residuals, residual
from .minkowski import METRIC, FourVector, check_on_shell, dot, lower

__all__ = [
    "gamma_matrices",
    "slash",
    "proper_time_hamiltonian",
    "heisenberg_rate",
    "spin_operator",
    "clifford_residual",
    "onshell_projector",
    "HeisenbergReport",
    "verify_heisenberg",
    "OnshellReport",
    "verify_onshell_zbw",
]

_ID = np.eye(4, dtype=complex)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _build_gammas() -> tuple[np.ndarray, ...]:
    g0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    gs = [g0]
    for sig in _SIGMA:
        g = np.zeros((4, 4), dtype=complex)
        g[:2, 2:] = sig
        g[2:, :2] = -sig
        gs.append(g)
    for g in gs:
        g.flags.writeable = False
    return tuple(gs)


_GAMMAS = _build_gammas()


def gamma_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four gamma matrices in the Dirac representation; they satisfy
    g^mu g^nu + g^nu g^mu = 2 eta^{mu nu} I."""
    return tuple(g.copy() for g in _GAMMAS)


def slash(p: FourVector) -> np.ndarray:
    """Contraction p_mu gamma^mu with explicit index lowering."""
    pl = lower(p)
    return sum(pl[mu] * _GAMMAS[mu] for mu in range(4))


def proper_time_hamiltonian(p: FourVector, m: float) -> np.ndarray:
    """Scalar operator Hamiltonian slash(p) - m."""
    return slash(p) - m * _ID


def heisenberg_rate(op: np.ndarray, ham: np.ndarray) -> np.ndarray:
    """Operator evolution rate i[G, H] (orientation pinned, see module doc)."""
    return 1j * (op @ ham - ham @ op)


def spin_operator(mu: int, nu: int) -> np.ndarray:
    """Spin-tensor operator i (g^mu g^nu - g^nu g^mu) / 4."""
    if mu not in range(4) or nu not in range(4):
        raise ValueError(f"indices must be 0..3, got ({mu}, {nu})")
    gm, gn = _GAMMAS[mu], _GAMMAS[nu]
    return 0.25j * (gm @ gn - gn @ gm)


def clifford_residual() -> float:
    """Largest Frobenius deviation of the anticommutators from 2 eta I."""
    eta = np.diag(METRIC)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = _GAMMAS[mu] @ _GAMMAS[nu] + _GAMMAS[nu] @ _GAMMAS[mu]
            worst = max(worst, float(np.linalg.norm(anti - 2.0 * eta[mu, nu] * _ID)))
    return worst


def _frob(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


@dataclass(frozen=True)
class HeisenbergReport(Residuals):
    """Frobenius residual maxima of the four operator evolution identities:

    (a) rate of p^mu vanishes;
    (b) rate of the spin operator equals p^mu g^nu - p^nu g^mu;
    (c) the acceleration operator rate(g^mu) equals 4 S^{mu nu} p_nu;
    (d) rate of the acceleration equals -4 p^2 g^mu + 4 p^mu slash(p).
    """

    momentum_rate_max: float = residual("(a) momentum rate")
    spin_rate_max: float = residual("(b) spin-operator rate")
    acceleration_identity_max: float = residual("(c) acceleration operator")
    acceleration_rate_max: float = residual("(d) acceleration rate")


def verify_heisenberg(p: FourVector, m: float) -> HeisenbergReport:
    """Check the operator evolution identities for one (possibly off-shell)
    momentum; they are purely algebraic and hold for any p and m."""
    ham = proper_time_hamiltonian(p, m)
    pc = p.components
    pl = lower(p)
    sl = slash(p)
    p2 = dot(p, p)

    res_a = max(_frob(heisenberg_rate(pc[mu] * _ID, ham)) for mu in range(4))

    res_b = 0.0
    for mu in range(4):
        for nu in range(mu + 1, 4):
            lhs = heisenberg_rate(spin_operator(mu, nu), ham)
            rhs = pc[mu] * _GAMMAS[nu] - pc[nu] * _GAMMAS[mu]
            res_b = max(res_b, _frob(lhs - rhs))

    res_c = 0.0
    res_d = 0.0
    for mu in range(4):
        accel = heisenberg_rate(_GAMMAS[mu], ham)
        rhs_c = 4.0 * sum(pl[nu] * spin_operator(mu, nu) for nu in range(4))
        res_c = max(res_c, _frob(accel - rhs_c))
        lhs_d = heisenberg_rate(accel, ham)
        rhs_d = -4.0 * p2 * _GAMMAS[mu] + 4.0 * pc[mu] * sl
        res_d = max(res_d, _frob(lhs_d - rhs_d))

    return HeisenbergReport(momentum_rate_max=res_a, spin_rate_max=res_b,
                            acceleration_identity_max=res_c,
                            acceleration_rate_max=res_d)


def onshell_projector(p: FourVector, m: float) -> np.ndarray:
    """Closed-form projector (slash(p) + m) / 2m onto the eigenvalue-m
    eigenspace of slash(p); idempotent exactly when p is on shell."""
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    return (slash(p) + m * _ID) / (2.0 * m)


@dataclass(frozen=True)
class OnshellReport(Residuals):
    """Subspace residuals of the operator velocity equation on shell."""

    eigenspace_dim: int
    projector_residual: float = residual("projector consistency")
    acceleration_rate_subspace_max: float = residual("acceleration rate on subspace")
    zbw_identity_max: float = residual("velocity equation on subspace")


def verify_onshell_zbw(p: FourVector, m: float) -> OnshellReport:
    """Operator form of the velocity equation restricted to physical states.

    Requires p on the mass shell.  Projected onto the eigenvalue-m eigenspace
    of slash(p) (dimension 2), the acceleration rate collapses to
    -4 m^2 g^mu + 4 m p^mu and the velocity operator obeys
    g^mu = p^mu / m - rate(accel)^mu / (4 m^2).
    """
    check_on_shell(p, m)
    sl = slash(p)
    eigvals = np.linalg.eigvals(sl)
    dim = int(np.sum(np.abs(eigvals - m) <= 1e-8 * max(1.0, abs(m))))
    if dim != 2:
        raise ValueError(f"eigenvalue-m eigenspace of slash(p) has dimension {dim}, expected 2")

    proj = onshell_projector(p, m)
    projector_residual = max(_frob(proj @ proj - proj), _frob(proj @ sl - m * proj))

    ham = proper_time_hamiltonian(p, m)
    pc = p.components
    res_rate = 0.0
    res_zbw = 0.0
    for mu in range(4):
        accel = heisenberg_rate(_GAMMAS[mu], ham)
        accel_rate = heisenberg_rate(accel, ham)
        rhs = -4.0 * m * m * _GAMMAS[mu] + 4.0 * m * pc[mu] * _ID
        res_rate = max(res_rate, _frob(proj @ (accel_rate - rhs) @ proj))
        zbw = _GAMMAS[mu] - pc[mu] / m * _ID + accel_rate / (4.0 * m * m)
        res_zbw = max(res_zbw, _frob(proj @ zbw @ proj))

    return OnshellReport(eigenspace_dim=dim, projector_residual=projector_residual,
                         acceleration_rate_subspace_max=res_rate,
                         zbw_identity_max=res_zbw)
