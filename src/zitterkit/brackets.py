"""Numerical Poisson brackets over the 16-dimensional canonical phase space.

The bracket pairs (x, p) and (q, pi) with lower-index derivatives realized
through the metric on the stored contravariant components:

    {f, g} = g^{mn} (df/dx^m dg/dp^n - df/dp^m dg/dx^n)
           + g^{mn} (df/dq^m dg/dpi^n - df/dpi^m dg/dq^n)

Phase functions are plain callables ``f(y)`` of a ``(..., 16)`` array of
points ordered (x, p, q, pi): x at indices 0-3, p at 4-7, q at 8-11 and pi
at 12-15, each block holding contravariant components.  They return one
value per row, so every gradient is one batched evaluation of the function
at its 32 perturbed points.  All partial derivatives are central finite
differences with coordinate-relative step ``STEP``
(:func:`zitterkit.lagrangian.central_gradient`).

Orientation.  Under this metric the literal bracket above yields
{H, x} = -q, the opposite of the first canonical evolution equation
xdot = dH/dp = q.  The evolution convention is therefore pinned globally:
time derivatives are evaluated as dG/dtau = BRACKET_ORIENTATION * {H, G}
with BRACKET_ORIENTATION = -1, which makes every evolution equation of the
theory hold with its conventional sign.  ``poisson`` itself always returns
the literal bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Residuals, residual
from .lagrangian import ModelParams, PhasePoint, central_gradient, hamiltonian_rows
from .minkowski import inner, wedge

__all__ = [
    "BRACKET_ORIENTATION",
    "poisson",
    "bracket_rate",
    "coordinate",
    "hamiltonian_function",
    "canonical_spin_function",
    "AppendixBracketReport",
    "verify_appendix",
]

#: Global sign relating the literal bracket to evolution: dG/dtau = -{H, G}.
BRACKET_ORIENTATION = -1.0

#: Relative step of every finite-difference partial derivative.
STEP = 1e-4

_BLOCKS = {"x": slice(0, 4), "p": slice(4, 8), "q": slice(8, 12), "pi": slice(12, 16)}


def _combine(gf: np.ndarray, gg: np.ndarray) -> float:
    # the 16 partials as the canonical pairs (x, p) and (q, pi): axis 1
    # picks the coordinate (0) or its momentum (1)
    f, g = gf.reshape(2, 2, 4), gg.reshape(2, 2, 4)
    return float((inner(f[:, 0], g[:, 1]) - inner(f[:, 1], g[:, 0])).sum())


def poisson(f, g, s: PhasePoint) -> float:
    """Literal finite-difference Poisson bracket {f, g} at the point s."""
    y0 = s.as_array()
    return _combine(central_gradient(f, y0, STEP), central_gradient(g, y0, STEP))


def bracket_rate(hamiltonian_fn, g, s: PhasePoint) -> float:
    """Evolution rate of g generated by the Hamiltonian, with the pinned
    global orientation applied (see module docstring)."""
    return BRACKET_ORIENTATION * poisson(hamiltonian_fn, g, s)


def coordinate(block: str, mu: int):
    """Coordinate function for one contravariant component of x, p, q or pi."""
    if block not in _BLOCKS:
        raise ValueError(f"block must be one of {sorted(_BLOCKS)}, got {block!r}")
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"index must be 0..3, got {mu}")
    i = _BLOCKS[block].start + mu
    return lambda y: y[..., i]


def hamiltonian_function(params: ModelParams):
    """The free scalar Hamiltonian of the n=1 theory as a phase function,
    :func:`zitterkit.lagrangian.hamiltonian_rows`."""
    return lambda y: hamiltonian_rows(params, y)


def canonical_spin_function(mu: int, nu: int):
    """Canonical spin-tensor component q^mu pi^nu - q^nu pi^mu."""
    return lambda y: wedge(y[..., 8:12], y[..., 12:16])[..., mu, nu]


@dataclass(frozen=True)
class AppendixBracketReport(Residuals):
    """Residual maxima of the bracket-form evolution equations at one point.

    Every residual compares ``BRACKET_ORIENTATION * {H, G}`` against the
    classical rate of G: momentum conservation, the two canonical pairs, and
    the spin-tensor evolution.
    """

    momentum_max: float = residual("{H,p} momentum conservation")
    position_max: float = residual("{H,x} position rate")
    velocity_max: float = residual("{H,q} velocity rate")
    pi_max: float = residual("{H,pi} first-order momentum rate")
    spin_max: float = residual("{H,S} spin-tensor rate")


def verify_appendix(params: ModelParams, s: PhasePoint) -> AppendixBracketReport:
    """Evaluate the five bracket-form evolution identities of the free n=1
    theory at one phase-space point and report their residual maxima."""
    y0 = s.as_array()
    gh = central_gradient(hamiltonian_function(params), y0, STEP)  # raises unless n=1
    m = params.m
    k1 = params.k1
    sgn = BRACKET_ORIENTATION

    def rate(g) -> float:
        return sgn * _combine(gh, central_gradient(g, y0, STEP))

    r_p = max(abs(rate(coordinate("p", mu))) for mu in range(4))
    r_x = max(abs(rate(coordinate("x", mu)) - s.q[mu]) for mu in range(4))
    r_q = max(abs(rate(coordinate("q", mu)) - s.pi[mu] / k1) for mu in range(4))
    r_pi = max(abs(rate(coordinate("pi", mu)) + (s.p[mu] - m * s.q[mu])) for mu in range(4))
    expected = wedge(s.p.components, s.q.components)
    r_s = max(abs(rate(canonical_spin_function(mu, nu)) - expected[mu, nu])
              for mu in range(4) for nu in range(mu + 1, 4))
    return AppendixBracketReport(momentum_max=r_p, position_max=r_x, velocity_max=r_q,
                                 pi_max=r_pi, spin_max=r_s)
