"""Numerical Poisson brackets over the 16-dimensional canonical phase space.

The bracket pairs (x, p) and (q, pi) with lower-index derivatives realized
through the metric on the stored contravariant components:

    {f, g} = g^{mn} (df/dx^m dg/dp^n - df/dp^m dg/dx^n)
           + g^{mn} (df/dq^m dg/dpi^n - df/dpi^m dg/dq^n)

Phase functions take a ``(..., 16)`` array of points ordered (x, p, q, pi):
x at indices 0-3, p at 4-7, q at 8-11 and pi at 12-15, each block holding
contravariant components.  They return one value per row, so every gradient
is one batched evaluation of the function at its 32 perturbed points.  All
partial derivatives are central finite differences with coordinate-relative
step (:func:`zitterkit.lagrangian.central_gradient`).

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
from typing import Callable

import numpy as np

from .lagrangian import ModelParams, PhasePoint, central_gradient, hamiltonian_rows
from .minkowski import inner, wedge

__all__ = [
    "BRACKET_ORIENTATION",
    "PhaseFunction",
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

_BLOCKS = {"x": slice(0, 4), "p": slice(4, 8), "q": slice(8, 12), "pi": slice(12, 16)}


@dataclass(frozen=True)
class PhaseFunction:
    """Real-valued function on phase space, with a label.

    ``fn`` maps a ``(..., 16)`` array ordered (x, p, q, pi) to one value per
    row (see the module docstring for the index map).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.fn(y)


def _combine(gf: np.ndarray, gg: np.ndarray) -> float:
    # the 16 partials as the canonical pairs (x, p) and (q, pi): axis 1
    # picks the coordinate (0) or its momentum (1)
    f, g = gf.reshape(2, 2, 4), gg.reshape(2, 2, 4)
    return float((inner(f[:, 0], g[:, 1]) - inner(f[:, 1], g[:, 0])).sum())


def poisson(f: PhaseFunction, g: PhaseFunction, s: PhasePoint, h: float = 1e-4) -> float:
    """Literal finite-difference Poisson bracket {f, g} at the point s."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    y0 = s.as_array()
    return _combine(central_gradient(f, y0, h), central_gradient(g, y0, h))


def bracket_rate(hamiltonian_fn: PhaseFunction, g: PhaseFunction, s: PhasePoint,
                 h: float = 1e-4) -> float:
    """Evolution rate of g generated by the Hamiltonian, with the pinned
    global orientation applied (see module docstring)."""
    return BRACKET_ORIENTATION * poisson(hamiltonian_fn, g, s, h)


def coordinate(block: str, mu: int) -> PhaseFunction:
    """Coordinate function for one contravariant component of x, p, q or pi."""
    if block not in _BLOCKS:
        raise ValueError(f"block must be one of {sorted(_BLOCKS)}, got {block!r}")
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"index must be 0..3, got {mu}")
    i = _BLOCKS[block].start + mu
    return PhaseFunction(fn=lambda y: y[..., i], label=f"{block}^{mu}")


def hamiltonian_function(params: ModelParams) -> PhaseFunction:
    """The free scalar Hamiltonian of the n=1 theory as a phase function,
    :func:`zitterkit.lagrangian.hamiltonian_rows`."""
    return PhaseFunction(fn=lambda y: hamiltonian_rows(params, y), label="H")


def canonical_spin_function(mu: int, nu: int) -> PhaseFunction:
    """Canonical spin-tensor component q^mu pi^nu - q^nu pi^mu."""
    return PhaseFunction(fn=lambda y: wedge(y[..., 8:12], y[..., 12:16])[..., mu, nu],
                         label=f"S^{mu}{nu}")


@dataclass(frozen=True)
class AppendixBracketReport:
    """Residual maxima of the bracket-form evolution equations at one point.

    Every residual compares ``BRACKET_ORIENTATION * {H, G}`` against the
    classical rate of G: momentum conservation, the two canonical pairs, and
    the spin-tensor evolution.
    """

    orientation: float
    h: float
    momentum_max: float
    position_max: float
    velocity_max: float
    pi_max: float
    spin_max: float

    @property
    def max_residual(self) -> float:
        return max(self.momentum_max, self.position_max, self.velocity_max,
                   self.pi_max, self.spin_max)

    def as_dict(self) -> dict:
        return {
            "{H,p} momentum conservation": self.momentum_max,
            "{H,x} position rate": self.position_max,
            "{H,q} velocity rate": self.velocity_max,
            "{H,pi} first-order momentum rate": self.pi_max,
            "{H,S} spin-tensor rate": self.spin_max,
        }


def verify_appendix(params: ModelParams, s: PhasePoint, h: float = 1e-4) -> AppendixBracketReport:
    """Evaluate the five bracket-form evolution identities of the free n=1
    theory at one phase-space point and report their residual maxima."""
    y0 = s.as_array()
    gh = central_gradient(hamiltonian_function(params), y0, h)  # raises unless n=1
    m = params.m
    k1 = params.k1
    sgn = BRACKET_ORIENTATION

    def rate(g: PhaseFunction) -> float:
        return sgn * _combine(gh, central_gradient(g, y0, h))

    r_p = max(abs(rate(coordinate("p", mu))) for mu in range(4))
    r_x = max(abs(rate(coordinate("x", mu)) - s.q[mu]) for mu in range(4))
    r_q = max(abs(rate(coordinate("q", mu)) - s.pi[mu] / k1) for mu in range(4))
    r_pi = max(abs(rate(coordinate("pi", mu)) + (s.p[mu] - m * s.q[mu])) for mu in range(4))
    expected = wedge(s.p.components, s.q.components)
    r_s = max(abs(rate(canonical_spin_function(mu, nu)) - expected[mu, nu])
              for mu in range(4) for nu in range(mu + 1, 4))
    return AppendixBracketReport(orientation=sgn, h=h, momentum_max=r_p,
                                 position_max=r_x, velocity_max=r_q,
                                 pi_max=r_pi, spin_max=r_s)
