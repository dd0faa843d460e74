"""Order-n higher-derivative Lagrangian theory of spinning particles.

The free Lagrangian is a sum of squares of proper-time derivatives of the
4-velocity with alternating-sign coefficients ``k_0 .. k_n`` (``k_0 = m``).
For the physical first-order theory ``k_1 = -hbar^2 / (4 m c^4)``, which makes
every internal oscillation run at the Compton frequency ``2 m c^2 / hbar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .forms import FloatForm
from .minkowski import METRIC, FourVector, dot, inner

__all__ = [
    "ModelParams",
    "PhasePoint",
    "Potential",
    "ScalarPotential",
    "lagrangian_value",
    "canonical_momentum",
    "pi_momentum",
    "hamiltonian",
    "hamiltonian_rows",
    "newton_law_residual",
    "characteristic_frequencies",
    "central_gradient",
]


def central_gradient(f_rows: Callable[[np.ndarray], np.ndarray], x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function at each point of x.

    ``x`` has shape (..., D); coordinate i of a point moves by
    ``h_i = step * (1 + |x_i|)``.  ``f_rows`` is called once, on the
    (..., 2D, D) array holding, for each point, the points ``x + h_i e_i``
    followed by ``x - h_i e_i``, and must return one value per row.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = step * (1.0 + np.abs(x))
    shifts = h[..., None] * np.eye(d)
    x = x[..., None, :]
    values = f_rows(np.concatenate([x + shifts, x - shifts], axis=-2))
    return (values[..., :d] - values[..., d:]) / (2.0 * h)


def potential_parameter(label: str, name: str, value, positive: bool = False,
                        components: int | None = None) -> np.ndarray:
    """Parameter ``name`` of the built-in ``label`` potential as floats;
    ValueError naming both unless it is a vector of ``components`` entries
    (if given) and every entry is finite (and > 0 if ``positive``), so that
    a bad parameter fails before any step.  The floats are a copy, so the
    potential does not change with the caller's array."""
    arr = np.array(value, dtype=float)
    if components is not None and arr.shape != (components,):
        raise ValueError(f"{label} potential: {name} must have {components} components, "
                         f"got shape {arr.shape}")
    if not (np.isfinite(arr).all() and (not positive or (arr > 0).all())):
        raise ValueError(f"{label} potential: {name} must be "
                         f"{'positive and ' if positive else ''}finite, got {arr.tolist()}")
    return arr


def coordinates(d: int) -> tuple:
    """The names x0 .. x{d-1} of the coordinates of a potential's float form."""
    return tuple(f"x{i}" for i in range(d))


#: Relative step of the central differences of a potential without ``grad``.
GRADIENT_STEP = 1e-6


class Potential:
    """Scalar potential U on points of shape (..., D).

    ``fn`` returns values of shape (...).  ``partials(x0, ..., x{D-1})``
    takes the D coordinates separately, as floats or as arrays of one
    shape, and returns the D plain partials dU/dx^i; it must give the same
    bits on floats as on arrays of them.  Every built-in defines its
    gradient once, as the :class:`~zitterkit.forms.FloatForm` ``partials``
    over x0 .. x{D-1}, whose constants and temporaries start with ``u_``;
    the integrators splice its text into their own float forms, and
    ``partials`` is the callable compiled from it.  A potential given by
    ``fn`` alone or with ``grad`` gets a ``partials`` that stacks the
    coordinates into points (..., D) and runs ``grad`` or, without it, one
    batched :func:`central_gradient` call of step GRADIENT_STEP; the
    integrators reach it through the one-line form
    ``u_partials(x0, ..., x{D-1})``.  There is no per-point fallback: a
    result of the wrong shape raises ValueError naming ``label``.
    Subclasses set the dimension ``dim``.
    """

    dim: int

    def __init__(self, fn: Callable, grad: Callable | None = None,
                 label: str = "potential", partials: FloatForm | None = None):
        if grad is not None and partials is not None:
            raise ValueError(f"potential {label!r}: give grad or partials, not both")
        self._fn = fn
        self._grad = grad
        self.partials = self._stacked_partials if partials is None else partials
        self.label = label

    @property
    def partials_form(self) -> FloatForm:
        """The partials as a float form over x0 .. x{D-1}: a built-in's own,
        or the one-line call of any other ``partials``."""
        if isinstance(self.partials, FloatForm):
            return self.partials
        return FloatForm.call(self.partials, coordinates(self.dim), name="u_partials")

    def _stacked_partials(self, *coords):
        """The partials from ``grad`` or central differences: Python floats
        for float coordinates, columns for array ones."""
        # np.array packs one point's floats ~10x faster than np.stack
        x = np.array(coords) if isinstance(coords[0], float) else np.stack(coords, axis=-1)
        if self._grad is None:
            g = central_gradient(self.value_many, x, GRADIENT_STEP)
        else:
            g = np.asarray(self._grad(x), dtype=float)
            if g.shape != x.shape:
                raise ValueError(f"gradient of potential {self.label!r} returned shape "
                                 f"{g.shape} for points of shape {x.shape}")
        return tuple(g.tolist()) if g.ndim == 1 else tuple(np.moveaxis(g, -1, 0))

    def value(self, x) -> float:
        return float(self.value_many(x))

    def value_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        try:
            out = np.asarray(self._fn(xs), dtype=float)
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"potential {self.label!r} does not broadcast over "
                             f"points of shape {xs.shape}: {exc}") from exc
        if out.shape != xs.shape[:-1]:
            raise ValueError(f"potential {self.label!r} returned shape {out.shape} "
                             f"for points of shape {xs.shape}")
        return out

    def gradient(self, xs) -> np.ndarray:
        """Plain partials dU/dx^i at one point (D,) or many (..., D)."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape)
        for i, value in enumerate(self.partials(*np.moveaxis(xs, -1, 0))):
            out[..., i] = value
        return out

    @classmethod
    def zero(cls) -> "Potential":
        return cls(lambda x: np.zeros(np.shape(x)[:-1]),
                   partials=FloatForm(coordinates(cls.dim), ", ".join(["0.0"] * cls.dim)),
                   label="zero")


@dataclass(frozen=True)
class ModelParams:
    """Model constants: mass, units, derivative order and coefficients.

    ``k`` holds the n+1 Lagrangian coefficients, low order first.  They must
    carry alternating signs, ``(-1)^i k_i > 0``, and ``k[0]`` must equal the
    mass.  When ``k`` is omitted the physical defaults are used: ``(m,)`` for
    n=0 and ``(m, -hbar^2/(4 m c^4))`` for n=1.
    """

    m: float
    n: int = 1
    hbar: float = 1.0
    c: float = 1.0
    k: tuple = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 0):
            raise ValueError(f"derivative order n must be a non-negative integer, got {self.n}")
        for name in ("m", "hbar", "c"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if self.k is None:
            if self.n == 0:
                k = (float(self.m),)
            elif self.n == 1:
                try:
                    k = (float(self.m), -self.hbar**2 / (4.0 * self.m * self.c**4))
                except (OverflowError, ZeroDivisionError) as exc:
                    raise ValueError(f"k1 = -hbar^2/(4 m c^4) leaves the float range at "
                                     f"hbar={self.hbar}, m={self.m}, c={self.c}") from exc
            else:
                raise ValueError(f"coefficients k must be given explicitly for n={self.n}")
            object.__setattr__(self, "k", k)
        else:
            k = tuple(float(x) for x in self.k)
            object.__setattr__(self, "k", k)
        if len(self.k) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficients for n={self.n}, got {len(self.k)}")
        if abs(self.k[0] - self.m) > 1e-12 * max(1.0, abs(self.m)):
            raise ValueError(f"k[0] must equal the mass {self.m}, got {self.k[0]}")
        for i, ki in enumerate(self.k):
            if not np.isfinite(ki) or (-1.0) ** i * ki <= 0:
                raise ValueError(
                    f"coefficients must alternate in sign, (-1)^i k_i > 0; k[{i}]={ki}"
                )

    @property
    def k1(self) -> float:
        if self.n < 1:
            raise ValueError("k1 is undefined for the zeroth-order theory")
        return self.k[1]

    @property
    def compton_frequency(self) -> float:
        """Internal oscillation frequency sqrt(-k0/k1) of the n=1 theory;
        equals 2 m c^2 / hbar for the physical coefficient."""
        return float(np.sqrt(-self.m / self.k1))


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Canonical n=1 state: position x, momentum p, velocity q and the
    first-order momentum pi conjugate to q."""

    x: FourVector
    p: FourVector
    q: FourVector
    pi: FourVector
    tau: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")

    @classmethod
    def from_array(cls, y, tau: float = 0.0) -> "PhasePoint":
        """State from a 16-vector ordered (x, p, q, pi)."""
        blocks = np.asarray(y, dtype=float).reshape(4, 4)
        x, p, q, pi = (FourVector.from_array(b) for b in blocks)
        return cls(x=x, p=p, q=q, pi=pi, tau=tau)

    def as_array(self) -> np.ndarray:
        """The 16-vector (x, p, q, pi); the inverse of :meth:`from_array`."""
        return np.concatenate([self.x.components, self.p.components,
                               self.q.components, self.pi.components])


class ScalarPotential(Potential):
    """Scalar potential on spacetime: points are contravariant components
    (..., 4) and ``gradient`` returns the lower-index partials dU/dx^mu.
    The Lagrangian L_0 + U (:func:`lagrangian_value`) gives the force
    pdot^mu = g^{mu nu} dU/dx^nu, whose spatial part is -grad U."""

    dim = 4

    @classmethod
    def linear(cls, b) -> "ScalarPotential":
        """U(x) = b_mu x^mu for contravariant components b; the partials are
        the constant lowered vector METRIC * b, and the force pdot = b."""
        b = potential_parameter("linear", "b", b, components=4)
        lowered = {f"u_b{mu}": value for mu, value in enumerate((METRIC * b).tolist())}
        return cls(lambda x: inner(b, np.asarray(x)),
                   partials=FloatForm(coordinates(4), ", ".join(lowered), constants=lowered),
                   label="linear")

    @classmethod
    def harmonic_spatial(cls, strength: float) -> "ScalarPotential":
        """U(x) = (strength/2) |x_spatial|^2 with analytic gradient; its
        force -strength x_spatial confines for strength > 0."""
        s = float(potential_parameter("harmonic", "k", strength))
        return cls(lambda x: 0.5 * s * (np.asarray(x)[..., 1:] ** 2).sum(-1),
                   partials=FloatForm(coordinates(4), "0.0, u_s * x1, u_s * x2, u_s * x3",
                                      constants={"u_s": s}),
                   label="harmonic")


def _check_stack(stack: Sequence[FourVector], needed: int, what: str):
    if len(stack) < needed:
        raise ValueError(f"{what} needs at least {needed} stack entries, got {len(stack)}")


def _alternating_even_sum(params: ModelParams, stack: Sequence[FourVector]) -> np.ndarray:
    total = np.zeros(4)
    for i in range(params.n + 1):
        total += (-1.0) ** i * params.k[i] * stack[2 * i].components
    return total


def lagrangian_value(params: ModelParams, stack: Sequence[FourVector],
                     potential_energy: float = 0.0) -> float:
    """Lagrangian sum over (1/2) k_i <v^(i), v^(i)> plus the potential: the
    metric's minus sign on the spatial kinetic terms makes L_0 + U the
    non-relativistic T - U up to an overall sign, with force -grad U.

    ``stack`` lists the velocity and its proper-time derivatives, lowest
    order first; at least n+1 entries are required.
    """
    _check_stack(stack, params.n + 1, "lagrangian_value")
    total = 0.0
    for i in range(params.n + 1):
        total += 0.5 * params.k[i] * dot(stack[i], stack[i])
    return total + potential_energy


def canonical_momentum(params: ModelParams, stack: Sequence[FourVector]) -> FourVector:
    """Conserved momentum sum of (-1)^i k_i v^(2i); needs derivatives up to
    order 2n in the stack."""
    _check_stack(stack, 2 * params.n + 1, "canonical_momentum")
    return FourVector.from_array(_alternating_even_sum(params, stack))


def pi_momentum(params: ModelParams, a: FourVector) -> FourVector:
    """First-order momentum k1 * a conjugate to the velocity."""
    if params.n < 1:
        raise ValueError("the first-order momentum requires n >= 1")
    return FourVector.from_array(params.k1 * a.components)


def hamiltonian_rows(params: ModelParams, y) -> np.ndarray:
    """Free scalar Hamiltonian H = <p,q> - (m/2)<q,q> + <pi,pi>/(2 k1) of the
    n=1 theory, without the potential, at each (..., 16) row (x, p, q, pi)."""
    if params.n != 1:
        raise ValueError(f"the Hamiltonian form is implemented for n=1 only, got n={params.n}")
    p, q, pi = y[..., 4:8], y[..., 8:12], y[..., 12:16]
    return inner(p, q) - 0.5 * params.m * inner(q, q) + inner(pi, pi) / (2.0 * params.k1)


def hamiltonian(params: ModelParams, s: PhasePoint, potential_energy: float = 0.0) -> float:
    """Conserved scalar Hamiltonian of the n=1 theory at one state,
    :func:`hamiltonian_rows` minus the potential energy U, the Legendre
    transform of :func:`lagrangian_value`'s L_0 + U."""
    return float(hamiltonian_rows(params, s.as_array())) - potential_energy


def newton_law_residual(params: ModelParams, accel_stack: Sequence[FourVector],
                        force: FourVector) -> FourVector:
    """Residual of the generalized force law, sum of (-1)^i k_i a^(2i) - F.

    ``accel_stack`` lists the acceleration and its derivatives (entry i is the
    (i+1)-th derivative of the velocity); zero on any exact solution.
    """
    _check_stack(accel_stack, 2 * params.n + 1, "newton_law_residual")
    return FourVector.from_array(_alternating_even_sum(params, accel_stack) - force.components)


def characteristic_frequencies(params: ModelParams) -> list[float]:
    """Positive real oscillation frequencies of the free theory.

    Substituting an oscillatory velocity into the homogeneous force law turns
    it into the even polynomial sum(k_i w^(2i)) = 0; the function returns the
    positive real roots w, sorted ascending (possibly empty).  Roots of the
    polynomial in z = w^2 come from ``np.roots``, the eigenvalues of its
    companion matrix; a root is accepted as real when |Im z| <= 1e-10 |z|.
    """
    roots = np.roots(params.k[::-1])
    freqs = []
    for z in roots:
        if abs(z.imag) <= 1e-10 * abs(z) and z.real > 0:
            freqs.append(float(np.sqrt(z.real)))
    return sorted(freqs)
