"""Minkowski-space primitives: 4-vectors, antisymmetric rank-2 tensors, and the
spin/boost decompositions built from them.

The metric signature is (+, -, -, -).  Components are always stored
contravariant; index lowering is explicit and never implied.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

__all__ = [
    "METRIC",
    "FourVector",
    "AntisymTensor4",
    "inner",
    "dot",
    "lower",
    "check_on_shell",
    "wedge",
    "spin_tensor_from_va",
    "spin_vector",
    "boost_vector",
    "pauli_lubanski",
    "pauli_lubanski_dual",
]

#: Diagonal of the metric tensor, signature (+, -, -, -).
METRIC = np.array([1.0, -1.0, -1.0, -1.0])
METRIC.flags.writeable = False


def _perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _build_eps_upper() -> np.ndarray:
    # Contravariant Levi-Civita symbol with eps^{0123} = -1, i.e. the covariant
    # symbol normalised to eps_{0123} = +1 under this metric.
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = -_perm_sign(p)
    eps.flags.writeable = False
    return eps


_EPS_UPPER = _build_eps_upper()


class FourVector:
    """Contravariant real 4-vector, time component first.

    Components must be finite; no constraint is placed on the sign of the
    metric square, so the same type carries positions, velocities, momenta
    and spin-related vectors alike.
    """

    __slots__ = ("_c",)

    def __init__(self, c0: float, c1: float, c2: float, c3: float):
        arr = np.array([c0, c1, c2, c3], dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"four-vector components must be finite, got {arr.tolist()}")
        arr.flags.writeable = False
        self._c = arr

    @classmethod
    def from_array(cls, arr) -> "FourVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {arr.shape}")
        return cls(arr[0], arr[1], arr[2], arr[3])

    @classmethod
    def zero(cls) -> "FourVector":
        return cls(0.0, 0.0, 0.0, 0.0)

    @property
    def components(self) -> np.ndarray:
        """Read-only view of the contravariant components."""
        return self._c

    def __getitem__(self, mu: int) -> float:
        return float(self._c[mu])

    def __iter__(self):
        return iter(self._c)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector.from_array(self._c + other._c)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector.from_array(self._c - other._c)

    def __neg__(self) -> "FourVector":
        return FourVector.from_array(-self._c)

    def __mul__(self, scalar: float) -> "FourVector":
        return FourVector.from_array(self._c * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "FourVector":
        return FourVector.from_array(self._c / float(scalar))

    def __repr__(self) -> str:
        return "FourVector({}, {}, {}, {})".format(*self._c)


def inner(a, b) -> np.ndarray:
    """Metric inner product a0*b0 - a1*b1 - a2*b2 - a3*b3 of each pair of
    (..., 4) rows; ``.sum(-1)`` adds a row in the same order whatever stack
    it is part of, so one row and a stack of it give the same bits."""
    return (a * METRIC * b).sum(-1)


def dot(u: FourVector, v: FourVector) -> float:
    """:func:`inner` of two four-vectors."""
    return float(inner(u.components, v.components))


def lower(u: FourVector) -> np.ndarray:
    """Covariant components (u0, -u1, -u2, -u3) as a plain array."""
    return METRIC * u.components


#: Tolerance of the mass-shell check of a given momentum.
SHELL_TOL = 1e-10


def check_on_shell(p: FourVector, m: float) -> float:
    """<p,p>, which must equal m^2 within SHELL_TOL or raise ValueError."""
    pp = dot(p, p)
    if abs(pp - m * m) > SHELL_TOL:
        raise ValueError(f"p is off shell: <p,p> = {pp}, expected m^2 = {m * m}")
    return pp


class AntisymTensor4:
    """Antisymmetric rank-2 tensor with six independent components.

    The accessor satisfies ``component(mu, nu) == -component(nu, mu)`` and a
    zero diagonal exactly, by construction.
    """

    __slots__ = ("_m",)

    def __init__(self, s01=0.0, s02=0.0, s03=0.0, s12=0.0, s13=0.0, s23=0.0):
        m = np.zeros((4, 4))
        m[0, 1], m[0, 2], m[0, 3] = s01, s02, s03
        m[1, 2], m[1, 3] = s12, s13
        m[2, 3] = s23
        m = m - m.T  # exact antisymmetry: IEEE negation of the mirror entry
        if not np.all(np.isfinite(m)):
            raise ValueError("tensor components must be finite")
        m.flags.writeable = False
        self._m = m

    @classmethod
    def from_matrix(cls, m) -> "AntisymTensor4":
        """Build from the strict upper triangle of a 4x4 array (rest ignored)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 array, got shape {m.shape}")
        return cls(m[0, 1], m[0, 2], m[0, 3], m[1, 2], m[1, 3], m[2, 3])

    def component(self, mu: int, nu: int) -> float:
        return float(self._m[mu, nu])

    def __call__(self, mu: int, nu: int) -> float:
        return self.component(mu, nu)

    def as_matrix(self) -> np.ndarray:
        """Read-only view of the full contravariant component matrix."""
        return self._m

    def __add__(self, other: "AntisymTensor4") -> "AntisymTensor4":
        return AntisymTensor4.from_matrix(self._m + other._m)

    def __sub__(self, other: "AntisymTensor4") -> "AntisymTensor4":
        return AntisymTensor4.from_matrix(self._m - other._m)

    def __neg__(self) -> "AntisymTensor4":
        return AntisymTensor4.from_matrix(-self._m)

    def __mul__(self, scalar: float) -> "AntisymTensor4":
        return AntisymTensor4.from_matrix(self._m * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        m = self._m
        return ("AntisymTensor4(s01={}, s02={}, s03={}, s12={}, s13={}, s23={})"
                .format(m[0, 1], m[0, 2], m[0, 3], m[1, 2], m[1, 3], m[2, 3]))


def wedge(a, b) -> np.ndarray:
    """Antisymmetric product a^mu b^nu - a^nu b^mu of each pair of (..., 4)
    rows, as (..., 4, 4) arrays."""
    a, b = np.asarray(a), np.asarray(b)
    return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]


def spin_tensor_from_va(v: FourVector, a: FourVector, k1: float) -> AntisymTensor4:
    """Spin tensor k1 * (v^mu a^nu - v^nu a^mu) of the first-order theory."""
    return AntisymTensor4.from_matrix(k1 * wedge(v.components, a.components))


def spin_vector(s) -> np.ndarray:
    """Spatial spin 3-vector s_i = (1/2) eps_ijk S^jk with eps_123 = +1, of
    an :class:`AntisymTensor4` or of each (..., 4, 4) array."""
    m = s.as_matrix() if isinstance(s, AntisymTensor4) else np.asarray(s)
    return np.stack([m[..., 2, 3], m[..., 3, 1], m[..., 1, 2]], axis=-1)


def boost_vector(s: AntisymTensor4) -> np.ndarray:
    """Boost-generator 3-vector (S^01, S^02, S^03)."""
    m = s.as_matrix()
    return np.array([m[0, 1], m[0, 2], m[0, 3]])


def pauli_lubanski_dual(s: AntisymTensor4, p: FourVector, m: float) -> FourVector:
    """Contraction S^{mu nu} p_nu / m; reduces to (0, -boost_vector) when p is
    at rest.  Dual companion of :func:`pauli_lubanski`."""
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    return FourVector.from_array(s.as_matrix() @ lower(p) / m)


def pauli_lubanski(s: AntisymTensor4, p: FourVector, m: float) -> FourVector:
    """Spin 4-vector (1/2m) eps^{mu nu rho sigma} S_{nu rho} p_sigma.

    With eps_{0123} = +1 this reduces to (0, spin_vector) for p at rest, and
    is orthogonal to p for any inputs.
    """
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    s_low = METRIC[:, None] * METRIC[None, :] * s.as_matrix()
    w = 0.5 / m * np.einsum("mnrs,nr,s->m", _EPS_UPPER, s_low, lower(p))
    return FourVector.from_array(w)
