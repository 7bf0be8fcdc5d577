"""Polarization frames and momentum-space photon wavefunctions.

Natural units (hbar = c = 1) throughout: a photon with wave vector k has
angular frequency omega = |k|.  The central object is the rotated orthonormal
triad e1(k), e2(k), e3(k) = k/|k|; the complex helicity polarization vectors
and the 6-component spinors are built on top of it.

Phase convention
----------------
The orthonormality/completeness relations fix the polarization vectors only
up to phases.  We adopt the convention

    eps(k, 0)  = k/|k|
    eps(k, +1) = -(e1 + i e2)/sqrt(2)
    eps(k, -1) = +(e1 - i e2)/sqrt(2)

which is smooth everywhere except on the negative k3 half-axis (the
"convention seam").  On the axis itself the triad is defined as the limit
along p = (d, 0, p3), d -> 0+: the identity triad for p3 > 0, and
e1 = (-1, 0, 0), e2 = (0, 1, 0), e3 = (0, 0, -1) for p3 < 0.
"""

from __future__ import annotations

import numpy as np

from .errors import PhotonGuideError

HELICITIES = (-1, 0, +1)
_ROWS = {lam: row for row, lam in enumerate(HELICITIES)}

# 0-d constants: a ufunc takes a 0-d array of its operands' dtype faster
# than the Python number of the same value, with the same loop and bits.
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_SQRT2 = np.array(np.sqrt(2.0), dtype=complex)

# Helicities as a column (one expression builds all three frame rows) and the
# spinor norms sqrt(1 + lam^2), complex like the frames they scale.
_HELICITY_COLUMN = np.array(HELICITIES, dtype=complex)[:, None]
_SPINOR_NORMS = np.sqrt(1.0 + np.array(HELICITIES, dtype=float) ** 2)[:, None].astype(complex)

# Axis triads by the limit convention, indexed by (p3 > 0).
_AXIS_TRIADS = np.array([np.diag([-1.0, 1.0, -1.0]), np.eye(3)])

_EYE2 = np.eye(2)

# The constants i lam and -lam of the transverse rows lam = -1, +1, complex
# as the scalar expression -lam (e1 + i lam e2)/sqrt(2) makes them, so that
# both rows, computed at once, round as each does on its own.
_I_LAM = np.array([1j * lam for lam in (-1, +1)])[:, None]
_MINUS_LAM = np.array([-lam for lam in (-1, +1)], dtype=complex)[:, None]


# The largest product array that _dot adds by np.add.accumulate.  The scan's
# cost grows with the rows, the column loop's with the columns: below about
# 100 products the one ufunc call is the faster for 3 and 6 columns, real
# and complex, and over verify's batches it is several times slower.
_SCAN_MAX = 96


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.b over the last axis, a and b broadcast: one array of the products
    a_i b_i, whose last axis is added in index order, ((p0 + p1) + p2) + ...
    No BLAS kernel decides the rounding; for real a and b the Python-float
    formula a0*b0 + a1*b1 + ... gives the same bits.  Up to _SCAN_MAX
    products the sum is np.add.accumulate, a sequential scan (np.add.reduce
    would reassociate it); above, one add per column.  Both give the same
    bits."""
    products = a * b
    if products.size <= _SCAN_MAX:
        return np.add.accumulate(products, axis=-1)[..., -1]
    total = products[..., 0]
    for i in range(1, products.shape[-1]):
        total = total + products[..., i]
    return total


def _norm(k: np.ndarray) -> np.ndarray:
    """|k| over the last axis."""
    return np.sqrt(_dot(k, k))


def omega(k):
    """Photon frequency |k| in natural units: a float for k of shape (3,),
    an array of shape (...) for k of shape (..., 3)."""
    return _norm(np.asarray(k, dtype=float))


def rotated_triad(p) -> np.ndarray:
    """Right-handed orthonormal triad aligned with p, as rows (e1, e2, e3).

    p has shape (..., 3) and the result (..., 3, 3).  The closed form is
    algebraically equivalent to the textbook quotient expression with
    denominators |p| (p1^2 + p2^2), but rewritten through q = 1 + p3/|p| so
    that it stays accurate arbitrarily close to the axis.  For p3 < 0, q is
    computed as (p1^2 + p2^2)/(|p|^2 (1 - p3/|p|)) to avoid the cancellation
    in 1 + p3/|p|.
    """
    p = np.asarray(p, dtype=float)
    points = _stack(p)
    return _rotated_triad(points, _norm(points)).reshape(p.shape + (3,))


def _stack(k: np.ndarray) -> np.ndarray:
    """k of shape (..., 3) as a stack of points, shape (M, 3): the form the
    frame kernels take."""
    if k.shape[-1:] != (3,):
        raise ValueError(f"points must have shape (..., 3), got {k.shape}")
    return k.reshape(-1, 3)


def _rotated_triad(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The triads of the points p, shape (M, 3), given r = |p|: (M, 3, 3)."""
    if np.count_nonzero(r) < len(r):
        raise PhotonGuideError("polarization triad undefined for p = 0")
    triad = np.empty((len(p), 3, 3))
    u = np.divide(p, r[:, None], out=triad[:, 2])  # e3 = p/|p|, in place
    u3 = u[:, 2]
    # u_a u_b for a, b < 2; its diagonal holds u1^2 and u2^2.
    uu = u[:, :2, None] * u[:, None, :2]
    rho2 = uu[:, 0, 0] + uu[:, 1, 1]
    q = _ONE + u3
    below = u3 < _ZERO
    if np.count_nonzero(below):
        np.divide(rho2, _ONE - u3, out=q, where=below)
    axis_hit = np.count_nonzero(rho2) < len(rho2)
    if axis_hit:
        on_axis = rho2 == 0.0
        q[on_axis] = 1.0  # no 0/0 here: the axis rows are set below
    np.subtract(_EYE2, uu / q[:, None, None], out=triad[:, :2, :2])
    np.negative(u[:, :2], out=triad[:, :2, 2])
    if axis_hit:
        # Axis value by the documented limit convention.
        triad[on_axis] = _AXIS_TRIADS[(u3[on_axis] > 0.0).astype(int)]
    return triad


def _row(lam: int) -> int:
    """The frame row of helicity lam: frames order their rows lam = -1, 0, +1."""
    try:
        return _ROWS[lam]
    except (KeyError, TypeError):
        raise ValueError(f"helicity must be -1, 0 or +1, got {lam}") from None


def polarization_triad(k) -> np.ndarray:
    """All three polarization vectors from one triad, rows ordered
    lam = -1, 0, +1: shape (..., 3, 3) for k of shape (..., 3)."""
    k = np.asarray(k, dtype=float)
    points = _stack(k)
    return _polarization_triad(points, _norm(points)).reshape(k.shape + (3,))


def _polarization_triad(k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The polarization triads of the points k, shape (M, 3), given r = |k|:
    (M, 3, 3), complex."""
    triad = _rotated_triad(k, r)
    eps = np.empty(triad.shape, dtype=complex)
    # Rows lam = -1 and +1: -lam (e1 + i lam e2)/sqrt(2), both at once.
    np.divide(_MINUS_LAM * (triad[:, :1] + _I_LAM * triad[:, 1:2]), _SQRT2, out=eps[:, ::2])
    eps[:, 1] = triad[:, 2]
    return eps


def spinor_frame(k, branch: str) -> np.ndarray:
    """All three f spinors (branch "f") or g spinors (branch "g") from one
    triad, rows ordered lam = -1, 0, +1: shape (..., 3, 6).  Row lam is
    (eps, lam eps)/sqrt(1 + lam^2) for f and (lam eps, eps)/sqrt(1 + lam^2)
    for g, eps = eps(k, lam)."""
    if branch not in ("f", "g"):
        raise ValueError(f"branch must be 'f' or 'g', got {branch!r}")
    k = np.asarray(k, dtype=float)
    points = _stack(k)
    return _spinor_frame(points, _norm(points), branch).reshape(k.shape[:-1] + (3, 6))


def _spinor_frame(k: np.ndarray, r: np.ndarray, branch: str) -> np.ndarray:
    """The spinor frames of the points k, shape (M, 3), given r = |k|:
    (M, 3, 6)."""
    eps = _polarization_triad(k, r)
    scaled = _HELICITY_COLUMN * eps
    halves = (eps, scaled) if branch == "f" else (scaled, eps)
    return np.concatenate(halves, axis=-1) / _SPINOR_NORMS


def _evaluate(phi, k: np.ndarray) -> np.ndarray:
    """phi on every point of k: one call of the rule on the whole (..., 3)
    array, whose result must have shape (..., n).  The dtype is the rule's.
    Rules must index the last axis (``k[..., j]``).  The rule is called on
    k[None] and the leading axis of length 1 is stripped again, so that a
    one-point rule's ``k[j]`` fails for j >= 1 with IndexError, or picks the
    whole array and fails the shape check, even where k holds exactly 3
    points and its rows would pass for components."""
    values = np.asarray(phi(k[None]))
    if values.shape[:-1] != (1,) + k.shape[:-1]:
        raise PhotonGuideError(f"a wavefunction maps k of shape (..., 3) to (..., n): k has shape {k.shape}, "
                               f"phi(k[None]) has shape {values.shape}")
    return values[0]


def scalar_product(phi1, phi2, points) -> complex:
    """Momentum-space scalar product sum_k (1/omega) phi1(k)^dag phi2(k).

    ``points`` is any iterable of nonzero k vectors (a discrete lattice);
    each wavefunction maps k of shape (..., 3) to (..., n) and is called
    once, on all points stacked.  Conjugate-symmetric and positive definite
    on nonzero wavefunctions.
    """
    k = np.asarray(list(points), dtype=float).reshape(-1, 3)
    w = omega(k)
    if not w.all():
        raise PhotonGuideError("scalar-product lattice must exclude k = 0")
    v1, v2 = _evaluate(phi1, k), _evaluate(phi2, k)
    if v1.shape[-1] != v2.shape[-1]:
        raise PhotonGuideError(f"cannot pair {v1.shape[-1]}- and {v2.shape[-1]}-component wavefunctions")
    return complex(np.sum(_dot(v1.conj(), v2) / w))
