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

from .errors import ComponentMismatch, MixedComponentCount, ZeroMomentum

HELICITIES = (-1, 0, +1)

SQRT2 = np.sqrt(2.0)

# Helicities as a column (one expression builds all three frame rows) and the
# spinor norms sqrt(1 + lam^2), complex like the frames they scale.
_HELICITY_COLUMN = np.array(HELICITIES, dtype=complex)[:, None]
_SPINOR_NORMS = np.sqrt(1.0 + np.array(HELICITIES, dtype=float) ** 2)[:, None].astype(complex)

# Axis triads by the limit convention, indexed by (p3 > 0).
_AXIS_TRIADS = np.array([np.diag([-1.0, 1.0, -1.0]), np.eye(3)])

_EYE2 = np.eye(2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.b over the last axis, as one dot product per point (the stacked
    matmul rounds exactly as np.dot on one point, for any batch shape)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


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
    r = _norm(p)
    if not r.all():
        raise ZeroMomentum("polarization triad undefined for p = 0")
    u = p / r[..., None]
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    rho2 = u1 * u1 + u2 * u2
    q = 1.0 + u3
    below = u3 < 0.0
    if below.any():
        q = np.where(below, rho2 / (1.0 - np.minimum(u3, 0.0)), q)
    on_axis = rho2 == 0.0
    axis_hit = on_axis.any()
    if axis_hit:
        q = np.where(on_axis, 1.0, q)  # no 0/0 here: the axis rows are set below
    triad = np.empty(p.shape + (3,))
    triad[..., :2, :2] = _EYE2 - (u[..., :2, None] * u[..., None, :2]) / q[..., None, None]
    triad[..., :2, 2] = -u[..., :2]
    triad[..., 2, :] = u
    if axis_hit:
        # Axis value by the documented limit convention.
        triad[on_axis] = _AXIS_TRIADS[(u3[on_axis] > 0.0).astype(int)]
    return triad


def _transverse(triad: np.ndarray, lam: int) -> np.ndarray:
    return -lam * (triad[..., 0, :] + 1j * lam * triad[..., 1, :]) / SQRT2


def _row(lam: int) -> int:
    """The frame row of helicity lam: frames order their rows lam = -1, 0, +1."""
    if lam not in HELICITIES:
        raise ValueError(f"helicity must be -1, 0 or +1, got {lam}")
    return HELICITIES.index(lam)


def helicity_polarization(k, lam: int) -> np.ndarray:
    """Unit polarization vector eps(k, lam) for lam in {-1, 0, +1}: row lam
    of :func:`polarization_triad`.

    Maps k of shape (..., 3) to (..., 3).  Satisfies eps(k,0) = k/|k| and the
    curl eigenvector identity khat x eps(k, lam) = -i lam eps(k, lam) for
    lam = +-1.
    """
    row = _row(lam)
    return polarization_triad(k)[..., row, :]


def polarization_triad(k) -> np.ndarray:
    """All three polarization vectors from one triad, rows ordered
    lam = -1, 0, +1: shape (..., 3, 3) for k of shape (..., 3)."""
    triad = rotated_triad(k)
    eps = np.empty(triad.shape, dtype=complex)
    eps[..., 0, :] = _transverse(triad, -1)
    eps[..., 1, :] = triad[..., 2, :]
    eps[..., 2, :] = _transverse(triad, +1)
    return eps


def spinor_f(k, lam: int) -> np.ndarray:
    """6-component spinor (eps, lam*eps)/sqrt(1 + lam^2); unit norm: row lam
    of ``spinor_frame(k, "f")``.  Maps k of shape (..., 3) to (..., 6)."""
    row = _row(lam)
    return spinor_frame(k, "f")[..., row, :]


def spinor_g(k, lam: int) -> np.ndarray:
    """6-component spinor (lam*eps, eps)/sqrt(1 + lam^2); unit norm: row lam
    of ``spinor_frame(k, "g")``.  Maps k of shape (..., 3) to (..., 6)."""
    row = _row(lam)
    return spinor_frame(k, "g")[..., row, :]


def spinor_frame(k, branch: str) -> np.ndarray:
    """All three f spinors (branch "f") or g spinors (branch "g") from one
    triad, rows ordered lam = -1, 0, +1: shape (..., 3, 6).  Row lam is
    (eps, lam eps)/sqrt(1 + lam^2) for f and (lam eps, eps)/sqrt(1 + lam^2)
    for g, eps = eps(k, lam)."""
    if branch not in ("f", "g"):
        raise ValueError(f"branch must be 'f' or 'g', got {branch!r}")
    eps = polarization_triad(k)
    scaled = _HELICITY_COLUMN * eps
    halves = [eps, scaled] if branch == "f" else [scaled, eps]
    return np.concatenate(halves, axis=-1) / _SPINOR_NORMS


def _evaluate(phi, k: np.ndarray) -> np.ndarray:
    """phi on every point of k: one call of the rule on the whole (..., 3)
    array, whose result must have shape (..., n).  The dtype is the rule's.
    Rules must index the last axis (``k[..., j]``): with 3 points, a one-point
    rule's ``k[j]`` picks rows yet has the right shape, so no check sees it."""
    values = np.asarray(phi(k))
    if values.shape[:-1] != k.shape[:-1]:
        raise ComponentMismatch(f"a wavefunction maps k of shape (..., 3) to (..., n): k has shape {k.shape}, "
                                f"phi(k) has shape {values.shape}")
    return values


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
        raise ZeroMomentum("scalar-product lattice must exclude k = 0")
    v1, v2 = _evaluate(phi1, k), _evaluate(phi2, k)
    if v1.shape[-1] != v2.shape[-1]:
        raise MixedComponentCount(f"cannot pair {v1.shape[-1]}- and {v2.shape[-1]}-component wavefunctions")
    return complex(np.sum(_dot(v1.conj(), v2) / w))
