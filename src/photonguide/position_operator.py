"""First-quantized photon position operators as numerical differential operators.

The operator acting on a momentum-space wavefunction phi is

    (x_j phi)(k) = i (d/dk_j - k_j / (2 omega^2)) phi(k)
                   - i sum_lam (d/dk_j u(k, lam)) u(k, lam)^dag phi(k)

where u runs over an orthonormal frame: the polarization vectors for the
3-component variant, the f spinors for the positive-frequency 6-component
variant, and the reflected g spinors g(-k, lam) for the negative-frequency
one.  The "naive" variant is i d/dk_j alone.  All derivatives are central
differences; nothing here relies on a closed form for the frame gradient.

The -k/(2 omega^2) term compensates the k-gradient of the sqrt(omega)
normalization carried by the localized wavefunctions; dropping it (see the
``include_weight_term`` flag) breaks the eigenvalue property by a residual of
order |k|/(2 omega^2), which the verification suite uses as a negative
control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import momentum_basis as mb
from .errors import ComponentMismatch, InvalidScheme, StencilCrossesSingularity


@dataclass(frozen=True)
class Scheme:
    """Central-difference scheme: step h > 0, accuracy order 2 or 4."""

    h: float = 1e-4
    order: int = 2

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise InvalidScheme(f"step must be positive and finite, got {self.h}")
        if self.order not in (2, 4):
            raise InvalidScheme(f"order must be 2 or 4, got {self.order}")


class PositionKind(Enum):
    NAIVE = "naive"
    VECTOR = "vector"
    SPINOR_PLUS = "spinor_plus"
    SPINOR_MINUS = "spinor_minus"

# Stencil offsets in units of h, stacked as blocks of the three axes: +1, -1
# for order 2 and +2, +1, -1, -2 for order 4.
_OFFSETS = {
    2: np.concatenate([c * np.eye(3) for c in (1.0, -1.0)]),
    4: np.concatenate([c * np.eye(3) for c in (2.0, 1.0, -1.0, -2.0)]),
}


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def singular_distance(k):
    """Distance from k to the singular set: the origin plus the seam half-axis
    {(0, 0, t) : t < 0} where the phase convention is discontinuous.

    A float for k of shape (3,), an array of shape (...) for (..., 3)."""
    k = np.asarray(k, dtype=float)
    rho = np.hypot(k[..., 0], k[..., 1])
    return _scalar_or_array(np.where(k[..., 2] <= 0.0, rho, mb.omega(k)))


def _difference(values: np.ndarray, scheme: Scheme) -> np.ndarray:
    """Central difference quotients from values at the stencil points.

    ``values`` has shape (..., S, n); the result (..., 3, n) holds d/dk_j in
    row j.  Each quotient is the scalar formula applied elementwise."""
    h = scheme.h
    if scheme.order == 2:
        return (values[..., 0:3, :] - values[..., 3:6, :]) / (2.0 * h)
    return (
        -values[..., 0:3, :]
        + 8.0 * values[..., 3:6, :]
        - 8.0 * values[..., 6:9, :]
        + values[..., 9:12, :]
    ) / (12.0 * h)


def _values(phi, points: np.ndarray) -> np.ndarray:
    """phi on every point of a (..., 3) array.  A batched rule takes the whole
    array; any other rule, a bare callable or a :class:`MomentumWavefunction`
    around one, is evaluated one point of shape (3,) at a time."""
    if isinstance(phi, mb.BatchedWavefunction):
        return phi(points)
    fn = phi.fn if isinstance(phi, mb.MomentumWavefunction) else phi
    rows = [np.asarray(fn(q)) for q in points.reshape(-1, 3)]
    return np.array(rows).reshape(points.shape[:-1] + rows[0].shape)


def grad_k(fn: Callable[[np.ndarray], np.ndarray], k, scheme: Scheme) -> np.ndarray:
    """Central-difference gradient of a vector-valued function of k.

    Returns an array of shape (..., 3, n) for k of shape (..., 3): row j is
    d(fn)/dk_j.  Exact on linear functions; error O(h^2) or O(h^4) depending
    on the scheme order.  The stencil is guarded against the k = 0 / -k3
    seam region.
    """
    stencil = _points(PositionKind.VECTOR, np.asarray(k, dtype=float), scheme)[..., 1:, :]
    return _difference(_values(fn, stencil), scheme)


def frame(kind: PositionKind, k) -> np.ndarray | None:
    """The orthonormal frame whose connection enters the given variant, rows
    ordered lam = -1, 0, +1: shape (..., 3, n), or None for the naive one."""
    if kind is PositionKind.VECTOR:
        return mb.polarization_triad(k)
    if kind is PositionKind.SPINOR_PLUS:
        return mb.spinor_frame(k, "f")
    if kind is PositionKind.SPINOR_MINUS:
        return mb.spinor_frame(-k, "g")
    return None


def _family(kind: PositionKind) -> PositionKind:
    """The variant whose frame rows make kind's localized family: its own,
    except that the naive variant, which has no frame, borrows the vector one."""
    return PositionKind.VECTOR if kind is PositionKind.NAIVE else kind


def _localized_values(u: np.ndarray, lam: int, x0: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sqrt(omega) u(k, lam) exp(-i x0.k), from the frame values u on k."""
    return np.sqrt(mb.omega(k))[..., None] * u[..., mb._row(lam), :] * np.exp(-1j * mb._dot(k, x0))[..., None]


def localized(kind: PositionKind, x0, lam: int) -> mb.BatchedWavefunction:
    """The localized family sqrt(omega) u(k, lam) exp(-i x0.k) on which the
    variant is diagonal, u the row lam of its frame; the naive variant gets
    the vector family.  It maps k of shape (..., 3) to (..., n), n the
    frame's width."""
    x0 = np.asarray(x0, dtype=float)
    family = _family(kind)

    def fn(k):
        return _localized_values(frame(family, k), lam, x0, k)

    return mb.BatchedWavefunction(fn, frame(family, np.array([0.0, 0.0, 1.0])).shape[-1])


def apply_position(
    kind: PositionKind,
    phi,
    k,
    scheme: Scheme,
    include_weight_term: bool = True,
) -> np.ndarray:
    """Apply the position operator variant to phi at k.

    phi may be a :class:`MomentumWavefunction` or a bare callable.  For k of
    shape (..., 3) the result has shape (..., 3, n): row j is the j-th
    position component acting on phi, evaluated at k.  phi and the frame are
    each evaluated once, on k and its stencil points stacked together.
    """
    k = np.asarray(k, dtype=float)
    points = _points(kind, k, scheme)
    return _apply(kind, _values(phi, points), frame(kind, points), k, scheme, include_weight_term)[0]


def _points(kind: PositionKind, k: np.ndarray, scheme: Scheme) -> np.ndarray:
    """k and its stencil points, shape (..., 1 + S, 3), S = 6 or 12.  Points
    closer than 10 h to the seam of kind's frame are rejected outright: a
    seam inside the stencil corrupts the difference quotients invisibly.
    The mirrored frame g(-k) has its seam on the +k3 half-axis."""
    reach = scheme.h if scheme.order == 2 else 2.0 * scheme.h
    near = np.asarray(singular_distance(-k if kind is PositionKind.SPINOR_MINUS else k) < 10.0 * scheme.h + reach)
    if near.any():
        bad = k.reshape(-1, 3)[near.ravel()][0]
        raise StencilCrossesSingularity(f"stencil at k={bad} with h={scheme.h} reaches the k=0/seam region")
    return np.concatenate([k[..., None, :], k[..., None, :] + scheme.h * _OFFSETS[scheme.order]], axis=-2)


def _apply(kind: PositionKind, values, u: np.ndarray | None, k: np.ndarray, scheme: Scheme,
           include_weight_term: bool):
    """(x phi)(k) and phi(k) itself, from the values of phi and of the
    variant's frame ``u`` (None for the naive variant) on k and its stencil
    points, from :func:`_points`.  ``values`` may carry leading batch axes
    beyond those of k: several wavefunctions on the same points share one
    frame evaluation."""
    values = np.asarray(values, dtype=complex)
    value = values[..., 0, :]
    if u is not None and value.shape[-1:] != u.shape[-1:]:
        raise ComponentMismatch(
            f"{kind.value} variant acts on {u.shape[-1]}-component wavefunctions, got shape {value.shape}"
        )

    result = 1j * _difference(values[..., 1:, :], scheme)
    if kind is not PositionKind.NAIVE and include_weight_term:
        w = mb.omega(k)[..., None]
        result -= 1j * ((k / (2.0 * w * w))[..., :, None] * value[..., None, :])
    if u is not None:
        nlam, n = u.shape[-2:]
        stencil = u[..., 1:, :, :].reshape(u.shape[:-3] + (-1, nlam * n))
        du = _difference(stencil, scheme).reshape(u.shape[:-3] + (3, nlam, n))
        # overlap_lam = u(k, lam)^dag phi(k), one dot product per point.
        overlap = (u[..., 0, :, None, :].conj() @ value[..., None, :, None])[..., 0, 0]
        for lam in range(nlam):
            result -= 1j * du[..., :, lam, :] * overlap[..., lam, None, None]
    return result, value


def eigenvalue_residual(
    x0,
    lam: int,
    k_samples,
    scheme: Scheme,
    kind: PositionKind = PositionKind.VECTOR,
    include_weight_term: bool = True,
) -> float:
    """Max relative residual of the eigenvalue relation x phi = x0 phi.

    Uses the variant's :func:`localized` family.  x0 has shape (3,), one
    centre for every sample, or (N, 3), one row per sample of the N
    ``k_samples``.  One frame evaluation on all samples and their stencil
    points gives both the family's values and the connection.
    """
    ks = np.asarray(list(k_samples), dtype=float).reshape(-1, 3)
    if len(ks) == 0:
        return 0.0
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), ks.shape)
    points = _points(kind, ks, scheme)
    family = _family(kind)
    u = frame(family, points)
    values = _localized_values(u, lam, x0[:, None, :], points)
    applied, value = _apply(kind, values, u if family is kind else None, ks, scheme, include_weight_term)
    residual = np.linalg.norm(applied - x0[:, :, None] * value[:, None, :], axis=(-2, -1))
    return float(np.max(residual / np.linalg.norm(value, axis=-1)))


def commutator_residual(kind: PositionKind, phi, k, scheme: Scheme) -> np.ndarray:
    """||(x_i x_j - x_j x_i) phi(k)|| / ||phi(k)|| by nested stencils, for
    the pairs (i, j) = (0, 1), (0, 2), (1, 2) along a last axis of 3.

    Shape (3,) for k of shape (3,), (..., 3) for (..., 3).  For the spinor
    variants the flatness of the connection holds on the span of the
    corresponding frame, so phi should be drawn from that span (the
    localized families qualify).
    """
    k = np.asarray(k, dtype=float)
    # x phi once, all three rows, on k and its stencil points; then the outer
    # operator once on the three rows, stacked.  The frame is evaluated once,
    # on the nested points; the outer operator reads it on k and its stencil
    # points, the centre of each inner stencil.
    points = _points(kind, k, scheme)
    inner_points = _points(kind, points, scheme)
    u = frame(kind, inner_points)
    inner, on_points = _apply(kind, _values(phi, inner_points), u, points, scheme, True)
    outer = _apply(kind, np.moveaxis(inner, -2, 0), None if u is None else u[..., 0, :, :], k, scheme, True)[0]
    nested = np.moveaxis(outer, 0, -3)  # nested[..., j, i, :] = x_i x_j phi(k)
    first, second = (0, 0, 1), (1, 2, 2)
    commutator = nested[..., second, first, :] - nested[..., first, second, :]
    return np.linalg.norm(commutator, axis=-1) / np.linalg.norm(on_points[..., 0, :], axis=-1)[..., None]


def connection_identity_residual(
    k,
    lam: int,
    scheme: Scheme,
    helicities: Sequence[int] = mb.HELICITIES,
):
    """Residual of grad eps(k,lam) = sum_l' eps(l') [eps(l')^dag grad eps(k,lam)].

    The right side is the completeness projector applied to the gradient, so
    with the full helicity sum it reproduces the left exactly and the
    residual is at rounding level.  Restricting ``helicities`` (e.g. dropping
    the longitudinal sector) removes the corresponding projection of the
    gradient and the residual becomes order one: the check detects a
    truncated frame.  A float for k of shape (3,), an array of shape (...)
    for (..., 3).
    """
    k = np.asarray(k, dtype=float)
    # One triad on k and its stencil points gives both eps and its gradient.
    on_points = mb.polarization_triad(_points(PositionKind.VECTOR, k, scheme))
    lhs = _difference(on_points[..., 1:, mb._row(lam), :], scheme)
    eps = on_points[..., 0, [mb._row(lp) for lp in helicities], :]
    # coeff[l', j] = eps(l')^dag d/dk_j eps(k, lam)
    coeff = eps.conj() @ lhs.swapaxes(-1, -2)
    rhs = coeff.swapaxes(-1, -2) @ eps
    return _scalar_or_array(np.max(np.linalg.norm(lhs - rhs, axis=-1), axis=-1))
