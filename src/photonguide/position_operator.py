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
    """Central-difference scheme: step h > 0, accuracy order 2 or 4.  It forms
    its stencil steps, guard radius and quotient denominator once, as arrays."""

    h: float
    order: int = 2

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise InvalidScheme(f"step must be positive and finite, got {self.h}")
        if self.order not in (2, 4):
            raise InvalidScheme(f"order must be 2 or 4, got {self.order}")
        reach = self.h if self.order == 2 else 2.0 * self.h
        object.__setattr__(self, "_steps", self.h * _OFFSETS[self.order])
        object.__setattr__(self, "_guard", np.array(10.0 * self.h + reach))
        object.__setattr__(self, "_denominator", np.array((2.0 if self.order == 2 else 12.0) * self.h, dtype=complex))


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

# The kinds as module names, read faster than the enum's attributes, and 0-d
# constants, which a ufunc takes faster than Python numbers, with the same bits.
_NAIVE, _VECTOR, _SPINOR_PLUS, _SPINOR_MINUS = PositionKind
_ZERO, _TWO, _I, _MINUS_I = np.array(0.0), np.array(2.0), np.array(1j), np.array(-1j)


def singular_distance(k):
    """Distance from k to the singular set: the origin plus the seam half-axis
    {(0, 0, t) : t < 0} where the phase convention is discontinuous.

    A float for k of shape (3,), an array of shape (...) for (..., 3)."""
    k = np.asarray(k, dtype=float)
    distance = _seam_distance(k, mb._norm(k))
    return float(distance) if distance.ndim == 0 else distance


def _seam_distance(k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`singular_distance` of the float array k, given r = |k|."""
    return np.hypot(k[..., 0], k[..., 1], out=np.array(r), where=k[..., 2] <= _ZERO)


def _difference(values: np.ndarray, scheme: Scheme) -> np.ndarray:
    """Central difference quotients from complex values on k and its stencil points.

    ``values`` has shape (..., 1 + S, n), in the order of :func:`_points`;
    the result (..., 3, n) holds d/dk_j in row j.  Each quotient is the
    scalar formula applied elementwise."""
    if scheme.order == 2:
        return (values[..., 1:4, :] - values[..., 4:7, :]) / scheme._denominator
    return (
        -values[..., 1:4, :]
        + 8.0 * values[..., 4:7, :]
        - 8.0 * values[..., 7:10, :]
        + values[..., 10:13, :]
    ) / scheme._denominator


def _frame(kind: PositionKind, k: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """The orthonormal frame whose connection enters the given variant, rows
    ordered lam = -1, 0, +1: shape (..., 3, n) for the float array k of shape
    (..., 3), or None for the naive one.  w = |k| is also the |-k| of the
    reflected frame."""
    if kind is _NAIVE:
        return None
    points, w_points = mb._stack(k), w.reshape(-1)
    if kind is _VECTOR:
        u = mb._polarization_triad(points, w_points)
    elif kind is _SPINOR_PLUS:
        u = mb._spinor_frame(points, w_points, "f")
    else:
        u = mb._spinor_frame(-points, w_points, "g")
    return u.reshape(k.shape[:-1] + u.shape[1:])


def _localized(kind: PositionKind, x0: np.ndarray, lam: int, k: np.ndarray, w: np.ndarray):
    """sqrt(omega) u(k, lam) exp(-i x0.k) on the float array k, given w =
    omega(k), and the variant's frame u on k, None for the naive variant,
    whose family is the vector one: one frame evaluation gives both."""
    u = _frame(_VECTOR if kind is _NAIVE else kind, k, w)
    # x0.k cast to complex as -1j * x0.k would cast it.
    phase = np.exp(_MINUS_I * mb._dot(k, x0).astype(complex))
    values = np.sqrt(w)[..., None] * u[..., mb._row(lam), :] * phase[..., None]
    return values, None if kind is _NAIVE else u


def _centre(x0) -> np.ndarray:
    """x0 as one float centre, shape (3,): any other shape broadcasts against k."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ValueError(f"x0 must be one centre of shape (3,), got {x0.shape}")
    return x0


def localized(kind: PositionKind, x0, lam: int) -> Callable[[np.ndarray], np.ndarray]:
    """The localized family sqrt(omega) u(k, lam) exp(-i x0.k) on which the
    variant is diagonal, u the row lam of its frame; the naive variant gets
    the vector family.  It maps k of shape (..., 3) to (..., n), n the
    frame's width.  x0 is one centre, shape (3,)."""
    x0 = _centre(x0)

    def rule(k):
        k = np.asarray(k, dtype=float)
        return _localized(kind, x0, lam, k, mb._norm(k))[0]

    return rule


def apply_position(
    kind: PositionKind,
    phi,
    k,
    scheme: Scheme,
) -> np.ndarray:
    """Apply the position operator variant to phi at k.

    phi maps k of shape (..., 3) to (..., n).  For k of shape (..., 3) the
    result has shape (..., 3, n): row j is the j-th position component acting
    on phi, evaluated at k.  phi and the frame are each evaluated once, on k
    and its stencil points stacked together.  phi must be deterministic and
    smooth away from k = 0 and the seam; that is the caller's responsibility
    (the :func:`localized` families qualify).
    """
    k = np.asarray(k, dtype=float)
    points, w = _points(kind, k, scheme)
    return _apply(kind, mb._evaluate(phi, points), _frame(kind, points, w), k, scheme, True, w[..., 0])[0]


def _points(kind: PositionKind, k: np.ndarray, scheme: Scheme) -> tuple[np.ndarray, np.ndarray]:
    """k and its stencil points, shape (..., 1 + S, 3), S = 6 or 12, and
    omega on them, shape (..., 1 + S).  Points closer than 10 h to the seam
    of kind's frame are rejected outright: a seam inside the stencil
    corrupts the difference quotients invisibly.  The mirrored frame g(-k)
    has its seam on the +k3 half-axis.  The guard reads |k| alone, so a
    rejected step, however large, forms no stencil point that could overflow."""
    near = _seam_distance(-k if kind is _SPINOR_MINUS else k, mb._norm(k)) < scheme._guard
    if np.count_nonzero(near):
        bad = k.reshape(-1, 3)[near.ravel()][0]
        raise StencilCrossesSingularity(f"stencil at k={bad} with h={scheme.h} reaches the k=0/seam region")
    points = np.concatenate((k[..., None, :], k[..., None, :] + scheme._steps), axis=-2)
    return points, mb._norm(points)


def _apply(kind: PositionKind, values, u: np.ndarray | None, k: np.ndarray, scheme: Scheme,
           include_weight_term: bool, w: np.ndarray):
    """(x phi)(k) and phi(k) itself, from the values of phi and of the
    variant's frame ``u`` (None for the naive variant) on k and its stencil
    points, from :func:`_points`, and w = omega(k).  ``values`` may carry
    leading batch axes beyond those of k: several wavefunctions on the same
    points share one frame evaluation."""
    values = np.asarray(values, dtype=complex)
    value = values[..., 0, :]
    result = _I * _difference(values, scheme)
    if u is None:
        return result, value
    if value.shape[-1:] != u.shape[-1:]:
        raise ComponentMismatch(
            f"{kind.value} variant acts on {u.shape[-1]}-component wavefunctions, got shape {value.shape}"
        )
    if include_weight_term:
        w = w[..., None]
        result -= _I * ((k / (_TWO * w * w))[..., :, None] * value[..., None, :])
    nlam, n = u.shape[-2:]
    du = _difference(u.reshape(u.shape[:-3] + (-1, nlam * n)), scheme).reshape(u.shape[:-3] + (3, nlam, n))
    # overlap_lam = u(k, lam)^dag phi(k); the connection terms of all
    # helicities in one product, summed over the helicity axis in row order.
    overlap = mb._dot(u[..., 0, :, :].conj(), value[..., None, :])
    result -= np.add.reduce(_I * du * overlap[..., None, :, None], axis=-2)
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
    ks = np.asarray(k_samples, dtype=float).reshape(-1, 3)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,) and x0.shape != ks.shape:
        raise ValueError(f"x0 must have shape (3,) or one row per sample, {ks.shape}, got {x0.shape}")
    if len(ks) == 0:
        return 0.0
    points, w = _points(kind, ks, scheme)
    values, u = _localized(kind, x0[..., None, :], lam, points, w)
    applied, value = _apply(kind, values, u, ks, scheme, include_weight_term, w[:, 0])
    # The Frobenius and row norms and the max by the ufunc reductions that
    # np.linalg.norm and np.max run, without their wrappers' per-call cost.
    diff = applied - x0[..., :, None] * value[:, None, :]
    residual = np.sqrt(np.add.reduce((diff.conj() * diff).real, axis=(-2, -1)))
    norm = np.sqrt(np.add.reduce((value.conj() * value).real, axis=-1))
    return float(np.maximum.reduce(residual / norm))


def commutator_residual(x0, lam: int, k, scheme: Scheme, kind: PositionKind) -> np.ndarray:
    """||(x_i x_j - x_j x_i) phi(k)|| / ||phi(k)|| by nested stencils, phi
    the variant's :func:`localized` family with one centre x0, shape (3,),
    and helicity lam, for the pairs (i, j) = (0, 1), (0, 2), (1, 2) along a
    last axis of 3: shape (3,) for k of shape (3,), (..., 3) for (..., 3)."""
    x0 = _centre(x0)
    k = np.asarray(k, dtype=float)
    # x phi once, all three rows, on k and its stencil points; then the outer
    # operator once on the three rows, stacked.  phi and the frame come from
    # one evaluation on the nested points; the outer operator reads the frame
    # on k and its stencil points, the centre of each inner stencil.
    points = _points(kind, k, scheme)[0]
    inner_points, w = _points(kind, points, scheme)
    values, u = _localized(kind, x0, lam, inner_points, w)
    inner, on_points = _apply(kind, values, u, points, scheme, True, w[..., 0])
    outer = _apply(kind, np.moveaxis(inner, -2, 0), None if u is None else u[..., 0, :, :], k, scheme, True,
                   w[..., 0, 0])[0]
    nested = np.moveaxis(outer, 0, -3)  # nested[..., j, i, :] = x_i x_j phi(k)
    first, second = (0, 0, 1), (1, 2, 2)
    commutator = nested[..., second, first, :] - nested[..., first, second, :]
    return np.linalg.norm(commutator, axis=-1) / np.linalg.norm(on_points[..., 0, :], axis=-1)[..., None]


def connection_identity_residual(k, scheme: Scheme, helicities: Sequence[int] = mb.HELICITIES) -> np.ndarray:
    """Residual of grad eps(k,lam) = sum_l' eps(l') [eps(l')^dag grad eps(k,lam)]
    for every helicity lam, rows ordered lam = -1, 0, +1: shape (..., 3) for
    k of shape (..., 3).

    The right side is the completeness projector applied to the gradient, so
    with the full helicity sum l' it reproduces the left exactly and the
    residual is at rounding level.  Restricting ``helicities`` (e.g. dropping
    the longitudinal sector) removes the corresponding projection of the
    gradient and the residual becomes order one: the check detects a
    truncated frame.
    """
    k = np.asarray(k, dtype=float)
    # One triad on k and its stencil points gives eps and the gradients of
    # all three rows: lhs[..., lam, j, :] = d/dk_j eps(k, lam).
    on_points = _frame(PositionKind.VECTOR, *_points(PositionKind.VECTOR, k, scheme))
    lhs = _difference(np.moveaxis(on_points, -2, -3), scheme)
    eps = on_points[..., 0, [mb._row(lp) for lp in helicities], :][..., None, None, :, :]
    # coeff[..., lam, j, l'] = eps(l')^dag d/dk_j eps(k, lam)
    coeff = mb._dot(eps.conj(), lhs[..., None, :])
    rhs = mb._dot(coeff[..., None, :], eps.swapaxes(-1, -2))
    return np.max(np.linalg.norm(lhs - rhs, axis=-1), axis=-1)
