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
from .errors import ComponentMismatch, StencilCrossesSingularity


@dataclass(frozen=True)
class Scheme:
    """Central-difference scheme: step h > 0, accuracy order 2 or 4."""

    h: float = 1e-4
    order: int = 2

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"step must be positive and finite, got {self.h}")
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")


class PositionKind(Enum):
    NAIVE = "naive"
    VECTOR = "vector"
    SPINOR_PLUS = "spinor_plus"
    SPINOR_MINUS = "spinor_minus"


_COMPONENTS = {
    PositionKind.NAIVE: None,  # acts on either component count
    PositionKind.VECTOR: 3,
    PositionKind.SPINOR_PLUS: 6,
    PositionKind.SPINOR_MINUS: 6,
}

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


def _check_stencil(k: np.ndarray, scheme: Scheme, mirrored: bool = False) -> None:
    # Points closer than 10 h to the seam are rejected outright: a phase seam
    # inside the stencil corrupts the difference quotients invisibly.  The
    # mirrored frame g(-k) has its seam on the +k3 half-axis instead.
    reach = scheme.h if scheme.order == 2 else 2.0 * scheme.h
    near = np.asarray(singular_distance(-k if mirrored else k) < 10.0 * scheme.h + reach)
    if near.any():
        bad = k.reshape(-1, 3)[near.ravel()][0]
        raise StencilCrossesSingularity(
            f"stencil at k={bad} with h={scheme.h} reaches the k=0/seam region"
        )


def _stencil(k: np.ndarray, scheme: Scheme) -> np.ndarray:
    """The stencil points around each k: shape (..., S, 3), S = 6 or 12."""
    return k[..., None, :] + scheme.h * _OFFSETS[scheme.order]


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


class _Pointwise:
    """Adapter for a rule written for one k of shape (3,): evaluates it at
    every point of a (..., 3) array, one point at a time."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn

    def __call__(self, k: np.ndarray) -> np.ndarray:
        rows = [np.asarray(self.fn(q)) for q in k.reshape(-1, 3)]
        return np.array(rows).reshape(k.shape[:-1] + rows[0].shape)


def _batched(phi):
    """phi as a rule over (..., 3) arrays.  The library's own batched rules
    are recognised by type; any other callable goes through the adapter."""
    if isinstance(phi, (mb.BatchedWavefunction, PositionComponent, _Pointwise)):
        return phi
    return _Pointwise(phi.fn if isinstance(phi, mb.MomentumWavefunction) else phi)


def grad_k(fn: Callable[[np.ndarray], np.ndarray], k, scheme: Scheme) -> np.ndarray:
    """Central-difference gradient of a vector-valued function of k.

    Returns an array of shape (..., 3, n) for k of shape (..., 3): row j is
    d(fn)/dk_j.  Exact on linear functions; error O(h^2) or O(h^4) depending
    on the scheme order.  The stencil is guarded against the k = 0 / -k3
    seam region.
    """
    k = np.asarray(k, dtype=float)
    _check_stencil(k, scheme)
    return _difference(_batched(fn)(_stencil(k, scheme)), scheme)


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
    fn = _batched(phi)
    _check_stencil(k, scheme, mirrored=kind is PositionKind.SPINOR_MINUS)
    points = np.concatenate([k[..., None, :], _stencil(k, scheme)], axis=-2)
    values = np.asarray(fn(points), dtype=complex)
    value = values[..., 0, :]
    expected = _COMPONENTS[kind]
    if expected is not None and value.shape[-1:] != (expected,):
        raise ComponentMismatch(
            f"{kind.value} variant acts on {expected}-component wavefunctions, got shape {value.shape}"
        )

    result = 1j * _difference(values[..., 1:, :], scheme)
    if kind is not PositionKind.NAIVE and include_weight_term:
        w = mb.omega(k)[..., None]
        result -= 1j * ((k / (2.0 * w * w))[..., :, None] * value[..., None, :])
    u = frame(kind, points)
    if u is not None:
        nlam, n = u.shape[-2:]
        stencil = u[..., 1:, :, :].reshape(u.shape[:-3] + (-1, nlam * n))
        du = _difference(stencil, scheme).reshape(result.shape[:-1] + (nlam, n))
        # overlap_lam = u(k, lam)^dag phi(k), one dot product per point.
        overlap = (u[..., 0, :, None, :].conj() @ value[..., None, :, None])[..., 0, 0]
        for lam in range(nlam):
            result -= 1j * du[..., :, lam, :] * overlap[..., lam, None, None]
    return result


def eigenvalue_residual(
    x0,
    lam: int,
    k_samples,
    scheme: Scheme,
    kind: PositionKind = PositionKind.VECTOR,
    include_weight_term: bool = True,
) -> float:
    """Max relative residual of the eigenvalue relation x phi = x0 phi.

    Uses the localized wavefunction family matching the operator variant,
    evaluated on all ``k_samples`` in one stacked call.
    """
    x0 = np.asarray(x0, dtype=float)
    if kind in (PositionKind.VECTOR, PositionKind.NAIVE):
        phi = mb.localized_wavefunction(x0, lam)
    else:
        branch = "plus" if kind is PositionKind.SPINOR_PLUS else "minus"
        phi = mb.localized_spinor_wavefunction(x0, lam, branch)
    ks = np.asarray(list(k_samples), dtype=float).reshape(-1, 3)
    if len(ks) == 0:
        return 0.0
    value = phi(ks)
    applied = apply_position(kind, phi, ks, scheme, include_weight_term)
    residual = np.linalg.norm(applied - x0[:, None] * value[:, None, :], axis=(-2, -1))
    return float(np.max(residual / np.linalg.norm(value, axis=-1)))


@dataclass(frozen=True)
class PositionComponent:
    """The wavefunction k -> (x_component phi)(k) over (..., 3) arrays, for
    nested application."""

    kind: PositionKind
    phi: Callable[[np.ndarray], np.ndarray]
    component: int
    scheme: Scheme

    def __call__(self, k: np.ndarray) -> np.ndarray:
        return apply_position(self.kind, self.phi, k, self.scheme)[..., self.component, :]


def position_component(kind: PositionKind, phi, component: int, scheme: Scheme) -> PositionComponent:
    """The wavefunction k -> (x_component phi)(k), for nested application."""
    return PositionComponent(kind, _batched(phi), component, scheme)


def commutator_residual(kind: PositionKind, i: int, j: int, phi, k, scheme: Scheme):
    """||(x_i x_j - x_j x_i) phi(k)|| / ||phi(k)|| by nested stencils.

    A float for k of shape (3,), an array of shape (...) for (..., 3).  For
    the spinor variants the flatness of the connection holds on the span of
    the corresponding frame, so phi should be drawn from that span (the
    localized families qualify).
    """
    k = np.asarray(k, dtype=float)
    if i == j:
        return _scalar_or_array(np.zeros(k.shape[:-1]))
    fn = _batched(phi)
    xi_xj = apply_position(kind, position_component(kind, fn, j, scheme), k, scheme)[..., i, :]
    xj_xi = apply_position(kind, position_component(kind, fn, i, scheme), k, scheme)[..., j, :]
    value = np.asarray(fn(k), dtype=complex)
    return _scalar_or_array(np.linalg.norm(xi_xj - xj_xi, axis=-1) / np.linalg.norm(value, axis=-1))


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
    lhs = grad_k(mb.BatchedWavefunction(lambda q: mb.helicity_polarization(q, lam), 3), k, scheme)
    eps = mb.polarization_triad(k)[..., [mb.HELICITIES.index(lp) for lp in helicities], :]
    # coeff[l', j] = eps(l')^dag d/dk_j eps(k, lam)
    coeff = eps.conj() @ lhs.swapaxes(-1, -2)
    rhs = coeff.swapaxes(-1, -2) @ eps
    return _scalar_or_array(np.max(np.linalg.norm(lhs - rhs, axis=-1), axis=-1))
