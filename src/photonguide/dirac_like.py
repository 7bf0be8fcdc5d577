"""Spin-1 generators, the 6x6 first-order wave-equation matrices, and the
algebraic checks they support on plane-wave states.

The free transverse photon spinors f(k, +-1) are annihilated by
beta^mu k_mu = beta0 omega - beta.k on shell (omega = |k|); the longitudinal
spinor is not, and leaves a residual of exactly omega -- a documented
negative case, not a bug.  Inside a waveguide the same relation holds for
the reconstructed null momentum k = k_L + m eta, and contracting the
decomposition with itself yields the massive dispersion relation (see
``waveguide_kinematics.klein_gordon_residual``).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMode
from .momentum_basis import _dot, _scalar_or_array, omega, spinor_f


def spin_one_matrices() -> np.ndarray:
    """tau[l] with entries (tau_l)_{mn} = -i eps_{lmn}, eps_{123} = 1.

    Hermitian, and satisfy [tau_i, tau_j] = i eps_{ijk} tau_k.
    """
    eps = np.zeros((3, 3, 3))
    for a, b, c, sign in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                          (2, 1, 0, -1), (1, 0, 2, -1), (0, 2, 1, -1)]:
        eps[a, b, c] = sign
    return -1j * eps


# beta0 = diag(I3, -I3) and beta_l the anti-block matrix of tau_l.
_Z3 = np.zeros((3, 3))
BETA0 = np.block([[np.eye(3), _Z3], [_Z3, -np.eye(3)]]).astype(complex)
BETAS = np.array([np.block([[_Z3, tau], [-tau, _Z3]]) for tau in spin_one_matrices()])
BETA0.setflags(write=False)
BETAS.setflags(write=False)


def contracted(w, k) -> np.ndarray:
    """beta^mu k_mu = beta0 w - beta.k: a 6x6 matrix per point, shape
    (..., 6, 6) for w of shape (...) and k of shape (..., 3)."""
    k = np.asarray(k, dtype=float)
    return BETA0 * np.asarray(w)[..., None, None] - np.tensordot(k, BETAS, axes=1)


def on_shell_residual(k, lam: int):
    """||(beta0 omega - beta.k) f(k, lam)|| at omega = |k|.

    Zero for lam = +-1; exactly omega for lam = 0 (the longitudinal spinor
    does not solve the free wave equation).  A float for k of shape (3,), an
    array of shape (...) for (..., 3).
    """
    k = np.asarray(k, dtype=float)
    w = omega(k)
    applied = (contracted(w, k) @ spinor_f(k, lam)[..., None])[..., 0]
    residual = np.linalg.norm(applied, axis=-1)
    return _scalar_or_array(residual)


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (..., n) array, rounded as that
    call rounds one row: the real and imaginary parts as two dot products."""
    return np.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag))


def waveguide_dirac_residual(energy, k, lam: int):
    """Residual ||beta^mu k_mu f(k, lam)|| of the guided first-order equation.

    (energy, k) is the full null momentum k_L + m eta of the orthogonal
    decomposition (``decompose(...).k_mu``), so the check reduces to the free
    on-shell one and vanishes for lam = +-1; any off-shell perturbation of
    the apparent mass shows up linearly.  A float for energy of shape () and
    k of shape (3,), an array of shape (...) for (...) and (..., 3); each
    row's norm is rounded as np.linalg.norm rounds one vector.
    """
    if lam not in (-1, +1):
        raise InvalidMode(f"guided plane waves exist for lam = +-1, got {lam}")
    k = np.asarray(k, dtype=float)
    residual = _norms((contracted(energy, k) @ spinor_f(k, lam)[..., None])[..., 0])
    return _scalar_or_array(residual)
