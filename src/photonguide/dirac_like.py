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

from .momentum_basis import _dot, spinor_frame


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


def first_order_residual(energy, k) -> np.ndarray:
    """||(beta0 energy - beta.k) f(k, lam)||, rows ordered lam = -1, 0, +1:
    shape (..., 3) for energy of shape (...) and k of shape (..., 3).

    On the free shell, energy = omega = |k|, rows lam = +-1 vanish and row
    lam = 0 is exactly omega (the longitudinal spinor does not solve the free
    wave equation).  Inside a guide (energy, k) is the full null momentum
    k_L + m eta of the orthogonal decomposition (``decompose(...).k_mu``), so
    the guided check reduces to the free one; any off-shell perturbation of
    the apparent mass shows up linearly.  Each entry of beta^mu k_mu f is
    the sum of its six products in index order, as ``momentum_basis._dot``
    forms it, so the rows do not depend on the BLAS kernel.
    """
    k = np.asarray(k, dtype=float)
    applied = _dot(contracted(energy, k)[..., None, :, :], spinor_frame(k, "f")[..., :, None, :])
    return np.linalg.norm(applied, axis=-1)
