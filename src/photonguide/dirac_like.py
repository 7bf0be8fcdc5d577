"""Spin-1 generators, the 6x6 first-order wave-equation matrices, and the
algebraic checks they support on plane-wave states.

The free transverse photon spinors f(k, +-1) are annihilated by
beta^mu k_mu = beta0 omega - beta.k on shell (omega = |k|); the longitudinal
spinor is not, and leaves a residual of exactly omega -- a documented
negative case, not a bug.  Inside a waveguide the same relation holds for
the reconstructed null momentum k = k_L + m eta, and contracting the
decomposition with itself yields the massive dispersion relation.
"""

from __future__ import annotations

import numpy as np

from . import waveguide_kinematics as wk
from .errors import InvalidMode, ZeroMomentum
from .momentum_basis import omega, spinor_f


def spin_one_matrices() -> np.ndarray:
    """tau[l] with entries (tau_l)_{mn} = -i eps_{lmn}, eps_{123} = 1.

    Hermitian, and satisfy [tau_i, tau_j] = i eps_{ijk} tau_k.
    """
    eps = np.zeros((3, 3, 3))
    for a, b, c, sign in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                          (2, 1, 0, -1), (1, 0, 2, -1), (0, 2, 1, -1)]:
        eps[a, b, c] = sign
    return -1j * eps


def beta_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(beta0, beta) with beta0 = diag(I3, -I3) and beta_l anti-block tau_l."""
    tau = spin_one_matrices()
    i3 = np.eye(3)
    z3 = np.zeros((3, 3))
    beta0 = np.block([[i3, z3], [z3, -i3]])
    betas = np.array([np.block([[z3, tau[l]], [-tau[l], z3]]) for l in range(3)])
    return beta0.astype(complex), betas


BETA0, BETAS = beta_matrices()
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
    if not np.all(w):
        raise ZeroMomentum("on-shell residual undefined at k = 0")
    applied = (contracted(w, k) @ spinor_f(k, lam)[..., None])[..., 0]
    residual = np.linalg.norm(applied, axis=-1)
    return float(residual) if residual.ndim == 0 else residual


def waveguide_dirac_residual(md: wk.WaveguideMode, k3: float, lam: int,
                             azimuth: float = 0.0) -> float:
    """Residual of the guided first-order equation beta^mu (k_L + m eta)_mu phi.

    Reconstructs the full null momentum from the orthogonal decomposition and
    reduces to the free on-shell check, so it vanishes for lam = +-1; any
    off-shell perturbation of the apparent mass shows up linearly.
    """
    if lam not in (-1, +1):
        raise InvalidMode(f"guided plane waves exist for lam = +-1, got {lam}")
    dec = wk.decompose(md, k3, azimuth)
    k = dec.k_mu.spatial
    return float(np.linalg.norm(contracted(dec.k_mu.t, k) @ spinor_f(k, lam)))


def klein_gordon_residual(md: wk.WaveguideMode, k3: float,
                          azimuth: float = 0.0) -> tuple[float, float]:
    """(|k_L.k_L - m^2|, |k_L.k_L + k_T.k_T|) for the decomposed momentum.

    Both vanish identically: the first is the mass-shell relation
    E^2 - p^2 = m^2, the second the null chain k_L.k_L + k_T.k_T = k.k = 0.
    """
    dec = wk.decompose(md, k3, azimuth)
    m2 = md.mass ** 2
    kl2 = dec.k_L.norm2()
    kt2 = dec.k_T.norm2()
    return abs(kl2 - m2), abs(kl2 + kt2)


def transversality_residual(md: wk.WaveguideMode, k3: float, azimuth: float = 0.0) -> float:
    """|eta . k_L|: the frozen direction is Minkowski-orthogonal to the
    apparent 4-momentum."""
    dec = wk.decompose(md, k3, azimuth)
    return abs(dec.eta.mdot(dec.k_L))
