"""Tests for the spin-1 matrices and the first-order wave-equation checks."""

import mpmath
import numpy as np
import pytest

from photonguide import dirac_like as dl
from photonguide import momentum_basis as mb
from photonguide import waveguide_kinematics as wk
from photonguide.errors import PhotonGuideError
from test_momentum_basis import index_sum

RNG = np.random.default_rng(20240820)


class TestMatrices:
    def test_entries(self):
        tau = dl.spin_one_matrices()
        assert tau[0][1, 2] == -1j
        assert tau[0][2, 1] == +1j
        assert tau[2][0, 1] == -1j
        allowed = {0, 1, -1, 1j, -1j}
        tau_mats = dl.spin_one_matrices()
        beta0, betas = dl.BETA0, dl.BETAS
        for m in [*tau_mats, beta0, *betas]:
            assert set(np.round(m.ravel(), 12)).issubset(allowed)

    def test_hermiticity_structure(self):
        tau = dl.spin_one_matrices()
        beta0, betas = dl.BETA0, dl.BETAS
        for m in [*tau, beta0]:
            assert np.array_equal(m, m.conj().T)
        for b in betas:
            # The anti-block matrices are anti-Hermitian; beta0 beta_l is
            # Hermitian, which is what the wave operator needs.
            assert np.array_equal(b.conj().T, -b)
            assert np.array_equal((beta0 @ b).conj().T, beta0 @ b)

    def test_angular_momentum_algebra(self):
        tau = dl.spin_one_matrices()
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            comm = tau[i] @ tau[j] - tau[j] @ tau[i]
            assert np.array_equal(comm, 1j * tau[k])

    def test_beta0_squares_to_identity(self):
        beta0, betas = dl.BETA0, dl.BETAS
        assert np.array_equal(beta0 @ beta0, np.eye(6))
        for b in betas:
            # beta_l^2 = -P (+) -P with P the projector orthogonal to axis l,
            # hence beta_l^3 = -beta_l.
            assert np.array_equal(b @ b @ b, -b)

    def test_tau_k_action_is_cross_product(self):
        tau = dl.spin_one_matrices()
        for _ in range(20):
            k = RNG.standard_normal(3)
            v = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            lhs = np.tensordot(k, tau, axes=1) @ v
            assert np.allclose(lhs, 1j * np.cross(k, v), atol=1e-14)


def on_shell(k):
    """The first-order residual on the free shell, energy = omega = |k|."""
    return dl.first_order_residual(mb.omega(k), k)


class TestFreeOnShell:
    def test_axis_and_generic_momenta(self):
        assert on_shell([0.0, 0.0, 1.0])[2] <= 1e-12
        assert on_shell([0.3, 0.4, 1.2])[0] <= 1e-12

    def test_random_sweep(self):
        for _ in range(300):
            k = RNG.uniform(-4, 4, 3)
            if np.linalg.norm(k) < 1e-3:
                continue
            residual = on_shell(k)
            for lam in (-1, +1):
                assert residual[mb._row(lam)] <= 1e-12

    def test_longitudinal_residual_is_omega(self):
        # Documented negative case: the lam = 0 spinor is not a solution.
        k = np.array([0.6, 0.0, 0.8])  # omega = 1
        assert abs(on_shell(k)[1] - 1.0) <= 1e-14
        k2 = np.array([3.0, 0.0, 4.0])  # omega = 5
        assert abs(on_shell(k2)[1] - 5.0) <= 1e-13

    def test_zero_momentum_rejected(self):
        with pytest.raises(PhotonGuideError, match=r"^polarization triad undefined for p = 0$"):
            dl.first_order_residual(0.0, [0.0, 0.0, 0.0])


def f_rows(k):
    """f(k, lam) for lam = -1, 0, +1, each a row of the f spinor frame."""
    frame = mb.spinor_frame(k, "f")
    return [frame[..., mb._row(lam), :] for lam in mb.HELICITIES]


def sample_points(rng, n):
    """n seeded points off the origin: random ones plus both k3 half-axes."""
    return np.concatenate([[[0.0, 0.0, 1.3], [0.0, 0.0, -0.7]], rng.uniform(-4, 4, (n - 2, 3))])


def applied_norm(contracted, f):
    """Reference: ||contracted f|| for one f spinor per point, each entry of
    the product summed in index order."""
    return np.linalg.norm(index_sum(contracted, f[..., None, :]), axis=-1)


class TestHelicityAxis:
    """Each row of the helicity axis is bitwise the per-helicity formula it
    replaces: one 6x6 contraction applied to one f spinor, then its norm."""

    @pytest.mark.parametrize("shell", ["free", "off"])
    def test_rows(self, shell):
        # The free shell, energy = |k|, and energies off it by up to 1 %.
        rng = np.random.default_rng(61)
        ks = sample_points(rng, 300)
        energies = mb.omega(ks) * (1.0 if shell == "free" else rng.uniform(0.99, 1.01, 300))
        got = dl.first_order_residual(energies, ks)
        assert got.shape == (300, 3)
        for row, f in enumerate(f_rows(ks)):
            expected = [applied_norm(a, b) for a, b in zip(dl.contracted(energies, ks), f)]
            assert got[:, row].tobytes() == np.array(expected).tobytes()
        for energy, k in zip(energies[:20], ks[:20]):
            one = dl.first_order_residual(energy, k)
            assert one.shape == (3,)
            for row, f in enumerate(f_rows(k)):
                assert one[row] == applied_norm(dl.contracted(energy, k), f)


@pytest.fixture(scope="module")
def unit_mass_mode():
    # b1 = pi, b2 = pi/2, lowest mode: cutoff = apparent mass = 1 exactly.
    return wk.mode(wk.WaveguideSpec(np.pi, np.pi / 2), 1, 0)


class TestGuided:
    def test_on_shell_in_guide(self, unit_mass_mode):
        for k3 in (0.0, 1.0, np.sqrt(3.0), 7.5):
            dec = wk.decompose(unit_mass_mode, k3, 0.3)
            residual = dl.first_order_residual(dec.k_mu.t, np.array(dec.k_mu[1:]))
            assert residual.shape == (3,)
            for lam in (-1, +1):
                assert residual[mb._row(lam)] <= 1e-12, (k3, lam, residual)

    def test_off_shell_detected(self, unit_mass_mode):
        # Perturbing the apparent mass by a relative 1e-3 must leave a
        # residual well above rounding: the check has teeth.
        dec = wk.decompose(unit_mass_mode, np.sqrt(3.0), 0.3)
        k = np.array(dec.k_mu[1:])
        wrong = dec.k_mu.t * (1.0 + 1e-3)
        res = float(np.linalg.norm(dl.contracted(wrong, k) @ mb.spinor_frame(k, "f")[mb._row(+1)]))
        assert res > 1e-4

    def test_klein_gordon_identities(self, unit_mass_mode):
        for k3 in (0.0, 0.5, 2.5):
            shell, null = wk.klein_gordon_residual(unit_mass_mode, k3, azimuth=1.1)
            assert shell <= 1e-12
            assert null <= 1e-12

    def test_klein_gordon_against_mpmath_oracle(self):
        # b1 = 2, b2 = 1, mode (1, 1): m = pi sqrt(5) / 2, frozen from a
        # 50-digit evaluation.
        m_oracle = float(mpmath.mpf(mpmath.pi * mpmath.sqrt(5) / 2))
        assert m_oracle == 3.5124073655203634
        md = wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 1)
        assert abs(md.mass - m_oracle) <= 1e-15 * m_oracle
        k3 = 2.5
        energy_oracle = float(mpmath.sqrt(mpmath.mpf(k3) ** 2 + (mpmath.pi * mpmath.sqrt(5) / 2) ** 2))
        dec = wk.decompose(md, k3)
        assert abs(dec.k_L.t - energy_oracle) <= 1e-14 * energy_oracle
        shell, null = wk.klein_gordon_residual(md, k3)
        assert shell <= 1e-12 * m_oracle ** 2
        assert null <= 1e-12 * m_oracle ** 2

    def test_transversality(self, unit_mass_mode):
        for k3 in (0.0, 1.3, 4.0):
            for az in (0.0, 0.7, 2.9):
                dec = wk.decompose(unit_mass_mode, k3, az)
                assert abs(dec.eta.mdot(dec.k_L)) <= 1e-12
