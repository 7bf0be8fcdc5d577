"""Tests for polarization triads, helicity vectors, spinors and the
momentum-space scalar product."""

import numpy as np
import pytest

from photonguide import momentum_basis as mb
from photonguide import position_operator as po
from photonguide.errors import MixedComponentCount, ZeroMomentum

RNG = np.random.default_rng(20240817)


def quotient_triad(p):
    """Oracle: the unsimplified quotient form of the rotated triad, valid for
    p1^2 + p2^2 > 0.  The production code uses an algebraically equivalent
    cancellation-free rewrite; both must agree off axis."""
    p = np.asarray(p, float)
    r = np.linalg.norm(p)
    p1, p2, p3 = p
    rho2 = p1 * p1 + p2 * p2
    e1 = np.array([
        (p1 * p1 * p3 + p2 * p2 * r) / (r * rho2),
        (p1 * p2 * p3 - p1 * p2 * r) / (r * rho2),
        -p1 / r,
    ])
    e2 = np.array([
        (p1 * p2 * p3 - p1 * p2 * r) / (r * rho2),
        (p2 * p2 * p3 + p1 * p1 * r) / (r * rho2),
        -p2 / r,
    ])
    return np.array([e1, e2, p / r])


class TestRotatedTriad:
    def test_positive_axis_is_identity(self):
        assert np.allclose(mb.rotated_triad([0, 0, 1]), np.eye(3), atol=1e-15)

    def test_unit_x_direction(self):
        # Direct evaluation of the quotient form plus the cross-product check.
        triad = mb.rotated_triad([1.0, 0.0, 0.0])
        assert np.allclose(triad[0], [0, 0, -1], atol=1e-15)
        assert np.allclose(triad[1], [0, 1, 0], atol=1e-15)
        assert np.allclose(triad[2], [1, 0, 0], atol=1e-15)
        assert np.allclose(np.cross(triad[0], triad[1]), triad[2], atol=1e-15)

    def test_negative_axis_limit_convention(self):
        # Oracle: limit of the quotient form along p = (d, 0, -sqrt(1 - d^2)).
        limit = quotient_triad([1e-7, 0.0, -np.sqrt(1.0 - 1e-14)])
        on_axis = mb.rotated_triad([0.0, 0.0, -1.0])
        assert np.allclose(on_axis, limit, atol=1e-6)
        assert np.allclose(on_axis, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]], atol=1e-15)
        gram = on_axis @ on_axis.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12

    def test_matches_quotient_form_generically(self):
        for _ in range(200):
            p = RNG.uniform(-5, 5, 3)
            if np.hypot(p[0], p[1]) < 1e-3:
                continue
            assert np.allclose(mb.rotated_triad(p), quotient_triad(p), atol=1e-12)

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_orthonormal_near_axis(self, sign):
        for d in (1e-8, 1e-10, 1e-12):
            triad = mb.rotated_triad([d, -0.3 * d, sign * 2.0])
            assert np.max(np.abs(triad @ triad.T - np.eye(3))) <= 1e-12
            assert np.linalg.norm(np.cross(triad[0], triad[1]) - triad[2]) <= 1e-12

    def test_zero_momentum_rejected(self):
        with pytest.raises(ZeroMomentum):
            mb.rotated_triad([0.0, 0.0, 0.0])


class TestHelicityPolarization:
    def test_longitudinal_is_unit_k(self):
        assert np.allclose(mb.helicity_polarization([0, 0, 1], 0), [0, 0, 1])
        k = np.array([1.2, -0.4, 0.9])
        assert np.allclose(mb.helicity_polarization(k, 0), k / np.linalg.norm(k))

    def test_plus_helicity_on_axis(self):
        eps = mb.helicity_polarization([0, 0, 1], +1)
        assert np.allclose(eps, -np.array([1, 1j, 0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("lam", [-1, +1])
    def test_curl_eigenvector(self, lam):
        for _ in range(50):
            k = RNG.uniform(-5, 5, 3)
            if np.linalg.norm(k) < 1e-3:
                continue
            khat = k / np.linalg.norm(k)
            eps = mb.helicity_polarization(k, lam)
            assert np.linalg.norm(np.cross(khat, eps) + 1j * lam * eps) <= 1e-12

    def test_orthonormality_and_completeness(self):
        for _ in range(200):
            k = RNG.uniform(-5, 5, 3)
            if np.linalg.norm(k) < 1e-6:
                continue
            eps = mb.polarization_triad(k)
            gram = eps.conj() @ eps.T
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
            completeness = sum(np.outer(e, e.conj()) for e in eps)
            assert np.max(np.abs(completeness - np.eye(3))) <= 1e-12

    def test_continuity_off_seam(self):
        # Lipschitz bound at seam distance >= 0.1; the constant stays modest.
        worst = 0.0
        for _ in range(100):
            k = RNG.uniform(-3, 3, 3)
            if np.hypot(k[0], k[1]) < 0.1 if k[2] <= 0 else np.linalg.norm(k) < 0.1:
                continue
            step = RNG.standard_normal(3)
            step *= 1e-5 / np.linalg.norm(step)
            for lam in mb.HELICITIES:
                diff = mb.helicity_polarization(k + step, lam) - mb.helicity_polarization(k, lam)
                worst = max(worst, np.linalg.norm(diff) / 1e-5)
        assert worst < 1e3


class TestSpinors:
    def test_zero_helicity_blocks(self):
        k = np.array([0.3, 0.4, 1.2])
        eps = mb.helicity_polarization(k, 0)
        f = mb.spinor_f(k, 0)
        g = mb.spinor_g(k, 0)
        assert np.allclose(f, np.concatenate([eps, np.zeros(3)]))
        assert np.allclose(g, np.concatenate([np.zeros(3), eps]))

    def test_plus_helicity_halves(self):
        k = np.array([0.3, 0.4, 1.2])
        eps = mb.helicity_polarization(k, +1)
        f = mb.spinor_f(k, +1)
        assert np.allclose(f, np.concatenate([eps, eps]) / np.sqrt(2))

    @pytest.mark.parametrize("lam", [-1, 0, +1])
    def test_unit_norm(self, lam):
        k = np.array([-0.7, 1.1, 0.5])
        assert abs(np.linalg.norm(mb.spinor_f(k, lam)) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(mb.spinor_g(k, lam)) - 1.0) <= 1e-14


class TestScalarProduct:
    def lattice(self):
        return [np.array(v, float) for v in
                [(1, 0, 0), (0, 1, 1), (1, 1, 2), (-1, 0.5, 0.3), (2, -1, 1)]]

    def test_zero_wavefunction(self):
        zero = mb.MomentumWavefunction(lambda k: np.zeros(3, complex), 3)
        assert mb.scalar_product(zero, zero, self.lattice()) == 0

    def test_unit_weight_counts_points(self):
        # Each term contributes omega * (1/omega) = 1.
        phi = mb.MomentumWavefunction(
            lambda k: np.sqrt(mb.omega(k)) * mb.helicity_polarization(k, +1), 3)
        points = self.lattice()
        value = mb.scalar_product(phi, phi, points)
        assert abs(value - len(points)) <= 1e-12

    def test_conjugate_symmetry(self):
        def random_wf():
            c = RNG.standard_normal((4, 3)) + 1j * RNG.standard_normal((4, 3))
            return mb.MomentumWavefunction(
                lambda k, c=c: c[0] + c[1] * k[0] + c[2] * np.sin(k[1]) + c[3] * k[2] ** 2, 3)
        points = self.lattice()
        for _ in range(10):
            phi1, phi2 = random_wf(), random_wf()
            lhs = mb.scalar_product(phi1, phi2, points)
            rhs = mb.scalar_product(phi2, phi1, points)
            assert abs(lhs - np.conj(rhs)) <= 1e-12 * (1 + abs(lhs))

    def test_positive_definite(self):
        phi = mb.MomentumWavefunction(lambda k: np.array([k[0], 1j * k[1], 0.5]), 3)
        value = mb.scalar_product(phi, phi, self.lattice())
        assert value.real > 0 and abs(value.imag) <= 1e-14

    def test_mixed_component_count_rejected(self):
        phi3 = mb.MomentumWavefunction(lambda k: np.zeros(3, complex), 3)
        phi6 = mb.MomentumWavefunction(lambda k: np.zeros(6, complex), 6)
        with pytest.raises(MixedComponentCount):
            mb.scalar_product(phi3, phi6, self.lattice())


def kernel_points(rng, n):
    """n seeded points: random ones plus points on the k3 axis of both signs
    and 1e-8 off it."""
    axis = [[0.0, 0.0, 1.3], [0.0, 0.0, -0.7], [1e-8, 0.0, 2.0], [0.0, -1e-8, -2.0],
            [1e-8, 1e-8, 0.5], [-1e-8, 0.0, -0.5]]
    return np.concatenate([axis, rng.uniform(-3, 3, (n - len(axis), 3))])


class TestBatchedKernel:
    """The (N, 3) evaluation equals the stacked N = 1 calls."""

    points = kernel_points(np.random.default_rng(20261018), 200)

    @pytest.mark.parametrize("fn", [
        mb.rotated_triad,
        mb.polarization_triad,
        *[lambda k, lam=lam: mb.helicity_polarization(k, lam) for lam in mb.HELICITIES],
        *[lambda k, lam=lam: mb.spinor_f(k, lam) for lam in mb.HELICITIES],
        *[lambda k, lam=lam: mb.spinor_g(k, lam) for lam in mb.HELICITIES],
        lambda k: mb.spinor_frame(k, "f"),
        lambda k: mb.spinor_frame(k, "g"),
        po.localized(po.PositionKind.VECTOR, [0.7, -1.3, 0.4], -1),
        po.localized(po.PositionKind.SPINOR_MINUS, [0.7, -1.3, 0.4], +1),
    ])
    def test_batch_equals_stacked_points(self, fn):
        batch = fn(self.points)
        stacked = np.array([fn(k) for k in self.points])
        assert batch.shape == stacked.shape
        assert np.max(np.abs(batch - stacked)) <= 1e-15

    def test_frame_rows_equal_the_single_helicity_formulas(self):
        # Reference: each helicity on its own, with an int lam, from the
        # rotated triad: eps(0) = e3, eps(+-1) the transverse combination,
        # f = (eps, lam eps)/sqrt(1 + lam^2) and g = (lam eps, eps)/sqrt(1 + lam^2).
        # Bitwise, signed zeros included.
        def same(a, b):
            return (np.array_equal(a, b) and np.array_equal(np.signbit(a.real), np.signbit(b.real))
                    and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))

        triad = mb.rotated_triad(self.points)
        for row, lam in enumerate(mb.HELICITIES):
            eps = triad[:, 2].astype(complex) if lam == 0 else mb._transverse(triad, lam)
            scaled, norm = lam * eps, np.sqrt(1.0 + lam * lam)
            f = np.concatenate([eps, scaled], axis=-1) / norm
            g = np.concatenate([scaled, eps], axis=-1) / norm
            assert same(mb.polarization_triad(self.points)[:, row], eps)
            assert same(mb.helicity_polarization(self.points, lam), eps)
            assert same(mb.spinor_frame(self.points, "f")[:, row], f)
            assert same(mb.spinor_f(self.points, lam), f)
            assert same(mb.spinor_frame(self.points, "g")[:, row], g)
            assert same(mb.spinor_g(self.points, lam), g)

    @pytest.mark.parametrize("branch", ["f", "g"])
    def test_spinor_frame_equals_the_float_column_expression(self, branch):
        # Reference: the helicity column and the norms sqrt(1 + lam^2) as
        # floats, cast to complex by each operation; the frame's precomputed
        # complex constants must give the same bits, signed zeros included.
        column = np.array(mb.HELICITIES, dtype=float)[:, None]
        points = np.concatenate([self.points, RNG.uniform(-5, 5, (300, 3))]).reshape(5, 100, 3)
        eps = mb.polarization_triad(points)
        halves = [eps, column * eps] if branch == "f" else [column * eps, eps]
        expected = np.concatenate(halves, axis=-1) / np.sqrt(1.0 + column * column)
        assert mb.spinor_frame(points, branch).tobytes() == expected.tobytes()

    def test_batch_shapes(self):
        grid = self.points[:24].reshape(2, 4, 3, 3)
        assert mb.rotated_triad(grid).shape == (2, 4, 3, 3, 3)
        assert mb.spinor_f(grid, +1).shape == (2, 4, 3, 6)
        assert mb.omega(grid).shape == (2, 4, 3)
        assert isinstance(mb.omega([3.0, 4.0, 0.0]), float)

    @pytest.mark.parametrize("row", [0, 57, 199])
    def test_any_zero_row_rejected(self, row):
        points = self.points.copy()
        points[row] = 0.0
        with pytest.raises(ZeroMomentum):
            mb.rotated_triad(points)
        with pytest.raises(ZeroMomentum):
            mb.polarization_triad(points)
