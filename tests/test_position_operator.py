"""Tests for the finite-difference position-operator variants."""

import numpy as np
import pytest

from photonguide import momentum_basis as mb
from photonguide import position_operator as po
from photonguide.errors import ComponentMismatch, StencilCrossesSingularity
from photonguide.position_operator import PositionKind, Scheme

RNG = np.random.default_rng(20240818)


def sample_k(rng, n, min_seam=0.5):
    out = []
    while len(out) < n:
        k = rng.uniform(-3, 3, 3)
        if po.singular_distance(k) >= min_seam:
            out.append(k)
    return out


class TestGradK:
    def test_exact_on_linear(self):
        A = RNG.standard_normal((4, 3))
        b = RNG.standard_normal(4)
        grad = po.grad_k(lambda k: A @ k + b, [1.0, 0.5, 2.0], Scheme(h=1e-3))
        assert np.allclose(grad, A.T, atol=1e-12)

    def test_phase_gradient_richardson(self):
        # Oracle: d/dk_j exp(-i x0.k) = -i x0_j exp(-i x0.k); the error must
        # shrink by 4x when h is halved (order 2).
        x0 = np.array([1.0, -2.0, 0.5])
        k = np.array([0.3, 0.4, 1.2])

        def fn(q):
            return np.array([np.exp(-1j * x0 @ q)])

        exact = np.outer(-1j * x0, fn(k))
        err_h = np.max(np.abs(po.grad_k(fn, k, Scheme(h=1e-3)) - exact))
        err_h2 = np.max(np.abs(po.grad_k(fn, k, Scheme(h=5e-4)) - exact))
        # Leading truncation error is h^2 |x0_j|^3 / 6 <= 1.4e-6 here.
        assert err_h <= 2e-6
        assert 3.5 <= err_h / err_h2 <= 4.5

    def test_order_four_is_sharper(self):
        x0 = np.array([1.0, -2.0, 0.5])
        k = np.array([0.3, 0.4, 1.2])

        def fn(q):
            return np.array([np.exp(-1j * x0 @ q)])

        exact = np.outer(-1j * x0, fn(k))
        err2 = np.max(np.abs(po.grad_k(fn, k, Scheme(h=1e-3, order=2)) - exact))
        err4 = np.max(np.abs(po.grad_k(fn, k, Scheme(h=1e-3, order=4)) - exact))
        assert err4 < err2 * 1e-3

    def test_stencil_near_seam_rejected(self):
        with pytest.raises(StencilCrossesSingularity):
            po.grad_k(lambda k: k, [1e-5, 0.0, -1.0], Scheme(h=1e-4))
        with pytest.raises(StencilCrossesSingularity):
            po.grad_k(lambda k: k, [1e-5, 1e-5, 1e-5], Scheme(h=1e-4))

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            Scheme(h=0.0)
        with pytest.raises(ValueError):
            Scheme(h=1e-4, order=3)


class TestEigenvalueProperty:
    def test_origin_localized_state(self):
        ks = sample_k(RNG, 10)
        res = po.eigenvalue_residual([0, 0, 0], +1, ks, Scheme(h=1e-4))
        assert res <= 1e-6

    @pytest.mark.parametrize("lam", [-1, 0, +1])
    def test_shifted_state_all_helicities(self, lam):
        # The longitudinal mode participates on an equal footing.
        res = po.eigenvalue_residual(
            [1.0, -2.0, 0.5], lam, [np.array([0.3, 0.4, 1.2])], Scheme(h=1e-4))
        assert res <= 1e-6

    @pytest.mark.parametrize("kind", [PositionKind.SPINOR_PLUS, PositionKind.SPINOR_MINUS])
    def test_spinor_variants(self, kind):
        ks = sample_k(RNG, 5)
        for lam in mb.HELICITIES:
            res = po.eigenvalue_residual([0.7, 0.1, -0.4], lam, ks, Scheme(h=1e-4), kind=kind)
            assert res <= 1e-6, (kind, lam, res)

    def test_second_order_convergence(self):
        ks = sample_k(RNG, 5)
        r1 = po.eigenvalue_residual([1.0, -2.0, 0.5], +1, ks, Scheme(h=1e-4))
        r2 = po.eigenvalue_residual([1.0, -2.0, 0.5], +1, ks, Scheme(h=5e-5))
        order = np.log2(r1 / r2)
        assert abs(order - 2.0) <= 0.2

    def test_weight_term_is_load_bearing(self):
        # Dropping the spectral-weight compensation must degrade the residual
        # by at least three orders of magnitude (negative control).
        ks = sample_k(RNG, 10)
        good = po.eigenvalue_residual([0, 0, 0], +1, ks, Scheme(h=1e-4))
        bad = po.eigenvalue_residual([0, 0, 0], +1, ks, Scheme(h=1e-4),
                                     include_weight_term=False)
        assert bad >= 1e3 * good
        # The broken residual has the predicted 1/(2 omega) magnitude.
        expected = max(1.0 / (2.0 * mb.omega(k)) for k in ks)
        assert abs(bad - expected) <= 1e-6 * expected

    def test_naive_operator_fails_eigenvalue(self):
        # i d/dk alone is not diagonal on the localized family.
        ks = sample_k(RNG, 10)
        res = po.eigenvalue_residual([0, 0, 0], +1, ks, Scheme(h=1e-4),
                                     kind=PositionKind.NAIVE)
        assert res > 1e-2


class TestCommutators:
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_components_commute(self, kind):
        if kind in (PositionKind.VECTOR, PositionKind.NAIVE):
            phi = mb.localized_wavefunction([0.3, -0.2, 0.4], +1)
        else:
            branch = "plus" if kind is PositionKind.SPINOR_PLUS else "minus"
            phi = mb.localized_spinor_wavefunction([0.3, -0.2, 0.4], +1, branch)
        scheme = Scheme(h=1e-3)
        for k in sample_k(RNG, 3, min_seam=0.8):
            for i in range(3):
                for j in range(i + 1, 3):
                    res = po.commutator_residual(kind, i, j, phi, k, scheme)
                    assert res <= 1e-5, (kind, i, j, res)

    def test_commutator_decays_second_order(self):
        phi = mb.localized_wavefunction([0.3, -0.2, 0.4], +1)
        k = np.array([1.1, -0.8, 0.9])
        r1 = po.commutator_residual(PositionKind.VECTOR, 0, 1, phi, k, Scheme(h=1e-3))
        r2 = po.commutator_residual(PositionKind.VECTOR, 0, 1, phi, k, Scheme(h=5e-4))
        order = np.log2(r1 / r2)
        assert abs(order - 2.0) <= 0.4

    def test_diagonal_is_zero(self):
        phi = mb.localized_wavefunction([0, 0, 0], -1)
        assert po.commutator_residual(
            PositionKind.VECTOR, 1, 1, phi, [1.0, 0.5, 0.7], Scheme(h=1e-3)) == 0.0


class TestConnectionIdentity:
    def test_full_frame_reproduces_gradient(self):
        for k in sample_k(RNG, 20):
            for lam in mb.HELICITIES:
                res = po.connection_identity_residual(k, lam, Scheme(h=1e-4))
                assert res <= 1e-10, (k, lam, res)

    def test_truncated_frame_detected(self):
        # Dropping the longitudinal sector removes a projection of the
        # gradient and the residual jumps to order one.
        k = np.array([1.0, 0.7, -0.5])
        res = po.connection_identity_residual(k, +1, Scheme(h=1e-4), helicities=(-1, +1))
        assert res > 1e-3


class TestApplyPosition:
    def test_linearity(self):
        scheme = Scheme(h=1e-3)
        phi1 = mb.localized_wavefunction([0.3, 0.1, -0.2], +1)
        phi2 = mb.localized_wavefunction([-0.5, 0.4, 0.9], -1)
        a, b = 1.7 - 0.3j, -0.8 + 1.1j

        def combo(k):
            return a * phi1(k) + b * phi2(k)

        for k in sample_k(RNG, 5):
            lhs = po.apply_position(PositionKind.VECTOR, combo, k, scheme)
            rhs = (a * po.apply_position(PositionKind.VECTOR, phi1, k, scheme)
                   + b * po.apply_position(PositionKind.VECTOR, phi2, k, scheme))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_component_mismatch_rejected(self):
        phi6 = mb.localized_spinor_wavefunction([0, 0, 0], +1)
        with pytest.raises(ComponentMismatch):
            po.apply_position(PositionKind.VECTOR, phi6, [1.0, 0.5, 0.7], Scheme(h=1e-4))
        phi3 = mb.localized_wavefunction([0, 0, 0], +1)
        with pytest.raises(ComponentMismatch):
            po.apply_position(PositionKind.SPINOR_PLUS, phi3, [1.0, 0.5, 0.7], Scheme(h=1e-4))

    def test_naive_accepts_both_widths(self):
        phi3 = mb.localized_wavefunction([0, 0, 0], +1)
        phi6 = mb.localized_spinor_wavefunction([0, 0, 0], +1)
        k = [1.0, 0.5, 0.7]
        assert po.apply_position(PositionKind.NAIVE, phi3, k, Scheme(h=1e-4)).shape == (3, 3)
        assert po.apply_position(PositionKind.NAIVE, phi6, k, Scheme(h=1e-4)).shape == (3, 6)

    def test_singular_distance(self):
        assert po.singular_distance([0.0, 0.0, -2.0]) == 0.0
        assert po.singular_distance([3.0, 4.0, -1.0]) == 5.0
        assert po.singular_distance([0.6, 0.8, 2.0]) == pytest.approx(np.sqrt(5.0))


def kernel_points(rng, n, kind):
    """n seeded points clear of the seam that kind's stencil guards: random
    ones plus points on the open half of the k3 axis and 1e-8 off it."""
    sign = -1.0 if kind is PositionKind.SPINOR_MINUS else 1.0
    out = [sign * np.array(k) for k in
           ([0.0, 0.0, 1.3], [0.0, 0.0, 0.7], [1e-8, 0.0, 2.0], [0.0, -1e-8, 0.9], [-1e-8, 1e-8, 1.1])]
    while len(out) < n:
        k = rng.uniform(-3, 3, 3)
        if po.singular_distance(sign * k) >= 0.5:
            out.append(k)
    return np.array(out)


def localized(kind, x0, lam):
    if kind in (PositionKind.VECTOR, PositionKind.NAIVE):
        return mb.localized_wavefunction(x0, lam)
    branch = "plus" if kind is PositionKind.SPINOR_PLUS else "minus"
    return mb.localized_spinor_wavefunction(x0, lam, branch)


def pointwise_vector_position(fn, k, scheme):
    """Reference: the vector variant with every frame and stencil value
    computed one point at a time, with the same scalar difference formulas."""
    k = np.asarray(k, dtype=float)
    h = scheme.h

    def grad(f):
        rows = []
        for e in np.eye(3):
            if scheme.order == 2:
                rows.append((np.asarray(f(k + h * e)) - np.asarray(f(k - h * e))) / (2.0 * h))
            else:
                rows.append((-np.asarray(f(k + 2 * h * e)) + 8.0 * np.asarray(f(k + h * e))
                             - 8.0 * np.asarray(f(k - h * e)) + np.asarray(f(k - 2 * h * e))) / (12.0 * h))
        return np.array(rows)

    value = np.asarray(fn(k), dtype=complex)
    w = np.linalg.norm(k)
    result = 1j * grad(fn) - 1j * np.outer(k / (2.0 * w * w), value)
    for lam in mb.HELICITIES:
        def u(q, lam=lam):
            return mb.helicity_polarization(q, lam)
        result -= 1j * grad(u) * np.vdot(u(k), value)
    return result


class TestBatchedKernel:
    """The (N, 3) evaluation equals the stacked N = 1 calls."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_apply_position(self, kind, order):
        points = kernel_points(np.random.default_rng(31), 200, kind)
        phi = localized(kind, [0.4, -1.1, 0.6], -1)
        scheme = Scheme(h=1e-4, order=order)
        batch = po.apply_position(kind, phi, points, scheme)
        stacked = np.array([po.apply_position(kind, phi, k, scheme) for k in points])
        assert batch.shape == stacked.shape
        assert np.max(np.abs(batch - stacked)) <= 1e-15

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_commutator_residual(self, kind):
        points = kernel_points(np.random.default_rng(32), 200, kind)
        phi = localized(kind, [0.3, -0.2, 0.4], +1)
        scheme = Scheme(h=1e-3)
        batch = po.commutator_residual(kind, 0, 2, phi, points, scheme)
        stacked = np.array([po.commutator_residual(kind, 0, 2, phi, k, scheme) for k in points])
        assert batch.shape == (200,)
        assert np.max(np.abs(batch - stacked)) <= 1e-15
        assert np.array_equal(po.commutator_residual(kind, 1, 1, phi, points, scheme), np.zeros(200))

    def test_eigenvalue_residual_stacks_samples(self):
        ks = kernel_points(np.random.default_rng(33), 40, PositionKind.VECTOR)
        stacked = max(po.eigenvalue_residual([0.2, 0.5, -0.1], 0, [k], Scheme(h=1e-4)) for k in ks)
        assert po.eigenvalue_residual([0.2, 0.5, -0.1], 0, ks, Scheme(h=1e-4)) == stacked
        assert po.eigenvalue_residual([0.2, 0.5, -0.1], 0, (k for k in ks), Scheme(h=1e-4)) == stacked

    @pytest.mark.parametrize("order", [2, 4])
    def test_pointwise_wavefunction_goes_through_the_adapter(self, order):
        # A hand-rolled rule that indexes k[0] only works one point at a time.
        phi = mb.MomentumWavefunction(
            lambda k: np.array([k[0] * k[1], np.sin(k[2]), 1j * k[0] ** 2]), 3)
        scheme = Scheme(h=1e-3, order=order)
        for k in sample_k(np.random.default_rng(34), 5):
            expected = pointwise_vector_position(phi.fn, k, scheme)
            got = po.apply_position(PositionKind.VECTOR, phi, k, scheme)
            assert np.max(np.abs(got - expected)) <= 1e-12
        points = np.array(sample_k(np.random.default_rng(35), 4))
        batch = po.apply_position(PositionKind.VECTOR, phi, points, scheme)
        assert np.array_equal(batch, [po.apply_position(PositionKind.VECTOR, phi, k, scheme) for k in points])


class TestSeamGuard:
    """apply_position guards the seam of the frame it applies: -k3 for the
    vector and f frames, +k3 for the reflected frame g(-k)."""

    def test_spinor_minus_rejects_the_plus_k3_seam(self):
        with pytest.raises(StencilCrossesSingularity):
            po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, 1]], Scheme(1e-4),
                                   kind=PositionKind.SPINOR_MINUS)

    def test_spinor_minus_accepts_the_minus_k3_axis(self):
        res = po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, -1]], Scheme(1e-4),
                                     kind=PositionKind.SPINOR_MINUS)
        assert res <= 1e-8

    @pytest.mark.parametrize("kind", [PositionKind.VECTOR, PositionKind.SPINOR_PLUS])
    def test_other_frames_keep_the_minus_k3_seam(self, kind):
        with pytest.raises(StencilCrossesSingularity):
            po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, -1]], Scheme(1e-4), kind=kind)
        assert po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, 1]], Scheme(1e-4), kind=kind) <= 1e-8
