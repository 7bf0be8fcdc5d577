"""Tests for the finite-difference position-operator variants."""

import numpy as np
import pytest

from photonguide import momentum_basis as mb
from photonguide import position_operator as po
from photonguide.errors import ComponentMismatch, StencilCrossesSingularity
from photonguide.position_operator import PositionKind, Scheme

RNG = np.random.default_rng(20240818)

# The pairs (i, j) of commutator_residual's last axis, in order.
PAIRS = ((0, 1), (0, 2), (1, 2))


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
        phi = po.localized(kind, [0.3, -0.2, 0.4], +1)
        scheme = Scheme(h=1e-3)
        for k in sample_k(RNG, 3, min_seam=0.8):
            res = po.commutator_residual(kind, phi, k, scheme)
            assert res.shape == (3,)
            for pair, column in zip(PAIRS, res):
                assert column <= 1e-5, (kind, pair, column)

    def test_commutator_decays_second_order(self):
        # Column 0 is the pair (0, 1).
        phi = po.localized(PositionKind.VECTOR, [0.3, -0.2, 0.4], +1)
        k = np.array([1.1, -0.8, 0.9])
        r1 = po.commutator_residual(PositionKind.VECTOR, phi, k, Scheme(h=1e-3))[0]
        r2 = po.commutator_residual(PositionKind.VECTOR, phi, k, Scheme(h=5e-4))[0]
        order = np.log2(r1 / r2)
        assert abs(order - 2.0) <= 0.4


class TestConnectionIdentity:
    def test_one_triad_per_call(self, monkeypatch):
        # eps and its stencil values come from one polarization_triad call.
        ks = np.array(sample_k(np.random.default_rng(39), 5))
        expected = po.connection_identity_residual(ks, +1, Scheme(h=1e-4))
        calls = []
        triad = mb.polarization_triad

        def counting(k):
            calls.append(np.shape(k))
            return triad(k)

        monkeypatch.setattr(mb, "polarization_triad", counting)
        assert np.array_equal(po.connection_identity_residual(ks, +1, Scheme(h=1e-4)), expected)
        assert calls == [(5, 7, 3)]

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
        phi1 = po.localized(PositionKind.VECTOR, [0.3, 0.1, -0.2], +1)
        phi2 = po.localized(PositionKind.VECTOR, [-0.5, 0.4, 0.9], -1)
        a, b = 1.7 - 0.3j, -0.8 + 1.1j

        def combo(k):
            return a * phi1(k) + b * phi2(k)

        for k in sample_k(RNG, 5):
            lhs = po.apply_position(PositionKind.VECTOR, combo, k, scheme)
            rhs = (a * po.apply_position(PositionKind.VECTOR, phi1, k, scheme)
                   + b * po.apply_position(PositionKind.VECTOR, phi2, k, scheme))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_component_mismatch_rejected(self):
        phi6 = po.localized(PositionKind.SPINOR_PLUS, [0, 0, 0], +1)
        with pytest.raises(ComponentMismatch):
            po.apply_position(PositionKind.VECTOR, phi6, [1.0, 0.5, 0.7], Scheme(h=1e-4))
        phi3 = po.localized(PositionKind.VECTOR, [0, 0, 0], +1)
        with pytest.raises(ComponentMismatch):
            po.apply_position(PositionKind.SPINOR_PLUS, phi3, [1.0, 0.5, 0.7], Scheme(h=1e-4))

    def test_component_mismatch_names_the_frame_width(self):
        phi3 = po.localized(PositionKind.VECTOR, [0, 0, 0], +1)
        with pytest.raises(ComponentMismatch, match=r"^spinor_minus variant acts on 6-component wavefunctions, got shape \(3,\)$"):
            po.apply_position(PositionKind.SPINOR_MINUS, phi3, [1.0, 0.5, -0.7], Scheme(h=1e-4))

    def test_naive_accepts_both_widths(self):
        phi3 = po.localized(PositionKind.VECTOR, [0, 0, 0], +1)
        phi6 = po.localized(PositionKind.SPINOR_PLUS, [0, 0, 0], +1)
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


def count_frames(monkeypatch):
    """Replace po.frame by a wrapper that logs (kind, shape of k) per call."""
    calls = []
    frame = po.frame

    def counting(kind, k):
        calls.append((kind, np.shape(k)))
        return frame(kind, k)

    monkeypatch.setattr(po, "frame", counting)
    return calls


def plane_wave(x0, n):
    """exp(-i x0.k) in each of n components: a batched rule that evaluates no frame."""
    x0 = np.asarray(x0, dtype=float)
    return mb.BatchedWavefunction(lambda k: np.repeat(np.exp(-1j * k @ x0)[..., None], n, axis=-1), n)


class TestLocalized:
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_family_is_built_on_the_variant_frame(self, kind):
        # sqrt(omega) u(k, lam) exp(-i x0.k), u a row of the variant's frame;
        # the naive variant borrows the vector frame.  x0.k is one dot
        # product per point.
        ks = kernel_points(np.random.default_rng(37), 20, kind)
        x0 = np.array([0.4, -1.1, 0.6])
        u = po.frame(PositionKind.VECTOR if kind is PositionKind.NAIVE else kind, ks)
        phase = np.exp(-1j * np.array([np.dot(k, x0) for k in ks]))
        for row, lam in enumerate(mb.HELICITIES):
            expected = np.sqrt(mb.omega(ks))[:, None] * u[:, row] * phase[:, None]
            assert np.array_equal(po.localized(kind, x0, lam)(ks), expected)


class TestBatchedKernel:
    """The (N, 3) evaluation equals the stacked N = 1 calls."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_apply_position(self, kind, order):
        points = kernel_points(np.random.default_rng(31), 200, kind)
        phi = po.localized(kind, [0.4, -1.1, 0.6], -1)
        scheme = Scheme(h=1e-4, order=order)
        batch = po.apply_position(kind, phi, points, scheme)
        stacked = np.array([po.apply_position(kind, phi, k, scheme) for k in points])
        assert batch.shape == stacked.shape
        assert np.max(np.abs(batch - stacked)) <= 1e-15

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_commutator_residual(self, kind):
        points = kernel_points(np.random.default_rng(32), 200, kind)
        phi = po.localized(kind, [0.3, -0.2, 0.4], +1)
        scheme = Scheme(h=1e-3)
        batch = po.commutator_residual(kind, phi, points, scheme)
        stacked = np.array([po.commutator_residual(kind, phi, k, scheme) for k in points])
        assert batch.shape == stacked.shape == (200, 3)
        for column in range(3):
            assert np.max(np.abs(batch[:, column] - stacked[:, column])) <= 1e-15

    def test_eigenvalue_residual_stacks_samples(self):
        ks = kernel_points(np.random.default_rng(33), 40, PositionKind.VECTOR)
        stacked = max(po.eigenvalue_residual([0.2, 0.5, -0.1], 0, [k], Scheme(h=1e-4)) for k in ks)
        assert po.eigenvalue_residual([0.2, 0.5, -0.1], 0, ks, Scheme(h=1e-4)) == stacked
        assert po.eigenvalue_residual([0.2, 0.5, -0.1], 0, (k for k in ks), Scheme(h=1e-4)) == stacked

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_eigenvalue_residual_takes_one_x0_per_sample(self, kind):
        # One call with an (N, 3) x0 is bitwise the worst of the N one-x0,
        # one-sample calls it replaces; one repeated row is the (3,) call.
        rng = np.random.default_rng(42)
        ks = kernel_points(rng, 30, kind)
        x0s = rng.uniform(-2.0, 2.0, (30, 3))
        for lam in mb.HELICITIES:
            for scheme in (Scheme(h=1e-4), Scheme(h=5e-5, order=4)):
                one_at_a_time = max(po.eigenvalue_residual(x0, lam, [k], scheme, kind=kind) for x0, k in zip(x0s, ks))
                assert po.eigenvalue_residual(x0s, lam, ks, scheme, kind=kind) == one_at_a_time
                repeated = np.repeat(x0s[:1], len(ks), axis=0)
                assert po.eigenvalue_residual(repeated, lam, ks, scheme, kind=kind) == \
                    po.eigenvalue_residual(x0s[0], lam, ks, scheme, kind=kind)
        with pytest.raises(ValueError):
            po.eigenvalue_residual(x0s[:2], +1, ks, Scheme(h=1e-4), kind=kind)

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_eigenvalue_residual_evaluates_the_frame_once(self, kind, monkeypatch):
        # phi's values and the connection come from one frame evaluation on
        # the samples and their stencil points; the naive variant's is the
        # vector frame of its family.
        ks = kernel_points(np.random.default_rng(36), 20, kind)
        x0, lam, scheme = np.array([0.2, 0.5, -0.1]), +1, Scheme(h=1e-4)
        phi = po.localized(kind, x0, lam)
        value = phi(ks)
        applied = po.apply_position(kind, phi, ks, scheme)
        separate = np.max(np.linalg.norm(applied - x0[:, None] * value[:, None, :], axis=(-2, -1))
                          / np.linalg.norm(value, axis=-1))
        calls = count_frames(monkeypatch)
        assert po.eigenvalue_residual(x0, lam, ks, scheme, kind=kind) == separate
        family = PositionKind.VECTOR if kind is PositionKind.NAIVE else kind
        assert calls == [(family, (20, 7, 3))]

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_apply_position_evaluates_the_frame_once(self, kind, monkeypatch):
        n = 3 if kind in (PositionKind.NAIVE, PositionKind.VECTOR) else 6
        ks = kernel_points(np.random.default_rng(38), 5, kind)
        calls = count_frames(monkeypatch)
        po.apply_position(kind, plane_wave([0.2, 0.5, -0.1], n), ks, Scheme(h=1e-4, order=4))
        assert calls == [(kind, (5, 13, 3))]

    @pytest.mark.parametrize("order", [2, 4])
    def test_pointwise_wavefunction_is_evaluated_point_by_point(self, order):
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


def nested_commutator_residual(kind, i, j, phi, k, scheme):
    """Reference: the commutator as nested apply_position calls, one inner
    application per ordering, each keeping a single row of x phi."""
    k = np.asarray(k, dtype=float)
    value = np.asarray(phi(k), dtype=complex)

    def component(c):
        return mb.BatchedWavefunction(lambda q: po.apply_position(kind, phi, q, scheme)[..., c, :], value.shape[-1])

    xi_xj = po.apply_position(kind, component(j), k, scheme)[..., i, :]
    xj_xi = po.apply_position(kind, component(i), k, scheme)[..., j, :]
    return np.linalg.norm(xi_xj - xj_xi, axis=-1) / np.linalg.norm(value, axis=-1)


class TestCommutatorSharesInnerApplication:
    """commutator_residual applies x to phi once, with all three rows, and
    the outer operator once on those three rows stacked, both from one frame
    evaluation."""

    def test_one_frame_one_inner_and_one_outer_application(self, monkeypatch):
        applies = []
        apply = po._apply

        def counting(kind, values, u, k, *rest):
            applies.append((np.shape(values), u.shape))
            return apply(kind, values, u, k, *rest)

        monkeypatch.setattr(po, "_apply", counting)
        frames = count_frames(monkeypatch)
        ks = np.array(sample_k(np.random.default_rng(40), 3))
        phi = plane_wave([0.3, -0.2, 0.4], 3)
        po.commutator_residual(PositionKind.VECTOR, phi, ks, Scheme(h=1e-3, order=4))
        # The frame on the 13 x 13 nested points of each k.  Inner: phi on
        # those points.  Outer: the three stacked rows on the 13 points of
        # each k, with the frame's centre slice.
        assert frames == [(PositionKind.VECTOR, (3, 13, 13, 3))]
        assert applies == [((3, 13, 13, 3), (3, 13, 13, 3, 3)), ((3, 3, 13, 3), (3, 13, 3, 3))]

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_bitwise_equal_to_nested_reference(self, kind, order):
        rng = np.random.default_rng(41)
        phi = po.localized(kind, [1.0, -2.0, 0.5], +1)
        ks = kernel_points(rng, 8, kind)
        for h in (1e-3, 5e-4):
            scheme = Scheme(h=h, order=order)
            got = po.commutator_residual(kind, phi, ks, scheme)
            one = po.commutator_residual(kind, phi, ks[3], scheme)
            assert got.shape == (8, 3) and one.shape == (3,)
            for column, (i, j) in enumerate(PAIRS):
                assert np.array_equal(got[:, column], nested_commutator_residual(kind, i, j, phi, ks, scheme))
                assert one[column] == nested_commutator_residual(kind, i, j, phi, ks[3], scheme)
            # The reversed pair has the same norm: (2, 0) is column 1.
            assert np.array_equal(got[:, 1], nested_commutator_residual(kind, 2, 0, phi, ks, scheme))
