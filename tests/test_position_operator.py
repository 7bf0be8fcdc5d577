"""Tests for the finite-difference position-operator variants."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from photonguide import momentum_basis as mb
from photonguide import position_operator as po
from photonguide.errors import PhotonGuideError
from photonguide.position_operator import PositionKind, Scheme
from test_momentum_basis import index_sum

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


def stencil_gradient(fn, k, scheme):
    """The naive variant is i d/dk_j alone, so -i times it is the bare
    central-difference gradient, behind the same seam guard."""
    return -1j * po.apply_position(PositionKind.NAIVE, fn, k, scheme)


class TestStencilGradient:
    def test_exact_on_linear(self):
        A = RNG.standard_normal((4, 3))
        b = RNG.standard_normal(4)
        grad = stencil_gradient(lambda k: k @ A.T + b, [1.0, 0.5, 2.0], Scheme(h=1e-3))
        assert np.allclose(grad, A.T, atol=1e-12)

    def test_phase_gradient_richardson(self):
        # Oracle: d/dk_j exp(-i x0.k) = -i x0_j exp(-i x0.k); the error must
        # shrink by 4x when h is halved (order 2).
        x0 = np.array([1.0, -2.0, 0.5])
        k = np.array([0.3, 0.4, 1.2])

        def fn(q):
            return np.exp(-1j * q @ x0)[..., None]

        exact = np.outer(-1j * x0, fn(k))
        err_h = np.max(np.abs(stencil_gradient(fn, k, Scheme(h=1e-3)) - exact))
        err_h2 = np.max(np.abs(stencil_gradient(fn, k, Scheme(h=5e-4)) - exact))
        # Leading truncation error is h^2 |x0_j|^3 / 6 <= 1.4e-6 here.
        assert err_h <= 2e-6
        assert 3.5 <= err_h / err_h2 <= 4.5

    def test_order_four_is_sharper(self):
        x0 = np.array([1.0, -2.0, 0.5])
        k = np.array([0.3, 0.4, 1.2])

        def fn(q):
            return np.exp(-1j * q @ x0)[..., None]

        exact = np.outer(-1j * x0, fn(k))
        err2 = np.max(np.abs(stencil_gradient(fn, k, Scheme(h=1e-3, order=2)) - exact))
        err4 = np.max(np.abs(stencil_gradient(fn, k, Scheme(h=1e-3, order=4)) - exact))
        assert err4 < err2 * 1e-3

    def test_stencil_near_seam_rejected(self):
        with pytest.raises(PhotonGuideError, match=r"^stencil at k=\[.*\] with h=0\.0001 reaches the k=0/seam region$"):
            stencil_gradient(lambda k: k, [1e-5, 0.0, -1.0], Scheme(h=1e-4))
        with pytest.raises(PhotonGuideError, match=r"^stencil at k=\[.*\] with h=0\.0001 reaches the k=0/seam region$"):
            stencil_gradient(lambda k: k, [1e-5, 1e-5, 1e-5], Scheme(h=1e-4))

    @pytest.mark.parametrize("h", [1e155, 1e200, 1e300])
    def test_step_past_the_stencil_range_is_rejected_before_any_overflow(self, h):
        # The guard reads |k| alone, so a step whose stencil points or norms
        # would overflow is rejected, with k and h named, before numpy forms
        # any of them: no call warns.
        k = np.array([0.3, 0.4, 1.2])
        scheme = Scheme(h=h)
        x0 = [1.0, -2.0, 0.5]
        calls = [
            lambda: po.apply_position(PositionKind.VECTOR, po.localized(PositionKind.VECTOR, x0, +1), k, scheme),
            lambda: po.eigenvalue_residual(x0, +1, [k], scheme),
            lambda: po.commutator_residual(x0, +1, k, Scheme(h=h, order=4), PositionKind.SPINOR_MINUS),
            lambda: po.connection_identity_residual(k, scheme),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PhotonGuideError, match=re.escape(f"stencil at k={k} with h={h} ")):
                    call()

    @pytest.mark.parametrize("h, order, message", [
        (0.0, 2, r"^step must be positive and finite, got 0\.0$"),
        (-1e-4, 2, r"^step must be positive and finite, got -0\.0001$"),
        (math.nan, 2, r"^step must be positive and finite, got nan$"),
        (math.inf, 2, r"^step must be positive and finite, got inf$"),
        (1e-4, 3, r"^order must be 2 or 4, got 3$"),
    ])
    def test_scheme_validation(self, h, order, message):
        with pytest.raises(PhotonGuideError, match=message):
            Scheme(h=h, order=order)


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
        scheme = Scheme(h=1e-3)
        for k in sample_k(RNG, 3, min_seam=0.8):
            res = po.commutator_residual([0.3, -0.2, 0.4], +1, k, scheme, kind)
            assert res.shape == (3,)
            for pair, column in zip(PAIRS, res):
                assert column <= 1e-5, (kind, pair, column)

    def test_commutator_decays_second_order(self):
        # Column 0 is the pair (0, 1).
        x0, k = [0.3, -0.2, 0.4], np.array([1.1, -0.8, 0.9])
        r1 = po.commutator_residual(x0, +1, k, Scheme(h=1e-3), PositionKind.VECTOR)[0]
        r2 = po.commutator_residual(x0, +1, k, Scheme(h=5e-4), PositionKind.VECTOR)[0]
        order = np.log2(r1 / r2)
        assert abs(order - 2.0) <= 0.4


class TestConnectionIdentity:
    def test_one_triad_per_call(self, monkeypatch):
        # eps and its stencil values, all three helicities, come from one
        # vector frame, on k and its stencil points.
        ks = np.array(sample_k(np.random.default_rng(39), 5))
        expected = po.connection_identity_residual(ks, Scheme(h=1e-4))
        calls = count_frames(monkeypatch)
        assert np.array_equal(po.connection_identity_residual(ks, Scheme(h=1e-4)), expected)
        assert expected.shape == (5, 3)
        assert calls == [(PositionKind.VECTOR, (5, 7, 3))]

    def test_full_frame_reproduces_gradient(self):
        for k in sample_k(RNG, 20):
            res = po.connection_identity_residual(k, Scheme(h=1e-4))
            assert res.shape == (3,)
            for lam in mb.HELICITIES:
                assert res[mb._row(lam)] <= 1e-10, (k, lam, res)

    def test_truncated_frame_detected(self):
        # Dropping the longitudinal sector removes a projection of the
        # gradient and the residual jumps to order one.
        k = np.array([1.0, 0.7, -0.5])
        res = po.connection_identity_residual(k, Scheme(h=1e-4), helicities=(-1, +1))[mb._row(+1)]
        assert res > 1e-3

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("helicities", [mb.HELICITIES, (-1, +1), (0,)])
    def test_rows_equal_the_single_helicity_formula(self, helicities, order):
        # Reference: one helicity lam per evaluation, its gradient projected
        # onto the kept helicities, each product summed in index order.
        def reference(k, lam, scheme):
            on_points = frame(PositionKind.VECTOR, reference_points(k, scheme))
            lhs = reference_difference(on_points[..., 1:, mb._row(lam), :], scheme)
            eps = on_points[..., 0, [mb._row(lp) for lp in helicities], :]
            coeff = index_sum(eps.conj()[..., None, :, :], lhs[..., :, None, :])  # [..., j, l']
            rhs = index_sum(coeff[..., :, None, :], eps.swapaxes(-1, -2)[..., None, :, :])
            return np.max(np.linalg.norm(lhs - rhs, axis=-1), axis=-1)

        ks = np.array(sample_k(np.random.default_rng(40), 30))
        scheme = Scheme(h=1e-4, order=order)
        got = po.connection_identity_residual(ks, scheme, helicities)
        one = po.connection_identity_residual(ks[7], scheme, helicities)
        assert got.shape == (30, 3) and one.shape == (3,)
        for row, lam in enumerate(mb.HELICITIES):
            assert np.array_equal(got[:, row], reference(ks, lam, scheme))
            assert one[row] == reference(ks[7], lam, scheme)


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
        with pytest.raises(PhotonGuideError, match=r"^vector variant acts on 3-component wavefunctions, got shape \(6,\)$"):
            po.apply_position(PositionKind.VECTOR, phi6, [1.0, 0.5, 0.7], Scheme(h=1e-4))
        phi3 = po.localized(PositionKind.VECTOR, [0, 0, 0], +1)
        with pytest.raises(PhotonGuideError, match=r"^spinor_plus variant acts on 6-component wavefunctions, got shape \(3,\)$"):
            po.apply_position(PositionKind.SPINOR_PLUS, phi3, [1.0, 0.5, 0.7], Scheme(h=1e-4))

    def test_component_mismatch_names_the_frame_width(self):
        phi3 = po.localized(PositionKind.VECTOR, [0, 0, 0], +1)
        with pytest.raises(PhotonGuideError, match=r"^spinor_minus variant acts on 6-component wavefunctions, got shape \(3,\)$"):
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
        assert po.singular_distance([3 * 2.0 ** -700, 4 * 2.0 ** -700, -1.0]) == 5 * 2.0 ** -700  # no underflow
        # The stencil guard rejects k exactly where singular_distance (of -k
        # for the reflected frame g(-k)) is below 10 h + reach, reach = h or
        # 2 h the stencil's half-width: the threshold itself passes, one
        # float below it fails, by the seam and by the origin.
        for kind in PositionKind:
            sign = -1.0 if kind is PositionKind.SPINOR_MINUS else 1.0
            for order, reach in ((2, 1.0), (4, 2.0)):
                scheme = Scheme(h=1e-4, order=order)
                threshold = 10.0 * scheme.h + reach * scheme.h
                for d, rejected in ((threshold, False), (np.nextafter(threshold, 0.0), True)):
                    for k in (sign * np.array([d, 0.0, -1.0]), sign * np.array([0.0, 0.0, d])):
                        assert po.singular_distance(sign * k) == d
                        batch = np.array([[1.0, 0.5, 0.7], k])
                        if rejected:
                            with pytest.raises(PhotonGuideError, match=r"^stencil at k=\[.*\] with h=0\.0001 reaches the k=0/seam region$"):
                                po._points(kind, k, scheme)
                            with pytest.raises(PhotonGuideError, match=r"^stencil at k=\[.*\] with h=0\.0001 reaches the k=0/seam region$"):
                                po.apply_position(kind, plane_wave([0.2, 0.5, -0.1], 3), batch, scheme)
                        else:
                            points, w = po._points(kind, batch, scheme)
                            assert points.shape == (2, 1 + 6 * order // 2, 3)
                            assert w.tobytes() == mb.omega(points).tobytes()


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
            return mb.polarization_triad(q)[..., mb._row(lam), :]
        result -= 1j * grad(u) * np.vdot(u(k), value)
    return result


def frame(kind, k):
    """The variant's frame on k, with omega computed here."""
    k = np.asarray(k, dtype=float)
    return po._frame(kind, k, mb.omega(k))


def count_frames(monkeypatch):
    """Replace po._frame, through which every kernel evaluates a frame, by a
    wrapper that logs (kind, shape of k) per call."""
    calls = []
    original = po._frame

    def counting(kind, k, w):
        calls.append((kind, np.shape(k)))
        return original(kind, k, w)

    monkeypatch.setattr(po, "_frame", counting)
    return calls


def plane_wave(x0, n):
    """exp(-i x0.k) in each of n components: a batched rule that evaluates no frame."""
    x0 = np.asarray(x0, dtype=float)
    return lambda k: np.repeat(np.exp(-1j * k @ x0)[..., None], n, axis=-1)


def open_side_points(rng, n, kind):
    """n points clear of the seam that kind's stencil guards: on the open
    half of the k3 axis (signed zeros included), 1e-9 off it, and random."""
    sign = -1.0 if kind is PositionKind.SPINOR_MINUS else 1.0
    out = [sign * np.array(k) for k in
           ([0.0, 0.0, 1.3], [-0.0, 0.0, 2.0], [0.0, -0.0, 0.7], [1e-9, 0.0, 1.0], [0.0, -1e-9, 1.0],
            [1e-9, 1e-9, 0.5], [-1e-9, 0.0, 2.0])]
    while len(out) < n:
        k = rng.uniform(-3, 3, 3)
        if po.singular_distance(sign * k) >= 0.5:
            out.append(k)
    return np.array(out)


def reference_points(k, scheme):
    """Reference: k and its stencil points, +-h e_j (order 2) or +-2h e_j,
    +-h e_j (order 4), concatenated."""
    steps = {2: (1.0, -1.0), 4: (2.0, 1.0, -1.0, -2.0)}[scheme.order]
    offsets = np.concatenate([c * np.eye(3) for c in steps])
    return np.concatenate([k[..., None, :], k[..., None, :] + scheme.h * offsets], axis=-2)


def reference_difference(stencil, scheme):
    """Reference: the difference quotients from the stencil values alone."""
    h = scheme.h
    if scheme.order == 2:
        return (stencil[..., 0:3, :] - stencil[..., 3:6, :]) / (2.0 * h)
    return (-stencil[..., 0:3, :] + 8.0 * stencil[..., 3:6, :] - 8.0 * stencil[..., 6:9, :]
            + stencil[..., 9:12, :]) / (12.0 * h)


def reference_apply(kind, values, u, k, scheme, include_weight_term):
    """Reference: (x phi)(k) and phi(k) with omega recomputed on k, each
    connection term its own product, the terms added in helicity order and
    their sum subtracted."""
    values = np.asarray(values, dtype=complex)
    value = values[..., 0, :]
    result = 1j * reference_difference(values[..., 1:, :], scheme)
    if kind is not PositionKind.NAIVE and include_weight_term:
        w = mb.omega(k)[..., None]
        result -= 1j * ((k / (2.0 * w * w))[..., :, None] * value[..., None, :])
    if u is not None:
        nlam, n = u.shape[-2:]
        stencil = u[..., 1:, :, :].reshape(u.shape[:-3] + (-1, nlam * n))
        du = reference_difference(stencil, scheme).reshape(u.shape[:-3] + (3, nlam, n))
        overlap = index_sum(u[..., 0, :, :].conj(), value[..., None, :])
        terms = [1j * du[..., :, lam, :] * overlap[..., lam, None, None] for lam in range(nlam)]
        result -= sum(terms[1:], terms[0])
    return result, value


def reference_eigenvalue_residual(x0, lam, k_samples, scheme, kind, include_weight_term):
    """Reference: x0 broadcast to (N, 3), omega recomputed for the family's
    values, and the norms and the max from np.linalg.norm and np.max."""
    ks = np.asarray(list(k_samples), dtype=float).reshape(-1, 3)
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), ks.shape)
    points = reference_points(ks, scheme)
    family = PositionKind.VECTOR if kind is PositionKind.NAIVE else kind
    u = frame(family, points)
    phase = np.exp(-1j * index_sum(points, x0[:, None, :]))
    values = np.sqrt(mb.omega(points))[..., None] * u[..., mb._row(lam), :] * phase[..., None]
    applied, value = reference_apply(kind, values, u if family is kind else None, ks, scheme, include_weight_term)
    residual = np.linalg.norm(applied - x0[:, :, None] * value[:, None, :], axis=(-2, -1))
    return float(np.max(residual / np.linalg.norm(value, axis=-1)))


class TestKernelAgainstReferenceFormulas:
    """The stencil points, _apply and eigenvalue_residual give the bits of
    the formulas they replace, for N = 1 and N > 1, x0 of shape (3,) and
    (N, 3), and orders 2 and 4."""

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_frame(self, kind):
        # The variant's frame, g of -k for SPINOR_MINUS, on both halves of
        # the axis with signed zeros, 1e-9 off it and at random points.
        reference = {
            PositionKind.NAIVE: lambda k: None,
            PositionKind.VECTOR: mb.polarization_triad,
            PositionKind.SPINOR_PLUS: lambda k: mb.spinor_frame(k, "f"),
            PositionKind.SPINOR_MINUS: lambda k: mb.spinor_frame(-k, "g"),
        }[kind]
        ks = np.concatenate([open_side_points(np.random.default_rng(53), 12, PositionKind.VECTOR),
                             open_side_points(np.random.default_rng(54), 12, PositionKind.SPINOR_MINUS)])
        for k in [ks[0], ks[13], ks, ks.reshape(4, 6, 3), reference_points(ks, Scheme(h=1e-4))]:
            got, expected = frame(kind, k), reference(k)
            if kind is PositionKind.NAIVE:
                assert got is None
            else:
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_points(self, kind, order):
        ks = open_side_points(np.random.default_rng(50), 12, kind)
        scheme = Scheme(h=1e-4, order=order)
        for k in [ks[0], ks[3], ks, ks.reshape(3, 4, 3)]:
            points, w = po._points(kind, k, scheme)
            assert points.tobytes() == reference_points(k, scheme).tobytes()
            assert w.tobytes() == mb.omega(points).tobytes()
            assert w[..., 0].tobytes() == np.asarray(mb.omega(k)).tobytes()

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_apply(self, kind, order):
        ks = open_side_points(np.random.default_rng(51), 12, kind)
        scheme = Scheme(h=1e-4, order=order)
        n = 3 if kind in (PositionKind.NAIVE, PositionKind.VECTOR) else 6
        for k in [ks[0], ks[5], ks[:1], ks]:
            points = reference_points(k, scheme)
            u = frame(kind, points)
            one = po.localized(kind, [0.4, -1.1, 0.6], +1)(points)
            two = np.stack([one, plane_wave([-0.3, 0.2, 0.9], n)(points)])
            for values in (one, two):
                for weight in (True, False):
                    got = po._apply(kind, values, u, k, scheme, weight, mb.omega(k))
                    expected = reference_apply(kind, values, u, k, scheme, weight)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_eigenvalue_residual(self, kind, order):
        rng = np.random.default_rng(52)
        ks = open_side_points(rng, 12, kind)
        x0s = rng.uniform(-2.0, 2.0, (len(ks), 3))
        scheme = Scheme(h=1e-4, order=order)
        for lam in mb.HELICITIES:
            for weight in (True, False):
                calls = [(x0, [k]) for x0, k in zip(x0s, ks)]
                calls += [(x0s[0], ks), (x0s, ks), (x0s[:1], ks[:1])]
                for x0, k in calls:
                    got = po.eigenvalue_residual(x0, lam, k, scheme, kind, weight)
                    expected = reference_eigenvalue_residual(x0, lam, k, scheme, kind, weight)
                    assert type(got) is float and got.hex() == expected.hex()


class TestLocalized:
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_family_is_built_on_the_variant_frame(self, kind):
        # sqrt(omega) u(k, lam) exp(-i x0.k), u a row of the variant's frame;
        # the naive variant borrows the vector frame.  x0.k is the Python
        # float sum of its products in index order.
        ks = kernel_points(np.random.default_rng(37), 20, kind)
        x0 = np.array([0.4, -1.1, 0.6])
        u = frame(PositionKind.VECTOR if kind is PositionKind.NAIVE else kind, ks)
        x1, x2, x3 = x0.tolist()
        phase = np.exp(-1j * np.array([k1 * x1 + k2 * x2 + k3 * x3 for k1, k2, k3 in ks.tolist()]))
        for row, lam in enumerate(mb.HELICITIES):
            expected = np.sqrt(mb.omega(ks))[:, None] * u[:, row] * phase[:, None]
            assert np.array_equal(po.localized(kind, x0, lam)(ks), expected)


    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_x0_is_one_centre(self, kind):
        # An (N, 3) x0 would broadcast against k's batch axes and give each
        # point its own centre; apply_position would then differentiate a
        # different function at each stencil point.
        ks = kernel_points(np.random.default_rng(47), 7, kind)
        for x0 in (np.zeros((7, 3)), np.zeros((1, 3)), np.zeros(2), 0.0):
            with pytest.raises(ValueError, match=r"x0 must be one centre of shape \(3,\), got"):
                po.localized(kind, x0, +1)(ks[0])


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
        x0, scheme = [0.3, -0.2, 0.4], Scheme(h=1e-3)
        batch = po.commutator_residual(x0, +1, points, scheme, kind)
        stacked = np.array([po.commutator_residual(x0, +1, k, scheme, kind) for k in points])
        assert batch.shape == stacked.shape == (200, 3)
        for column in range(3):
            assert np.max(np.abs(batch[:, column] - stacked[:, column])) <= 1e-15

    def test_eigenvalue_residual_stacks_samples(self):
        ks = kernel_points(np.random.default_rng(33), 40, PositionKind.VECTOR)
        stacked = max(po.eigenvalue_residual([0.2, 0.5, -0.1], 0, [k], Scheme(h=1e-4)) for k in ks)
        assert po.eigenvalue_residual([0.2, 0.5, -0.1], 0, ks, Scheme(h=1e-4)) == stacked

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
    def test_eigenvalue_residual_x0_is_a_centre_or_one_row_per_sample(self, kind):
        # A scalar x0 once read as the centre (x0, x0, x0), and a (1, 3) x0
        # broadcast over every sample, where localized and commutator_residual
        # raise.  One sample takes a (1, 3) x0 as its one row.
        ks = kernel_points(np.random.default_rng(43), 5, kind)
        message = r"^x0 must have shape \(3,\) or one row per sample, \((\d+), 3\), got "
        for x0, samples in ((0.5, ks), (0.5, ks[:1]), (np.zeros((1, 3)), ks), (np.zeros(2), ks[:0]),
                            (np.zeros((5, 1)), ks)):
            with pytest.raises(ValueError, match=message):
                po.eigenvalue_residual(x0, +1, samples, Scheme(h=1e-4), kind=kind)
        one_row = po.eigenvalue_residual([[0.2, 0.5, -0.1]], +1, ks[:1], Scheme(h=1e-4), kind=kind)
        assert one_row == po.eigenvalue_residual([0.2, 0.5, -0.1], +1, ks[0], Scheme(h=1e-4), kind=kind)

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
    def test_hand_rolled_rule_matches_pointwise_reference(self, order):
        def phi(k):
            return np.stack([k[..., 0] * k[..., 1], np.sin(k[..., 2]), 1j * k[..., 0] ** 2], axis=-1)
        scheme = Scheme(h=1e-3, order=order)
        for k in sample_k(np.random.default_rng(34), 5):
            expected = pointwise_vector_position(phi, k, scheme)
            got = po.apply_position(PositionKind.VECTOR, phi, k, scheme)
            assert np.max(np.abs(got - expected)) <= 1e-12
        points = np.array(sample_k(np.random.default_rng(35), 4))
        batch = po.apply_position(PositionKind.VECTOR, phi, points, scheme)
        assert np.array_equal(batch, [po.apply_position(PositionKind.VECTOR, phi, k, scheme) for k in points])


def counting(rule, calls):
    """rule, logging the shape of every k it is called with."""
    def wrapped(k):
        calls.append(np.shape(k))
        return rule(k)
    return wrapped


def one_point(k):
    """A rule written for one k of shape (3,): on an array of points, k[0]
    is the first point, not the first component."""
    return np.array([k[0], k[1], 0.5 * k[2]])


class TestWavefunctionContract:
    """A wavefunction maps k of shape (..., 3) to (..., n); each kernel calls
    it once, on all of its points stacked."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_apply_position_calls_phi_once(self, kind, order):
        calls = []
        ks = kernel_points(np.random.default_rng(43), 5, kind)
        po.apply_position(kind, counting(po.localized(kind, [0.2, 0.5, -0.1], +1), calls), ks,
                          Scheme(h=1e-4, order=order))
        assert calls == [(1, 5, 1 + 6 * (order // 2), 3)]

    def test_one_point_rule_rejected(self):
        # The rule is called on the stencil points with a leading axis of
        # length 1 added, so its k[1] fails.
        k = np.array([1.0, 0.5, 0.7])
        with pytest.raises(IndexError):
            po.apply_position(PositionKind.VECTOR, one_point, k, Scheme(h=1e-4))
        with pytest.raises(IndexError):
            po.apply_position(PositionKind.VECTOR, one_point, [k, 2.0 * k, 3.0 * k, 4.0 * k], Scheme(h=1e-4))

    def test_first_point_rule_fails_the_shape_check(self):
        def first_point(k):
            return np.stack([k[0], k[0], k[0]])
        k = np.array([1.0, 0.5, 0.7])
        with pytest.raises(PhotonGuideError, match=r"k has shape \(7, 3\), phi\(k\[None\]\) has shape \(3, 7, 3\)$"):
            po.apply_position(PositionKind.VECTOR, first_point, k, Scheme(h=1e-4))
        with pytest.raises(PhotonGuideError,
                           match=r"k has shape \(4, 7, 3\), phi\(k\[None\]\) has shape \(3, 4, 7, 3\)$"):
            po.apply_position(PositionKind.VECTOR, first_point, [k, 2.0 * k, 3.0 * k, 4.0 * k], Scheme(h=1e-4))


class TestSeamGuard:
    """apply_position guards the seam of the frame it applies: -k3 for the
    vector and f frames, +k3 for the reflected frame g(-k)."""

    def test_spinor_minus_rejects_the_plus_k3_seam(self):
        with pytest.raises(PhotonGuideError, match=r"^stencil at k=\[.*\] with h=0\.0001 reaches the k=0/seam region$"):
            po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, 1]], Scheme(1e-4),
                                   kind=PositionKind.SPINOR_MINUS)

    def test_spinor_minus_accepts_the_minus_k3_axis(self):
        res = po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, -1]], Scheme(1e-4),
                                     kind=PositionKind.SPINOR_MINUS)
        assert res <= 1e-8

    @pytest.mark.parametrize("kind", [PositionKind.VECTOR, PositionKind.SPINOR_PLUS])
    def test_other_frames_keep_the_minus_k3_seam(self, kind):
        with pytest.raises(PhotonGuideError, match=r"^stencil at k=\[.*\] with h=0\.0001 reaches the k=0/seam region$"):
            po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, -1]], Scheme(1e-4), kind=kind)
        assert po.eigenvalue_residual([0.3, 0.1, -0.2], +1, [[1e-5, 0, 1]], Scheme(1e-4), kind=kind) <= 1e-8


def nested_commutator_residual(kind, i, j, phi, k, scheme):
    """Reference: the commutator as nested apply_position calls, one inner
    application per ordering, each keeping a single row of x phi."""
    k = np.asarray(k, dtype=float)
    value = np.asarray(phi(k), dtype=complex)

    def component(c):
        return lambda q: po.apply_position(kind, phi, q, scheme)[..., c, :]

    xi_xj = po.apply_position(kind, component(j), k, scheme)[..., i, :]
    xj_xi = po.apply_position(kind, component(i), k, scheme)[..., j, :]
    return np.linalg.norm(xi_xj - xj_xi, axis=-1) / np.linalg.norm(value, axis=-1)


class TestCommutatorSharesInnerApplication:
    """commutator_residual applies x to phi once, with all three rows, and
    the outer operator once on those three rows stacked, both from one frame
    evaluation that also gives phi."""

    def test_one_frame_one_inner_and_one_outer_application(self, monkeypatch):
        applies = []
        apply = po._apply

        def counting(kind, values, u, k, *rest):
            applies.append((np.shape(values), u.shape))
            return apply(kind, values, u, k, *rest)

        monkeypatch.setattr(po, "_apply", counting)
        frames = count_frames(monkeypatch)
        ks = np.array(sample_k(np.random.default_rng(40), 3))
        po.commutator_residual([0.3, -0.2, 0.4], +1, ks, Scheme(h=1e-3, order=4), PositionKind.VECTOR)
        # The frame on the 13 x 13 nested points of each k.  Inner: phi on
        # those points.  Outer: the three stacked rows on the 13 points of
        # each k, with the frame's centre slice.
        assert frames == [(PositionKind.VECTOR, (3, 13, 13, 3))]
        assert applies == [((3, 13, 13, 3), (3, 13, 13, 3, 3)), ((3, 3, 13, 3), (3, 13, 3, 3))]

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_one_frame_for_phi_and_the_operator(self, kind, monkeypatch):
        # phi's values and the operator's frame come from one frame
        # evaluation on the nested points; the naive variant's is the vector
        # frame of its family.
        ks = kernel_points(np.random.default_rng(45), 5, kind)
        frames = count_frames(monkeypatch)
        po.commutator_residual([0.3, -0.2, 0.4], +1, ks, Scheme(h=1e-3), kind)
        family = PositionKind.VECTOR if kind is PositionKind.NAIVE else kind
        assert frames == [(family, (5, 7, 7, 3))]

    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_x0_is_one_centre(self, kind):
        # Seven centres would broadcast against the 7 x 7 nested points of
        # an order-2 stencil without an error.
        ks = kernel_points(np.random.default_rng(46), 7, kind)
        with pytest.raises(ValueError, match=r"shape \(3,\), got \(7, 3\)"):
            po.commutator_residual(np.zeros((7, 3)), +1, ks, Scheme(h=1e-3), kind)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", list(PositionKind))
    def test_bitwise_equal_to_nested_reference(self, kind, order):
        rng = np.random.default_rng(41)
        x0, lam = [1.0, -2.0, 0.5], +1
        phi = po.localized(kind, x0, lam)
        ks = kernel_points(rng, 8, kind)
        for h in (1e-3, 5e-4):
            scheme = Scheme(h=h, order=order)
            got = po.commutator_residual(x0, lam, ks, scheme, kind)
            one = po.commutator_residual(x0, lam, ks[3], scheme, kind)
            assert got.shape == (8, 3) and one.shape == (3,)
            for column, (i, j) in enumerate(PAIRS):
                assert np.array_equal(got[:, column], nested_commutator_residual(kind, i, j, phi, ks, scheme))
                assert one[column] == nested_commutator_residual(kind, i, j, phi, ks[3], scheme)
            # The reversed pair has the same norm: (2, 0) is column 1.
            assert np.array_equal(got[:, 1], nested_commutator_residual(kind, 2, 0, phi, ks, scheme))


class TestFormedOnce:
    """What the module and a Scheme fix is formed once, as the values the
    Python spellings they replace give, bit for bit; the scheme's arrays are
    no dataclass fields."""

    @pytest.mark.parametrize("name, value, dtype", [("_ZERO", 0.0, float), ("_TWO", 2.0, float),
                                                    ("_I", 1j, complex), ("_MINUS_I", -1j, complex)])
    def test_zero_d_constants(self, name, value, dtype):
        constant = getattr(po, name)
        assert constant.shape == () and constant.dtype == dtype
        assert constant.tobytes() == np.array(value, dtype=dtype).tobytes()

    def test_minus_i_keeps_its_negative_zero(self):
        # -1j is -(0 + 1j): its real part is -0.0.
        assert po._MINUS_I.tobytes() == np.array([-0.0, -1.0]).tobytes()

    def test_kind_aliases_are_the_members(self):
        aliases = (po._NAIVE, po._VECTOR, po._SPINOR_PLUS, po._SPINOR_MINUS)
        assert all(alias is member for alias, member in zip(aliases, PositionKind, strict=True))

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("h", [1e-4, 5e-4, 1e-3, 0.3, 1, np.float32(1e-3)])
    def test_scheme_arrays(self, h, order):
        scheme = Scheme(h, order)
        assert scheme._steps.tobytes() == (h * po._OFFSETS[order]).tobytes()
        reach = h if order == 2 else 2.0 * h
        assert scheme._guard.shape == () and scheme._guard == 10.0 * h + reach
        # The quotient by the stored denominator is the quotient by 2 h or 12 h.
        values = RNG.standard_normal((4, 13, 3)) + 1j * RNG.standard_normal((4, 13, 3))
        assert (values / scheme._denominator).tobytes() == (values / ((2.0 if order == 2 else 12.0) * h)).tobytes()

    def test_scheme_fields_equality_hash_and_repr(self):
        assert [field.name for field in dataclasses.fields(Scheme)] == ["h", "order"]
        assert Scheme(1e-4) == Scheme(1e-4, 2) and Scheme(1e-4) != Scheme(1e-4, 4)
        assert hash(Scheme(1e-3, 4)) == hash((1e-3, 4))
        assert repr(Scheme(1e-3, 4)) == "Scheme(h=0.001, order=4)"
        assert dataclasses.replace(Scheme(1e-3), order=4)._steps.tobytes() == Scheme(1e-3, 4)._steps.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            Scheme(1e-3).h = 1e-4

    def test_seam_distance_is_the_where_formula(self):
        ks = np.concatenate([open_side_points(np.random.default_rng(55), 20, kind) for kind in PositionKind])
        ks = np.concatenate([ks, [[0.0, -0.0, -0.0], [3.0, 4.0, np.nan], [np.nan, 0.0, -1.0], [0.0, 0.0, np.inf]]])
        for k in (ks, ks[0], ks[-3], ks.reshape(2, -1, 3)):
            r = mb._norm(k)
            expected = np.where(k[..., 2] <= 0.0, np.hypot(k[..., 0], k[..., 1]), r)
            assert np.asarray(po._seam_distance(k, r)).tobytes() == expected.tobytes()
