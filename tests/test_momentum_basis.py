"""Tests for polarization triads, helicity vectors, spinors and the
momentum-space scalar product."""

import math
import sys

import numpy as np
import pytest

from photonguide import momentum_basis as mb
from photonguide import position_operator as po
from photonguide.errors import PhotonGuideError

RNG = np.random.default_rng(20240817)


def eps_row(k, lam):
    """eps(k, lam): row lam of the polarization triad."""
    return mb.polarization_triad(k)[..., mb._row(lam), :]


def f_row(k, lam):
    """f(k, lam): row lam of the f spinor frame."""
    return mb.spinor_frame(k, "f")[..., mb._row(lam), :]


def g_row(k, lam):
    """g(k, lam): row lam of the g spinor frame."""
    return mb.spinor_frame(k, "g")[..., mb._row(lam), :]


def index_sum(a, b):
    """Reference: sum_i a_i b_i over the last axis of a and b, each product
    formed on its own and the terms added one by one in index order; it does
    not call momentum_basis._dot."""
    terms = [a[..., i] * b[..., i] for i in range(np.shape(a)[-1])]
    return sum(terms[1:], terms[0])


def python_dot(x, y):
    """Reference: x0*y0 + x1*y1 + ... on Python floats, added in index order."""
    total = x[0] * y[0]
    for i in range(1, len(x)):
        total = total + x[i] * y[i]
    return total


class TestDot:
    """_dot is the one contraction of the k-space products: its bits are
    those of the scalar formula, products added in index order."""

    @pytest.mark.parametrize("n", [3, 6])
    def test_real_rows_are_the_python_float_formula(self, n):
        rng = np.random.default_rng(70 + n)
        a, b = rng.standard_normal((2, 300, n)) * 10.0 ** rng.integers(-8, 8, (2, 300, n))
        expected = [python_dot(x, y).hex() for x, y in zip(a.tolist(), b.tolist())]
        assert [v.hex() for v in mb._dot(a, b).tolist()] == expected

    def test_omega_is_the_python_float_formula(self):
        for k in RNG.uniform(-5.0, 5.0, (300, 3)).tolist():
            got = mb.omega(k)
            assert isinstance(got, float) and got.hex() == math.sqrt(k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).hex()

    @pytest.mark.parametrize("shapes", [((3,), (3,)), ((40, 6), (40, 6)), ((4, 1, 3, 6), (1, 5, 1, 6)),
                                        ((7, 3, 3), (7, 1, 3))])
    def test_complex_broadcast_is_the_index_sum(self, shapes):
        rng = np.random.default_rng(72)
        a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in shapes)
        got, expected = mb._dot(a, b), index_sum(a, b)
        assert np.shape(got) == np.shape(expected) == np.broadcast_shapes(*shapes)[:-1]
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("scanned, shapes", [
        (True, ((3,), (3,))), (True, ((5, 3), (1, 3))), (True, ((2, 3, 1, 6), (1, 2, 6))),
        (False, ((400, 3), (400, 3))), (False, ((40, 3, 1, 3), (40, 1, 3, 3))), (False, ((30, 3, 6), (30, 1, 6))),
    ])
    def test_both_spellings_are_the_index_order_sum(self, scanned, shapes, dtype, monkeypatch):
        # The size of the product array picks the spelling; each spelling,
        # forced on either side of the rule, gives the reference's bytes:
        # the Python-float formula for real rows, the per-column numpy
        # products added in index order for complex ones.
        shape = np.broadcast_shapes(*shapes)
        assert (math.prod(shape) <= mb._SCAN_MAX) == scanned
        rng = np.random.default_rng(74)
        a, b = (rng.standard_normal(s) * 10.0 ** rng.integers(-8, 8, s) for s in shapes)
        if dtype is complex:
            a, b = a + 1j * rng.standard_normal(a.shape), b + 1j * rng.standard_normal(b.shape)
            expected = np.asarray(index_sum(a, b))
        else:
            rows = zip(*(np.broadcast_to(x, shape).reshape(-1, shape[-1]).tolist() for x in (a, b)))
            expected = np.array([python_dot(x, y) for x, y in rows]).reshape(shape[:-1])
        got = [np.asarray(mb._dot(a, b))]
        for limit in (0, sys.maxsize):
            monkeypatch.setattr(mb, "_SCAN_MAX", limit)
            got.append(np.asarray(mb._dot(a, b)))
        assert [(x.shape, x.dtype, x.tobytes()) for x in got] == [(expected.shape, expected.dtype,
                                                                   expected.tobytes())] * 3


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
        with pytest.raises(PhotonGuideError, match=r"^polarization triad undefined for p = 0$"):
            mb.rotated_triad([0.0, 0.0, 0.0])


class TestHelicityPolarization:
    def test_longitudinal_is_unit_k(self):
        assert np.allclose(eps_row([0, 0, 1], 0), [0, 0, 1])
        k = np.array([1.2, -0.4, 0.9])
        assert np.allclose(eps_row(k, 0), k / np.linalg.norm(k))

    def test_plus_helicity_on_axis(self):
        eps = eps_row([0, 0, 1], +1)
        assert np.allclose(eps, -np.array([1, 1j, 0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("lam", [-1, +1])
    def test_curl_eigenvector(self, lam):
        for _ in range(50):
            k = RNG.uniform(-5, 5, 3)
            if np.linalg.norm(k) < 1e-3:
                continue
            khat = k / np.linalg.norm(k)
            eps = eps_row(k, lam)
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
                diff = eps_row(k + step, lam) - eps_row(k, lam)
                worst = max(worst, np.linalg.norm(diff) / 1e-5)
        assert worst < 1e3


class TestSpinors:
    def test_zero_helicity_blocks(self):
        k = np.array([0.3, 0.4, 1.2])
        eps = eps_row(k, 0)
        f = f_row(k, 0)
        g = g_row(k, 0)
        assert np.allclose(f, np.concatenate([eps, np.zeros(3)]))
        assert np.allclose(g, np.concatenate([np.zeros(3), eps]))

    def test_plus_helicity_halves(self):
        k = np.array([0.3, 0.4, 1.2])
        eps = eps_row(k, +1)
        f = f_row(k, +1)
        assert np.allclose(f, np.concatenate([eps, eps]) / np.sqrt(2))

    @pytest.mark.parametrize("lam", [-1, 0, +1])
    def test_unit_norm(self, lam):
        k = np.array([-0.7, 1.1, 0.5])
        assert abs(np.linalg.norm(f_row(k, lam)) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(g_row(k, lam)) - 1.0) <= 1e-14


def zeros(n):
    """The zero wavefunction with n components, as a rule on (..., 3)."""
    return lambda k: np.zeros(k.shape[:-1] + (n,), complex)


def random_rule(rng):
    """c0 + c1 k1 + c2 sin(k2) + c3 k3^2 with random complex 3-vectors c."""
    c = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    return lambda k: c[0] + c[1] * k[..., 0, None] + c[2] * np.sin(k[..., 1, None]) + c[3] * k[..., 2, None] ** 2


def reference_scalar_product(phi1, phi2, points):
    """Reference: the per-point np.vdot loop, one k of shape (3,) at a time."""
    total = 0.0 + 0.0j
    for k in points:
        k = np.asarray(k, dtype=float)
        total += np.vdot(np.asarray(phi1(k), dtype=complex), np.asarray(phi2(k), dtype=complex)) / mb.omega(k)
    return complex(total)


def counting(rule, calls):
    """rule, logging the shape of every k it is called with."""
    def wrapped(k):
        calls.append(np.shape(k))
        return rule(k)
    return wrapped


class TestScalarProduct:
    def lattice(self):
        return [np.array(v, float) for v in
                [(1, 0, 0), (0, 1, 1), (1, 1, 2), (-1, 0.5, 0.3), (2, -1, 1)]]

    def test_zero_wavefunction(self):
        assert mb.scalar_product(zeros(3), zeros(3), self.lattice()) == 0

    def test_unit_weight_counts_points(self):
        # Each term contributes omega * (1/omega) = 1.
        def phi(k):
            return np.sqrt(mb.omega(k))[..., None] * eps_row(k, +1)
        points = self.lattice()
        value = mb.scalar_product(phi, phi, points)
        assert abs(value - len(points)) <= 1e-12

    def test_conjugate_symmetry(self):
        points = self.lattice()
        for _ in range(10):
            phi1, phi2 = random_rule(RNG), random_rule(RNG)
            lhs = mb.scalar_product(phi1, phi2, points)
            rhs = mb.scalar_product(phi2, phi1, points)
            assert abs(lhs - np.conj(rhs)) <= 1e-12 * (1 + abs(lhs))

    def test_positive_definite(self):
        def phi(k):
            return np.stack([k[..., 0], 1j * k[..., 1], np.full(k.shape[:-1], 0.5)], axis=-1)
        value = mb.scalar_product(phi, phi, self.lattice())
        assert value.real > 0 and abs(value.imag) <= 1e-14

    def test_mixed_component_count_rejected(self):
        with pytest.raises(PhotonGuideError, match=r"^cannot pair 3- and 6-component wavefunctions$"):
            mb.scalar_product(zeros(3), zeros(6), self.lattice())

    def test_matches_pointwise_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            points = rng.uniform(-3, 3, (rng.integers(1, 40), 3))
            phi1, phi2 = random_rule(rng), random_rule(rng)
            expected = reference_scalar_product(phi1, phi2, points)
            assert abs(mb.scalar_product(phi1, phi2, points) - expected) <= 1e-14 * abs(expected)

    def test_each_rule_is_called_once_on_all_points(self):
        calls1, calls2 = [], []
        points = self.lattice()
        mb.scalar_product(counting(random_rule(RNG), calls1), counting(random_rule(RNG), calls2), points)
        assert calls1 == calls2 == [(1, len(points), 3)]

    def test_zero_momentum_rejected_before_evaluation(self):
        calls = []
        with pytest.raises(PhotonGuideError, match=r"^scalar-product lattice must exclude k = 0$"):
            mb.scalar_product(counting(zeros(3), calls), zeros(3), self.lattice() + [np.zeros(3)])
        assert calls == []

    def test_one_point_rule_rejected(self):
        # Indexing k[j] reads a point, not a component.  The rule is called
        # on k[None], whose leading axis has length 1, so k[1] fails.
        def one_point(k):
            return np.array([k[0], k[1], 0.5 * k[2]])
        with pytest.raises(IndexError):
            mb.scalar_product(one_point, one_point, self.lattice())

    def test_one_point_rule_on_three_points_rejected(self):
        # A shape check on the rule's own k passed this: 3 points, a product
        # of 2.526 and no error.
        def one(k):
            return np.array([k[0], k[1], 0.5 * k[2]])
        pts = [[0.3, -0.2, 0.9], [1.1, 0.4, -0.6], [-0.5, 0.8, 0.2]]
        with pytest.raises(IndexError):
            mb.scalar_product(one, one, pts)

    @pytest.mark.parametrize("npoints", [3, 5])
    def test_first_point_rule_fails_the_shape_check(self, npoints):
        # A rule that reads only k[0] gets the whole array and returns one
        # axis too many.
        def first_point(k):
            return np.stack([k[0], k[0], 0.5 * k[0]])
        points = self.lattice()[:npoints]
        with pytest.raises(PhotonGuideError,
                           match=rf"k has shape \({npoints}, 3\), phi\(k\[None\]\) has shape \(3, {npoints}, 3\)$"):
            mb.scalar_product(first_point, first_point, points)


def transverse(triad, lam):
    """Reference: eps(k, lam) for lam = +-1 from the triad rows, one helicity
    at a time with an int lam."""
    return -lam * (triad[..., 0, :] + 1j * lam * triad[..., 1, :]) / np.sqrt(2.0)


def reference_rotated_triad(p):
    """Reference: the triad with |p|^2 = p1 p1 + p2 p2 + p3 p3 and rho^2 =
    u1 u1 + u2 u2 each summed in index order, and the any/all tests of the
    branches, on p of any batch shape."""
    p = np.asarray(p, dtype=float)
    r = np.sqrt(p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1] + p[..., 2] * p[..., 2])
    if not r.all():
        raise PhotonGuideError("p = 0")
    u = p / r[..., None]
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    rho2 = u1 * u1 + u2 * u2
    q = 1.0 + u3
    below = u3 < 0.0
    if below.any():
        q = np.where(below, rho2 / (1.0 - np.minimum(u3, 0.0)), q)
    on_axis = rho2 == 0.0
    if on_axis.any():
        q = np.where(on_axis, 1.0, q)
    triad = np.empty(p.shape + (3,))
    triad[..., :2, :2] = np.eye(2) - (u[..., :2, None] * u[..., None, :2]) / q[..., None, None]
    triad[..., :2, 2] = -u[..., :2]
    triad[..., 2, :] = u
    if on_axis.any():
        axis_triads = np.array([np.diag([-1.0, 1.0, -1.0]), np.eye(3)])
        triad[on_axis] = axis_triads[(u3[on_axis] > 0.0).astype(int)]
    return triad


def reference_polarization_triad(k):
    """Reference: the rows lam = -1, 0, +1 set one at a time, the transverse
    ones from two calls of ``transverse``."""
    triad = mb.rotated_triad(k)
    eps = np.empty(triad.shape, dtype=complex)
    eps[..., 0, :] = transverse(triad, -1)
    eps[..., 1, :] = triad[..., 2, :]
    eps[..., 2, :] = transverse(triad, +1)
    return eps


def reference_spinor_frame(k, branch):
    """Reference: the two halves of the reference polarization triad
    concatenated, then divided by the complex norms sqrt(1 + lam^2)."""
    eps = reference_polarization_triad(k)
    scaled = np.array(mb.HELICITIES, dtype=complex)[:, None] * eps
    halves = [eps, scaled] if branch == "f" else [scaled, eps]
    norms = np.sqrt(1.0 + np.array(mb.HELICITIES, dtype=float) ** 2)[:, None].astype(complex)
    return np.concatenate(halves, axis=-1) / norms


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
        *[lambda k, lam=lam: eps_row(k, lam) for lam in mb.HELICITIES],
        *[lambda k, lam=lam: f_row(k, lam) for lam in mb.HELICITIES],
        *[lambda k, lam=lam: g_row(k, lam) for lam in mb.HELICITIES],
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
            eps = triad[:, 2].astype(complex) if lam == 0 else transverse(triad, lam)
            scaled, norm = lam * eps, np.sqrt(1.0 + lam * lam)
            f = np.concatenate([eps, scaled], axis=-1) / norm
            g = np.concatenate([scaled, eps], axis=-1) / norm
            assert same(mb.polarization_triad(self.points)[:, row], eps)
            assert same(mb.spinor_frame(self.points, "f")[:, row], f)
            assert same(mb.spinor_frame(self.points, "g")[:, row], g)

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
        assert f_row(grid, +1).shape == (2, 4, 3, 6)
        assert mb.omega(grid).shape == (2, 4, 3)
        assert isinstance(mb.omega([3.0, 4.0, 0.0]), float)

    @pytest.mark.parametrize("shape", [(2,), (6,), (3, 2), (4, 6)])
    def test_last_axis_of_3_required(self, shape):
        # The kernels flatten their input to a stack of points; a last axis
        # other than 3 is rejected, not reshaped into other points.
        k = np.ones(shape)
        for kernel in (mb.rotated_triad, mb.polarization_triad, lambda k: mb.spinor_frame(k, "g"),
                       lambda k: po._frame(po.PositionKind.SPINOR_PLUS, k, mb.omega(k))):
            with pytest.raises(ValueError, match=r"points must have shape \(\.\.\., 3\)"):
                kernel(k)

    @pytest.mark.parametrize("row", [0, 57, 199])
    def test_any_zero_row_rejected(self, row):
        points = self.points.copy()
        points[row] = 0.0
        with pytest.raises(PhotonGuideError, match=r"^polarization triad undefined for p = 0$"):
            mb.rotated_triad(points)
        with pytest.raises(PhotonGuideError, match=r"^polarization triad undefined for p = 0$"):
            mb.polarization_triad(points)


# On the k3 axis with both signs of k3 (signed zeros in k1, k2 included), and
# 1e-9 off it on both sides.
AXIS_POINTS = [[0.0, 0.0, 1.3], [0.0, 0.0, -0.7], [-0.0, 0.0, 2.0], [0.0, -0.0, -2.0], [-0.0, -0.0, 0.4],
               [1e-9, 0.0, 1.0], [0.0, -1e-9, -1.0], [1e-9, 1e-9, 0.5], [-1e-9, 0.0, -0.5], [1e-9, -1e-9, -3.0]]


class TestFramesAgainstReferenceFormulas:
    """The triad, polarization and spinor kernels give the bits of the
    formulas they replace, signed zeros included, for one point of shape
    (3,) and for stacks."""

    points = np.concatenate([AXIS_POINTS, np.random.default_rng(20261019).uniform(-3, 3, (40, 3))])

    @staticmethod
    def pairs():
        return [(mb.rotated_triad, reference_rotated_triad),
                (mb.polarization_triad, reference_polarization_triad),
                (lambda k: mb.spinor_frame(k, "f"), lambda k: reference_spinor_frame(k, "f")),
                (lambda k: mb.spinor_frame(k, "g"), lambda k: reference_spinor_frame(k, "g"))]

    @pytest.mark.parametrize("pair", range(4))
    def test_one_point(self, pair):
        kernel, reference = self.pairs()[pair]
        for k in self.points:
            got, expected = kernel(k), reference(k)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), k

    @pytest.mark.parametrize("pair", range(4))
    def test_stacks(self, pair):
        kernel, reference = self.pairs()[pair]
        for shape in [(1, 3), (len(self.points), 3), (5, 10, 3), (2, 1, 25, 3)]:
            k = self.points[:math.prod(shape[:-1])].reshape(shape)
            got, expected = kernel(k), reference(k)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), shape

    def test_reference_triad_is_the_parent_formula(self):
        # The reference itself: the identity triad on +k3, the limit triad
        # on -k3, and a triad of the documented closed form elsewhere.
        assert reference_rotated_triad([0.0, 0.0, 2.0]).tobytes() == np.eye(3).tobytes()
        assert np.array_equal(reference_rotated_triad([0.0, 0.0, -2.0]), np.diag([-1.0, 1.0, -1.0]))
        k = np.array([0.3, -1.2, 0.8])
        assert np.allclose(reference_rotated_triad(k), quotient_triad(k), rtol=0, atol=1e-15)



class TestFormedOnce:
    """The 0-d constants of the frame kernels are, bit for bit, the Python
    numbers they stand for, cast as numpy casts those; the helicity rows
    are a lookup that keeps the old error."""

    @pytest.mark.parametrize("name, value, dtype", [("_ZERO", 0.0, float), ("_ONE", 1.0, float),
                                                    ("_SQRT2", np.sqrt(2.0), complex)])
    def test_zero_d_constants(self, name, value, dtype):
        constant = getattr(mb, name)
        assert constant.shape == () and constant.dtype == dtype
        assert constant.tobytes() == np.array(value, dtype=dtype).tobytes()

    def test_rows(self):
        assert [mb._row(lam) for lam in mb.HELICITIES] == [0, 1, 2]
        assert [mb._row(lam) for lam in (np.int64(-1), 0.0, True)] == [0, 1, 2]
        for bad in (2, -2, 0.5, None, "+1", [1]):
            with pytest.raises(ValueError, match=r"helicity must be -1, 0 or \+1"):
                mb._row(bad)
