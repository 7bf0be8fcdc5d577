"""The batched evaluations inside the verification suites against the
one-point-at-a-time code they replace, the column draws of the mode loops
against numpy's column calls, the boost-minimum search against the closed
form, the ladder oracles against the calls they replace, the fock suite's X
residuals against the whole-matrix forms, and the flagship run's stdout
pinned byte for byte (seed 0) and by one sha256 per suite (seeds 1-9 here,
0-99 with ``python tests/test_verify.py``)."""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from photonguide import cli
from photonguide import dirac_like as dl
from photonguide import momentum_basis as mb
from photonguide import second_quantization as sq
from photonguide import verify
from photonguide import waveguide_kinematics as wk
from test_momentum_basis import index_sum

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_all_seed0.txt")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_all_digests.txt")
X_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fock_x_digests.txt")


def sequential_sample_k(rng, low=-5.0, high=5.0, min_norm=1e-6):
    """The reference: one row per draw until one passes."""
    while True:
        k = rng.uniform(low, high, 3)
        if np.linalg.norm(k) > min_norm:
            return k


def sequential_offseam_k(rng, min_dist=0.5):
    """The reference: one row per draw until one lies in the ball |k| <= 3
    at least min_dist from the origin and the seam."""
    while True:
        k = rng.uniform(-3.0, 3.0, 3)
        if verify.singular_distance(k) >= min_dist and mb._norm(k) <= 3.0:
            return k


def sequential_commutator_k(rng, hc=1e-3):
    """The reference: off-seam rows at 0.5 until one lies 14 hc or more from
    the mirrored seam, spinor_minus's on +k3."""
    while True:
        k = sequential_offseam_k(rng)
        if verify.singular_distance(-k) >= 14.0 * hc:
            return k


def commutator_keep(monkeypatch):
    """The keep with which the position suite draws its commutator points,
    its last _sample_k call."""
    keeps, sample_k = [], verify._sample_k

    def recording(rng, n, side, keep):
        keeps.append(keep)
        return sample_k(rng, n, side, keep)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_sample_k", recording)
        verify.position_suite(seed=0, h=1e-4, include_weight_term=True)
    return keeps[-1]


class CountingRng:
    """A generator proxy that counts its ``uniform`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def uniform(self, *args):
        self.calls += 1
        return self.rng.uniform(*args)


class TestBlockSampler:
    """verify's one k sampler, for each keep the suites pass it, against the
    one-row-at-a-time reference: the same rows, and the generator left where
    the reference leaves it."""

    @staticmethod
    def rounds(n, side, keep, reference, seed):
        """The rounds _sample_k takes, after asserting that its n rows and
        the generator state after them are the reference's."""
        ref_rng = np.random.default_rng([seed, 0])
        expected = np.array([reference(ref_rng) for _ in range(n)])
        rng = CountingRng(np.random.default_rng([seed, 0]))
        got = verify._sample_k(rng, n, side, keep)
        assert got.shape == (n, 3)
        assert np.array_equal(got, expected)
        assert rng.rng.bit_generator.state == ref_rng.bit_generator.state
        return rng.calls

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    @pytest.mark.parametrize("n, min_norm", [(1000, 1e-6), (60, 5.0), (25, 7.5)])
    def test_matches_sequential_sampler(self, seed, n, min_norm, monkeypatch):
        # The suites use the floor 1e-6; larger floors reach the rejection path.
        assert verify._MIN_NORM == 1e-6
        monkeypatch.setattr(verify, "_MIN_NORM", min_norm)
        rounds = self.rounds(n, 5.0, verify._nonzero, lambda rng: sequential_sample_k(rng, min_norm=min_norm), seed)
        if min_norm >= 5.0:
            # About half (|k| > 5) or 3 % (|k| > 7.5) of the cube passes, so
            # the rejected rows are drawn again over several rounds.
            assert rounds > 2

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    @pytest.mark.parametrize("n", [3, 50, 100, 500])
    @pytest.mark.parametrize("min_dist", [0.1, 0.5])
    def test_off_seam_keep(self, seed, n, min_dist):
        # About half the cube [-3, 3)^3 lies in the ball, so 50 rows or more
        # take several rounds.
        rounds = self.rounds(n, 3.0, verify._off_seam(min_dist), lambda rng: sequential_offseam_k(rng, min_dist),
                             seed)
        assert rounds > 2 or n == 3

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    @pytest.mark.parametrize("n", [3, 200])
    def test_commutator_keep(self, seed, n, monkeypatch):
        self.rounds(n, 3.0, commutator_keep(monkeypatch), sequential_commutator_k, seed)

    def test_commutator_keep_drops_the_mirrored_seam(self, monkeypatch):
        # 0.0105 and 0.0126 from the +k3 half-axis lie inside spinor_minus's
        # nested order-4 guard, 14 hc = 0.014; the last row is on the seam.
        ks = np.array([[0.0105, 0.0, 1.0], [0.0, 0.0126, 2.0], [0.02, 0.0, 1.0], [0.3, 0.4, 1.2], [0.0, 0.0, -1.0]])
        assert commutator_keep(monkeypatch)(ks).tolist() == [False, False, True, True, False]
        assert verify._off_seam(0.5)(ks).tolist() == [True, True, True, True, False]

    def test_zero_rows(self):
        rng = np.random.default_rng(3)
        assert verify._sample_k(rng, 0, 5.0, verify._nonzero).shape == (0, 3)
        assert rng.random() == np.random.default_rng(3).random()


def reference_mode(side, other_side, r, s):
    """Mode (r, s) of the guide whose sides are the two drawn, longer first."""
    b2, b1 = sorted((side, other_side))
    return wk.mode(wk.WaveguideSpec(b1, b2), r, s)


def reference_sample_mode(rng):
    """A mode by the scalar calls: the two sides by rng.uniform, then r and s
    by rng.integers."""
    return reference_mode(*rng.uniform(0.5, 3.0, 2).tolist(), int(rng.integers(1, 4)), int(rng.integers(0, 4)))


def mode_columns(rng, n):
    """The columns of n modes: both sides, then r, then s."""
    return [rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n), rng.integers(1, 4, n), rng.integers(0, 4, n)]


# Each mode-sampling loop: its layout, its row count and its columns by the
# calls the layout stands for, in draw order.
COLUMN_CALLS = {
    "kinematics": (verify._KINEMATICS_ROW, 1000, lambda rng, n: [
        *mode_columns(rng, n), rng.uniform(1e-3, 3.0, n), rng.uniform(0.0, 2.0 * math.pi, n)]),
    "invariance": (verify._INVARIANCE_ROW, 100, lambda rng, n: [
        *mode_columns(rng, n), rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 2.0 * math.pi, n),
        rng.uniform(-2.0, 2.0, n)]),
    "monotonicity": (verify._MONOTONICITY_ROW, 100, lambda rng, n: [
        rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n), rng.integers(1, 4, n), rng.integers(1, 4, n)]),
    "guided": (verify._GUIDED_ROW, 200, lambda rng, n: [
        *mode_columns(rng, n), rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 2.0 * math.pi, n)]),
}


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
@pytest.mark.parametrize("loop", list(COLUMN_CALLS))
def test_draw_rows_are_the_column_calls(loop, seed):
    layout, n, columns = COLUMN_CALLS[loop]
    rng, ref = np.random.default_rng([seed, 4]), np.random.default_rng([seed, 4])
    got = [[(type(v), v) for v in row] for row in verify._draw_rows(rng, n, layout)]
    expected = [[(type(v), v) for v in row] for row in zip(*(column.tolist() for column in columns(ref, n)))]
    assert len(got) == n and got == expected
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_uniform_columns_are_rng_uniform(seed):
    bounds = ((0.0, 5.0), (0.0, 2.0 * math.pi), (1e-3, 3.0), (-2.0, 2.0), (0.5, 3.0), (-1e300, 1e300))
    rng, ref = np.random.default_rng([seed, 4]), np.random.default_rng([seed, 4])
    rows = list(verify._draw_rows(rng, 500, bounds))
    for column, (lo, hi) in zip(zip(*rows), bounds, strict=True):
        assert all(type(v) is float for v in column)
        assert [v.hex() for v in column] == [v.hex() for v in ref.uniform(lo, hi, 500).tolist()]
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_guide_mode_is_the_reference_mode(seed):
    # _guide_mode puts the longer drawn side first, as reference_mode does.
    rng, ref = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
    for row, columns in zip(verify._draw_rows(rng, 500, verify._MODE_ROW), zip(*mode_columns(ref, 500)),
                            strict=True):
        got, expected = verify._guide_mode(*row), reference_mode(*(v.item() for v in columns))
        assert [got.spec.b1.hex(), got.spec.b2.hex(), got.r, got.s] == \
            [expected.spec.b1.hex(), expected.spec.b2.hex(), expected.r, expected.s]
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("loop", list(COLUMN_CALLS))
def test_a_buffered_half_is_taken_by_the_column_calls(loop):
    # After one rng.integers call PCG64 holds the word's upper half; the
    # integer columns take it as the column calls do.
    layout, n, columns = COLUMN_CALLS[loop]
    rng, ref = np.random.default_rng([6, 4]), np.random.default_rng([6, 4])
    assert int(rng.integers(0, 4)) == int(ref.integers(0, 4))
    assert rng.bit_generator.state["has_uint32"] == 1
    got = list(verify._draw_rows(rng, n, layout))
    assert got == list(zip(*(column.tolist() for column in columns(ref, n))))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_boost_minimum_is_the_closed_form():
    # E cosh(chi) - p sinh(chi) = m cosh(chi - asinh(p/m)) for E = hypot(m, p).
    rng = np.random.default_rng(11)
    for m, ratio in zip(rng.uniform(0.3, 3.0, 2000).tolist(), rng.uniform(-5.0, 5.0, 2000).tolist()):
        p = ratio * m
        minimum, chi = verify._boost_minimum(math.hypot(m, p), p)
        assert abs(minimum - m) <= 1e-13 * m
        assert abs(chi - math.asinh(p / m)) <= 1e-6


def rest_frame_pair(chi_star, m=1.0):
    return m * math.cosh(chi_star), m * math.sinh(chi_star)


def random_pairs(n=240):
    """Pairs of magnitude 2**-8 to 8: by turns both parts of random sign and
    size (convex, monotone or concave), rest-frame pairs with |chi*| up to 12
    scaled to E <= 3, and near-null pairs E = +-p (1 + d)."""
    rng = np.random.default_rng(7)
    pairs = []
    for i in range(n):
        if i % 3 == 0:
            pairs.append(tuple(rng.choice([-1.0, 1.0], 2) * 2.0 ** rng.uniform(-8.0, 3.0, 2)))
        elif i % 3 == 1:
            chi_star = rng.uniform(-12.0, 12.0)
            pairs.append(rest_frame_pair(chi_star, rng.uniform(0.3, 3.0) / math.cosh(chi_star)))
        else:
            energy = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0)
            pairs.append((energy, energy * rng.choice([-1.0, 1.0]) * (1.0 + rng.uniform(-1e-6, 1e-6))))
    return [(float(energy), float(p)) for energy, p in pairs]


CASES = {
    "suite": wk.dispersion(wk.mode(wk.WaveguideSpec(math.pi, math.pi / 2), 1, 0), math.sqrt(3.0)),
    "chi_star_zero": (1.0, 0.0),
    "chi_star_half": rest_frame_pair(0.5),
    "chi_star_minus_three": rest_frame_pair(-3.0),
    "near_stop": rest_frame_pair(9.99999),
    "near_start": rest_frame_pair(-9.99999),
    "beyond_stop": rest_frame_pair(12.0, 1.0 / math.cosh(12.0)),
    "beyond_start": rest_frame_pair(-12.0, 1.0 / math.cosh(12.0)),
    "p_above_e": (1.0, 2.0),
    "p_below_minus_e": (1.0, -2.0),
    "massless_forward": (1.0, 1.0),
    "massless_backward": (1.0, -1.0),
    "concave_right": (-2.0, 1.0),
    "concave_left": (-2.0, -1.0),
    "concave_even": (-1.0, 0.0),
    "near_null_forward": (1.0, 1.0 - 1e-6),
    "near_null_backward": (1.0, -(1.0 - 1e-6)),
    "top_of_sizes": (8.0, 0.0),
}

PAIRS = {**CASES, **{f"random_{n}": pair for n, pair in enumerate(random_pairs())}}


@pytest.mark.parametrize("case", list(PAIRS))
def test_boost_search_does_not_depend_on_the_scale(case):
    # A power of two scales every value of the search exactly, so the search
    # takes the same steps at every magnitude from 2**-900 to 2**990 and its
    # minimum scales bit for bit: unlike a grid, it has no domain of its own.
    energy, p = PAIRS[case]
    minimum, chi = verify._boost_minimum(energy, p)
    for k in (-900, -300, 300, 990):
        scale = 2.0 ** k
        got = verify._boost_minimum(scale * energy, scale * p)
        assert [v.hex() for v in got] == [(scale * minimum).hex(), chi.hex()]


@pytest.mark.parametrize("case", ["p_above_e", "p_below_minus_e", "massless_forward", "massless_backward",
                                  "beyond_stop", "beyond_start"])
def test_a_minimum_beyond_the_bracket_is_found_at_its_edge(case):
    # Where the function falls across [-10, 10] the search closes on the edge
    # it falls towards; near that edge the values agree to the rounding of
    # E cosh(10) and p sinh(10).
    energy, p = CASES[case]
    minimum, chi = verify._boost_minimum(energy, p)
    edge = math.copysign(10.0, p)
    assert abs(chi - edge) <= 1e-6
    assert abs(minimum - (energy * math.cosh(edge) - p * math.sinh(edge))) <= \
        1e-12 * (abs(energy) + abs(p)) * math.cosh(10.0)


def test_one_search_takes_66_values(monkeypatch):
    # Two values open the bracket and each step adds one, until the bracket
    # is under 1e-12 wide: 20 * 0.618**64 < 1e-12 <= 20 * 0.618**63.
    cosh, counted = math.cosh, []
    monkeypatch.setattr(math, "cosh", lambda chi: counted.append(chi) or cosh(chi))
    for energy, p in PAIRS.values():
        counted.clear()
        verify._boost_minimum(energy, p)
        assert len(counted) == 66


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (-math.inf, 0.0),
                                  (1.0, math.inf), (1.0, -math.inf), (math.inf, math.inf)])
def test_non_finite_pair_fails_both_boost_checks(pair, monkeypatch):
    search = verify._boost_minimum
    monkeypatch.setattr(verify, "_boost_minimum", lambda energy, p: search(*pair))
    checks = {c.name: c for c in verify.kinematics_suite(seed=0)}
    assert not checks["kinematics.boost_minimum"].passed
    assert not checks["kinematics.boost_minimizer"].passed


@pytest.mark.parametrize("shape, n_max", [((2, 1, 1), 2), ((3, 1, 1), 2), ((2, 1, 1), 3)])
def test_ladders_are_the_built_operators(shape, n_max):
    space = sq.FockSpace(sq.MomentumLattice(shape, spacing=1.0), n_max=n_max)
    annihilators, creators = verify._ladders(space)
    assert len(annihilators) == len(creators) == space.nmodes
    for m, (a, c) in enumerate(zip(annihilators, creators)):
        mode = (m // 3, mb.HELICITIES[m % 3])
        built = space.annihilate(*mode).toarray()
        for got, expected in ((a, built), (c, built.conj().T)):
            assert got.dtype == expected.dtype
            assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


def reference_fock_residuals(seed, space, ops):
    """fock.number_conserved, fock.one_photon_equivalence and
    fock.two_photon_additivity by the matrix route: [X, N] as two scipy
    products, 20 full-dimension matvecs per component, and the product pair
    placed through space.index."""
    rng = np.random.default_rng([seed, 2])
    lattice = space.lattice
    n_op = space.number_operator()
    number = max(float(abs(x @ n_op - n_op @ x).max()) for x in ops)
    equivalence = 0.0
    for _ in range(20):
        c = rng.standard_normal((lattice.npoints, 3)) + 1j * rng.standard_normal((lattice.npoints, 3))
        vec = space.one_photon_vector(c)
        stencil = 1j * sq.lattice_gradient(lattice, c.reshape(lattice.shape + (3,)))
        for axis in range(3):
            direct = stencil[axis].reshape(lattice.npoints, 3)
            via_fock = (ops[axis] @ vec)[space.offsets[1]:space.offsets[2]].reshape(lattice.npoints, 3)
            equivalence = max(equivalence, float(np.max(np.abs(direct - via_fock))))
    points = lattice.points
    ca = np.exp(-1j * points @ np.array([0.4, -0.2, 0.9])) / np.sqrt(lattice.npoints)
    cb = np.exp(-1j * points @ np.array([-0.7, 0.3, 0.1])) / np.sqrt(lattice.npoints)
    coeff_a = np.zeros((lattice.npoints, 3), dtype=complex)
    coeff_b = np.zeros((lattice.npoints, 3), dtype=complex)
    coeff_a[:, 2] = ca
    coeff_b[:, 0] = cb
    pair = np.zeros(space.dim, dtype=complex)
    for pa in range(lattice.npoints):
        mu = space.mode_index(pa, +1)
        for pb in range(lattice.npoints):
            nu = space.mode_index(pb, -1)
            pair[space.index[(mu, nu) if mu <= nu else (nu, mu)]] = ca[pa] * cb[pb]
    additivity = max(abs(sq.expectation(x, pair) - (sq.expectation(x, space.one_photon_vector(coeff_a))
                                                    + sq.expectation(x, space.one_photon_vector(coeff_b))))
                     for x in ops)
    return {"fock.number_conserved": number, "fock.one_photon_equivalence": equivalence,
            "fock.two_photon_additivity": additivity}


def fock_residuals_with_their_x(monkeypatch, seed, change=None):
    """fock_suite's residuals by name, the space it built X on and that X,
    after change(space, ops) if given."""
    built = []
    position_operators = sq.FockSpace.position_operators

    def recording(space):
        ops = position_operators(space)
        if change is not None:
            ops = change(space, ops)
        built.append((space, ops))
        return ops

    monkeypatch.setattr(sq.FockSpace, "position_operators", recording)
    residuals = {c.name: c.residual for c in verify.fock_suite(seed=seed)}
    (space, ops), = built
    return residuals, space, ops


@pytest.mark.parametrize("seed", range(10))
def test_fock_checks_equal_the_matrix_route(monkeypatch, seed):
    residuals, space, ops = fock_residuals_with_their_x(monkeypatch, seed)
    for name, expected in reference_fock_residuals(seed, space, ops).items():
        assert residuals[name].hex() == float(expected).hex(), name


def test_entrywise_number_commutator_is_the_product_form_off_sector(monkeypatch):
    # One entry of X_x from a two-photon to a one-photon state: [X, N] is
    # nonzero there, and the entrywise form equals the two scipy products.
    def leak(space, ops):
        x = ops[0].tolil()
        x[space.offsets[1] + 4, space.offsets[2] + 7] = 0.3 - 0.7j
        return [x.tocsr(), *ops[1:]]

    residuals, space, ops = fock_residuals_with_their_x(monkeypatch, 0, leak)
    expected = reference_fock_residuals(0, space, ops)["fock.number_conserved"]
    assert expected == abs(0.3 - 0.7j)
    assert residuals["fock.number_conserved"].hex() == expected.hex()


def reference_x_residuals(ops, n):
    """fock.position_hermitian, fock.components_commute and
    fock.number_conserved by the whole-matrix forms: the scipy max of a |D|
    matrix for the first two, the rows of [X, N] from tocoo()."""
    hermitian = verify._worst([float(abs(x - x.conj().T).max()) for x in ops])
    commuting = verify._worst([float(abs(ops[i] @ ops[j] - ops[j] @ ops[i]).max())
                               for i, j in ((0, 1), (0, 2), (1, 2))])
    number = verify._worst([verify._worst(np.abs(x.data * n[x.indices] - n[x.tocoo().row] * x.data)) for x in ops])
    return hermitian, commuting, number


def pinned_x_spaces():
    """(shape, n_max, spacing) of every space in fock_x_digests.txt, in file order."""
    with open(X_DIGESTS, encoding="ascii") as fh:
        keys = [line.split()[:3] for line in fh if not line.startswith("#")]
    cases = dict.fromkeys((tuple(int(e) for e in shape.split("x")), int(n_max), float(spacing))
                          for shape, n_max, spacing in keys)
    return list(cases)


@pytest.mark.parametrize("shape, n_max, spacing", pinned_x_spaces())
def test_x_residuals_equal_the_whole_matrix_forms(shape, n_max, spacing):
    # Every pinned X, including 4x3x3, the n <= 3 spaces and the spacings
    # whose entries overflow to inf in the products or in X n: the residuals
    # agree to the bit, nan included.
    space = sq.FockSpace(sq.MomentumLattice(shape, spacing=spacing), n_max=n_max)
    ops = space.position_operators()
    n = space.number_operator().diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        got = verify._x_residuals(ops, n)
        expected = reference_x_residuals(ops, n)
    assert [r.hex() for r in got] == [r.hex() for r in expected]


@pytest.mark.parametrize("shape, spacing", [((3, 3, 3), 1.0), ((4, 3, 3), 0.5)])
def test_x_residuals_of_a_broken_x_equal_the_whole_matrix_forms(shape, spacing):
    # One entry of X_x from a two-photon to a one-photon state, with no
    # mirror entry: X is no longer Hermitian, nor commutes, nor keeps N.
    space = sq.FockSpace(sq.MomentumLattice(shape, spacing=spacing), n_max=2)
    ops = space.position_operators()
    x = ops[0].tolil()
    x[space.offsets[1] + 4, space.offsets[2] + 7] = 0.3 - 0.7j
    ops = [x.tocsr(), *ops[1:]]
    n = space.number_operator().diagonal()
    got = verify._x_residuals(ops, n)
    expected = reference_x_residuals(ops, n)
    assert all(r > 0.0 for r in expected)
    assert [r.hex() for r in got] == [r.hex() for r in expected]


def test_row_half_products_are_the_rows_of_the_whole_product():
    # What the row-half commutator rests on: rows lo:hi of X_i X_j, with
    # their column order, from rows lo:hi of X_i alone.
    space = sq.FockSpace(sq.MomentumLattice((3, 3, 3), spacing=1.0), n_max=2)
    ops = space.position_operators()
    mid = int(np.searchsorted(ops[0].indptr, ops[0].nnz // 2))
    for i, j in ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)):
        x, whole = ops[i], ops[i] @ ops[j]
        for lo, hi in ((0, mid), (mid, space.dim)):
            rows = sp.csr_matrix((x.data[x.indptr[lo]:x.indptr[hi]], x.indices[x.indptr[lo]:x.indptr[hi]],
                                  x.indptr[lo:hi + 1] - x.indptr[lo]), shape=(hi - lo, space.dim)) @ ops[j]
            span = slice(whole.indptr[lo], whole.indptr[hi])
            assert np.array_equal(rows.indptr, whole.indptr[lo:hi + 1] - whole.indptr[lo])
            assert rows.indices.tobytes() == whole.indices[span].tobytes()
            assert rows.data.tobytes() == whole.data[span].tobytes()


def reference_guided_checks(seed, samples=1000):
    """dirac.guided_on_shell and dirac.off_shell_detected one point at a
    time, after the suite's k draws, from the guided loop's columns drawn in
    the suite's generator order, each residual the norm over the last axis
    of one vector whose entries are summed in index order."""
    rng = np.random.default_rng([seed, 3])
    for _ in range(samples):
        sequential_sample_k(rng)
    guided = 0.0
    detect = math.inf
    _, n, columns = COLUMN_CALLS["guided"]
    for side, other_side, r, s, k3, azimuth in zip(*(column.tolist() for column in columns(rng, n))):
        md = reference_mode(side, other_side, r, s)
        dec = wk.decompose(md, k3, azimuth)
        k_null = np.array(dec.k_mu[1:])
        for lam in (-1, +1):
            f = mb.spinor_frame(k_null, "f")[mb._row(lam)]
            guided = max(guided, float(np.linalg.norm(index_sum(dl.contracted(dec.k_mu.t, k_null), f), axis=-1)))
        k_bad = np.array(dec.k_L[1:]) + (1.0 + 1e-3) * md.mass * np.array(dec.eta[1:])
        f = mb.spinor_frame(k_bad, "f")[mb._row(+1)]
        bad = float(np.linalg.norm(index_sum(dl.contracted(dec.k_mu.t, k_bad), f), axis=-1))
        detect = min(detect, bad / md.mass)
    return guided, detect


@pytest.mark.parametrize("seed", range(10))
def test_batched_guided_checks_equal_per_point_loop(seed):
    checks = {c.name: c.residual for c in verify.dirac_suite(seed=seed)}
    guided, detect = reference_guided_checks(seed)
    assert checks["dirac.guided_on_shell"] == guided
    assert checks["dirac.off_shell_detected"] == detect


def reference_eigenvalue_checks(seed, h=1e-4):
    """position.eigenvalue_residual and its order deviation one (x0, lam, k)
    triple at a time, from the suite's draws one row at a time in its
    generator order, the 50 centres and then the 50 points: one call per
    triple and step, each with its own x0."""
    rng = np.random.default_rng([seed, 1])
    x0s = [rng.uniform(-2.0, 2.0, 3) for _ in range(50)]
    ks = [sequential_offseam_k(rng) for _ in range(50)]
    res_h = res_h2 = 0.0
    for t, (x0, k) in enumerate(zip(x0s, ks)):
        lam = mb.HELICITIES[t % 3]
        res_h = max(res_h, verify.eigenvalue_residual(x0, lam, [k], verify.Scheme(h)))
        res_h2 = max(res_h2, verify.eigenvalue_residual(x0, lam, [k], verify.Scheme(h / 2)))
    return res_h, abs(math.log2(res_h / res_h2) - 2.0)


@pytest.mark.parametrize("seed", range(5))
def test_batched_eigenvalue_checks_equal_per_draw_loop(seed):
    checks = {c.name: c.residual for c in verify.position_suite(seed=seed, h=1e-4, include_weight_term=True)}
    res_h, order_dev = reference_eigenvalue_checks(seed)
    assert checks["position.eigenvalue_residual"] == res_h
    assert checks["position.eigenvalue_order_dev"] == order_dev


@pytest.mark.parametrize("seed", [29893, 57113])
def test_commutator_points_keep_off_the_mirrored_seam(seed, capsys, monkeypatch):
    # Over seeds 0-59 999 only these two draw a commutator point that the
    # off-seam keep accepts and the mirrored-seam guard rejects: 0.0067 and
    # 0.0100 from the +k3 half-axis, inside spinor_minus's nested order-4
    # guard (0.014), where verify would report valid input as an error.  The
    # point is redrawn and the suite passes.
    rejected, sample_k = [], verify._sample_k

    def recording(rng, n, side, keep):
        def watched(rows):
            kept = keep(rows)
            rejected.extend(rows[~kept & verify._off_seam(0.5)(rows)])
            return kept

        return sample_k(rng, n, side, watched)

    monkeypatch.setattr(verify, "_sample_k", recording)
    assert cli.main(["verify", "--suite", "position", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.endswith("12/12 checks passed\n")
    assert [round(float(np.hypot(row[0], row[1])), 4) for row in rejected] == [{29893: 0.0067, 57113: 0.0100}[seed]]
    assert rejected[0][2] > 0.0


def test_position_suite_makes_one_call_per_helicity_step_and_variant_scheme(monkeypatch):
    # Eigenvalue: 3 helicities x 2 steps.  Commutator: the order-4 scheme for
    # each of the 4 variants, plus the order-2 pair at hc and hc/2 for the
    # 3 framed ones (the naive variant has no decay order to measure).
    calls = []

    def counting(name):
        fn = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    counting("eigenvalue_residual")
    counting("commutator_residual")
    verify.position_suite(seed=3, h=1e-4, include_weight_term=True)
    assert calls.count("eigenvalue_residual") == 6
    assert calls.count("commutator_residual") == 10


def test_suites_fix_their_own_sizes(monkeypatch):
    # The suites take a seed and no size: basis draws 1000 k in the cube of
    # side 5 and 100 Lipschitz points in the ball of radius 3, position 50
    # eigenvalue and 3 commutator points in that ball, dirac 1000 k in the
    # cube; kinematics checks 1000 modes in its main loop (one plane-wave pair
    # each), and fock builds X on the 3x3x3 lattice of spacing 1 with n <= 2.
    # Each mode is counted by the suite line that makes it: dirac's guided
    # loop 200; kinematics's main loop 1000, its invariance loop 100, the
    # three guides of its monotonicity loop 100 each, and its four fixed
    # modes, the SI cross-check's inside cutoff_frequency_hz, one each.
    draws, pairs, builds, modes = [], [], [], Counter()
    sample_k, plane_wave_pair, mode = verify._sample_k, wk.plane_wave_pair, wk.mode
    position_operators = sq.FockSpace.position_operators

    def counting_sample_k(rng, n, side, keep):
        draws.append((n, side))
        return sample_k(rng, n, side, keep)

    def counting_pairs(*args):
        pairs.append(args)
        return plane_wave_pair(*args)

    def counting_modes(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in ("dirac_suite", "kinematics_suite"):
            frame = frame.f_back
        modes[frame.f_code.co_name, frame.f_lineno] += 1
        return mode(*args)

    def recording_builds(space):
        builds.append((space.lattice, space.n_max))
        return position_operators(space)

    def per_line(suite):
        return sorted(n for (name, _), n in modes.items() if name == suite)

    monkeypatch.setattr(verify, "_sample_k", counting_sample_k)
    monkeypatch.setattr(wk, "plane_wave_pair", counting_pairs)
    monkeypatch.setattr(wk, "mode", counting_modes)
    monkeypatch.setattr(sq.FockSpace, "position_operators", recording_builds)
    verify.basis_suite(seed=42)
    verify.position_suite(seed=42, h=1e-4, include_weight_term=True)
    verify.dirac_suite(seed=42)
    assert draws == [(1000, 5.0), (100, 3.0), (50, 3.0), (3, 3.0), (1000, 5.0)]
    assert per_line("dirac_suite") == [200]
    verify.kinematics_suite(seed=42)
    assert len(pairs) == 1000
    assert per_line("kinematics_suite") == [1, 1, 1, 1, 100, 100, 100, 100, 1000]
    verify.fock_suite(seed=42)
    assert builds == [(sq.MomentumLattice((3, 3, 3), spacing=1.0), 2)]


def test_dirac_suite_evaluates_one_spinor_frame_per_momentum_set(monkeypatch):
    # Each of the 1 000 free k is in exactly one f frame, one frame per
    # block of 250, and the guided null momenta and their off-shell twins
    # take one frame each; every frame serves all its helicity rows.
    calls = []
    original = mb._spinor_frame

    def counting(k, r, branch):
        calls.append((branch, k.copy()))
        return original(k, r, branch)

    monkeypatch.setattr(mb, "_spinor_frame", counting)
    verify.dirac_suite(seed=3)
    free = verify._sample_k(np.random.default_rng([3, 3]), 1000, 5.0, verify._nonzero)
    *on_shell, guided, off_shell = calls
    assert {branch for branch, _ in calls} == {"f"}
    assert [k.shape for _, k in on_shell] == [(250, 3)] * 4
    assert Counter(row.tobytes() for _, k in on_shell for row in k) == Counter(row.tobytes() for row in free)
    assert len(set(row.tobytes() for row in free)) == 1000
    assert [guided[1].shape, off_shell[1].shape] == [(200, 3), (200, 3)]


def test_connection_identity_evaluates_one_triad_per_point_set(monkeypatch):
    # The full-frame check on its five points and the truncated control on
    # its one: every helicity row from one triad on k and its stencil points.
    from photonguide import position_operator as po

    frames, inside = [], []
    original_frame, original_residual = po._frame, verify.connection_identity_residual

    def counting_frame(kind, k, w):
        if inside:
            frames.append((kind, k.shape))
        return original_frame(kind, k, w)

    def tracking(*args, **kwargs):
        inside.append(True)
        try:
            return original_residual(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(po, "_frame", counting_frame)
    monkeypatch.setattr(verify, "connection_identity_residual", tracking)
    verify.position_suite(seed=3, h=1e-4, include_weight_term=True)
    assert frames == [(po.PositionKind.VECTOR, (5, 7, 3)), (po.PositionKind.VECTOR, (7, 3))]


class TestNonFiniteResiduals:
    """A nan residual, from a step too small for the stencil say, fails its
    check: the reductions keep it, and no order rule turns it into a pass."""

    @pytest.mark.parametrize("direction", ["below", "above"])
    @pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
    def test_check_fails(self, residual, direction):
        assert not verify.CheckResult("x", residual, 1.0, direction).passed

    def test_finite_checks_are_unchanged(self):
        assert verify.CheckResult("x", 1.0, 1.0).passed
        assert not verify.CheckResult("x", 1.0, 1.0, "above").passed
        assert verify.CheckResult("x", 2.0, 1.0, "above").passed

    def test_worst_keeps_nan(self):
        assert math.isnan(verify._worst([0.5, math.nan, 0.1]))
        assert verify._worst([]) == 0.0

    @pytest.mark.parametrize("coarse, fine, expected", [
        (4e-6, 1e-6, 0.0),
        (1e-6, 0.0, 0.0),               # an exact fine residual
        (0.0, 1e-6, math.inf),          # log2(0) would raise
        (1e-300, 1e300, math.inf),      # the ratio underflows to 0
        (math.inf, 1e-6, math.inf),
    ])
    def test_order_dev(self, coarse, fine, expected):
        assert verify._order_dev(coarse, fine) == expected

    @pytest.mark.parametrize("coarse, fine", [
        (math.nan, 1e-6), (1e-6, math.nan), (math.nan, 0.0), (math.nan, math.nan), (0.0, math.nan),
    ])
    def test_order_dev_of_nan_is_nan(self, coarse, fine):
        assert math.isnan(verify._order_dev(coarse, fine))

    def test_nan_eigenvalue_residuals_fail(self):
        # h = 1e-320 is finite and positive, but the difference quotients
        # overflow to inf - inf = nan.
        with np.errstate(all="ignore"):
            checks = {c.name: c for c in verify.position_suite(seed=0, h=1e-320, include_weight_term=True)}
        for name in ("position.eigenvalue_residual", "position.eigenvalue_order_dev"):
            assert math.isnan(checks[name].residual) and not checks[name].passed


def spoil_one_call(monkeypatch, owner, name, call, spoil):
    """Replace owner.name by a wrapper that returns spoil(result) for its
    call-th call (counted from 0) and the result itself for every other."""
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(None)
        result = real(*args, **kwargs)
        return spoil(result) if len(calls) == call + 1 else result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


NAN_VECTOR = wk.FourMomentum(*[math.nan] * 4)


def nan_ladder(ladders):
    annihilators, creators = ladders
    return [a * (math.nan if m == 1 else 1.0) for m, a in enumerate(annihilators)], creators


def nan_tau(tau):
    tau = tau.copy()
    tau[1] *= math.nan
    return tau


class TestOneNanSample:
    """A nan in one sample of many makes its check's residual nan, so the
    check fails: no running maximum or minimum of the suite drops it."""

    # (suite, owner, name, call, spoil, the checks that must read nan).  In
    # kinematics' main loop and dirac's guided loop each draw decomposes twice:
    # once in the suite and once in plane_wave_pair or klein_gordon_residual.
    CASES = [
        ("kinematics", wk, "velocities", 500, lambda r: (math.nan,) + r[1:],
         ["kinematics.de_broglie_relations", "kinematics.energy_from_group_velocity"]),
        ("kinematics", wk, "velocities", 500, lambda r: r[:2] + (math.nan,),
         ["kinematics.de_broglie_relations", "kinematics.guide_wavelength"]),
        ("kinematics", wk, "decompose", 1000, lambda r: wk.DecomposedMomentum(*[NAN_VECTOR] * 4),
         ["kinematics.decomposition_invariants", "kinematics.decomposition_closure"]),
        ("kinematics", wk, "plane_wave_pair", 500, lambda r: (NAN_VECTOR, r[1]), ["kinematics.plane_wave_pair"]),
        ("kinematics", wk, "boost", 50, lambda r: NAN_VECTOR, ["kinematics.boost_invariance"]),
        ("dirac", wk, "klein_gordon_residual", 100, lambda r: (math.nan, r[1]), ["dirac.mass_shell_identities"]),
        ("dirac", wk, "decompose", 201, lambda r: wk.DecomposedMomentum(*[NAN_VECTOR] * 4),
         ["dirac.eta_orthogonality"]),
        ("dirac", dl, "spin_one_matrices", 0, nan_tau, ["dirac.matrix_algebra", "dirac.helicity_eigenvectors"]),
        ("fock", sq, "expectation", 4, lambda r: complex(math.nan), ["fock.two_photon_additivity"]),
        ("fock", verify, "_ladders", 0, nan_ladder, ["fock.ladder_commutator"]),
    ]

    @pytest.mark.parametrize("suite, owner, name, call, spoil, names", CASES,
                             ids=[f"{case[2]}-{'-'.join(case[5])}" for case in CASES])
    def test_the_check_fails(self, monkeypatch, suite, owner, name, call, spoil, names):
        calls = spoil_one_call(monkeypatch, owner, name, call, spoil)
        with np.errstate(invalid="ignore"):
            checks = {c.name: c for c in verify.SUITES[suite](seed=0)}
        assert len(calls) > call
        for check in names:
            assert math.isnan(checks[check].residual) and not checks[check].passed, check

    def test_a_nan_cutoff_fails_monotonicity(self, monkeypatch):
        # The loop builds (mode, mode shrunk along b1, along b2) for each of
        # its 100 draws, after which the suite builds two more modes; spoil
        # the shrunk-b1 mode of draw 50, counted from 0.
        calls = spoil_one_call(monkeypatch, wk, "mode", -1, None)  # counts, spoils none
        verify.kinematics_suite(seed=0)
        spoil_one_call(monkeypatch, wk, "mode", len(calls) - 2 - 3 * (100 - 50) + 1,
                       lambda r: SimpleNamespace(cutoff=math.nan))
        check = {c.name: c for c in verify.kinematics_suite(seed=0)}["kinematics.cutoff_monotonicity"]
        assert math.isnan(check.residual) and not check.passed


def test_verify_all_stdout_is_pinned():
    # Frozen output: a batching that reorders any sum changes a residual's
    # last digits, and with them these bytes.
    res = subprocess.run([sys.executable, "-m", "photonguide", "verify", "--suite", "all", "--seed", "0"],
                         capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr
    with open(PINNED, "rb") as fh:
        assert res.stdout == fh.read()


def has_avx2():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return any(line.startswith("flags") and " avx2" in line for line in fh)
    except OSError:
        return False


X86_64 = sys.platform.startswith("linux") and os.uname().machine == "x86_64"
AVX2 = pytest.mark.skipif(not (X86_64 and has_avx2()), reason="OpenBLAS's AVX2 kernels need an x86-64 CPU with AVX2")


@pytest.mark.parametrize("kernel", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, marks=AVX2, id="openblas_haswell"),
    pytest.param({"OPENBLAS_CORETYPE": "Zen"}, marks=AVX2, id="openblas_zen"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, marks=pytest.mark.skipif(
        not X86_64, reason="numpy's x86 feature names"), id="numpy_without_avx512"),
])
def test_stdout_does_not_depend_on_the_blas_or_simd_kernel(kernel):
    # The pinned stdout was produced with OpenBLAS's AVX-512 (SkylakeX)
    # kernels and numpy's AVX-512 loops.  The k-space products are summed
    # elementwise in index order and the kinematics suite uses scalar math
    # calls, so not one byte moves under OpenBLAS's AVX2 kernels or without
    # numpy's AVX-512 loops.  numpy ignores a disabled feature that the CPU
    # lacks.
    env = dict(os.environ, **kernel)
    res = subprocess.run([sys.executable, "-m", "photonguide", "verify", "--suite", "all", "--seed", "0"],
                         capture_output=True, timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    with open(PINNED, "rb") as fh:
        assert res.stdout == fh.read()


COLUMNS = [*verify.SUITES, "summary"]


def pinned_digests():
    """{seed: {column: sha256}} from verify_all_digests.txt, seeds 0-99."""
    with open(DIGESTS, encoding="ascii") as fh:
        header, *rows = (line.split() for line in fh if not line.startswith("#"))
    assert header == ["seed", *COLUMNS]
    return {int(seed): dict(zip(COLUMNS, digests)) for seed, *digests in rows}


def suite_digests(text):
    """{column: sha256} of verify --suite all text stdout: each suite's
    lines, every line with its newline, and the summary line."""
    *checks, summary = text.splitlines(keepends=True)
    parts = dict.fromkeys(verify.SUITES, "")
    for line in checks:
        parts[line.split()[1].split(".")[0]] += line
    parts["summary"] = summary
    return {column: hashlib.sha256(part.encode()).hexdigest() for column, part in parts.items()}


def stdout_digests(seed):
    """suite_digests of the text stdout of verify --suite all --seed seed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "--suite", "all", "--seed", str(seed)])
    return suite_digests(out.getvalue())


def moved_cells(seeds):
    """The (seed, column) cells of the table that seeds' runs do not match."""
    pinned = pinned_digests()
    moved = []
    for seed in seeds:
        got = stdout_digests(seed)
        moved += [(seed, column) for column in COLUMNS if got[column] != pinned[seed][column]]
    return moved


def test_seed0_pin_is_the_table_row():
    # The readable seed-0 file and the table's seed-0 row pin the same bytes.
    assert list(pinned_digests()) == list(range(100))
    with open(PINNED, encoding="ascii") as fh:
        assert suite_digests(fh.read()) == pinned_digests()[0]


def test_verify_all_stdout_digests():
    # One sha256 per suite and seed, seeds 1-9 here: a change that must not
    # move a computed bit leaves every cell as it is, and a change to one
    # suite moves only its column.  ``python tests/test_verify.py`` checks
    # all 100 seeds.
    assert moved_cells(range(1, 10)) == []


def margin(check):
    """How far a check is from failing: tolerance / residual, or residual /
    tolerance for a check that must exceed its tolerance; inf over a zero."""
    num, den = (check.residual, check.tol) if check.direction == "above" else (check.tol, check.residual)
    return num / den if den != 0.0 else math.inf


def smallest_margins(seeds):
    """{check: (its smallest margin, the first seed that gives it)} over the
    verify --suite all runs of seeds; a nan margin is the smallest."""
    smallest = {}
    for seed in seeds:
        for name, suite in verify.SUITES.items():
            for check in suite(seed=seed, **({"h": 1e-4, "include_weight_term": True} if name == "position" else {})):
                m = margin(check)
                if check.name not in smallest or not m >= smallest[check.name][0]:
                    smallest[check.name] = (m, seed)
    return smallest


@pytest.mark.parametrize("residual, tol, direction, expected", [
    (1e-13, 1e-12, "below", 10.0), (0.0, 1e-12, "below", math.inf), (2e-3, 1e-3, "above", 2.0),
    (0.5, 0.0, "above", math.inf), (0.0, 1e-4, "above", 0.0),
])
def test_margin(residual, tol, direction, expected):
    assert margin(verify.CheckResult("x", residual, tol, direction)) == expected


def test_smallest_margins_name_every_check_and_its_seed():
    smallest = smallest_margins([3, 4])
    assert len(smallest) == 48
    assert all(seed in (3, 4) and m > 1.0 for m, seed in smallest.values())


if __name__ == "__main__":
    if sys.argv[1:] == ["--margins"]:
        # A report, not a gate: how near each check came to failing.
        print("smallest margin over seeds 0-99 (tolerance / residual; residual / tolerance for above checks)")
        for name, (m, seed) in smallest_margins(range(100)).items():
            print(f"{name:<52} {m:10.3g}  seed {seed}")
        sys.exit(0)
    moved = moved_cells(range(100))
    for seed, column in moved:
        print(f"seed {seed}: {column} moved")
    print(f"{100 * len(COLUMNS) - len(moved)}/{100 * len(COLUMNS)} verify --suite all digest cells match")
    sys.exit(1 if moved else 0)
