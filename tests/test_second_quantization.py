"""Tests for the truncated Fock space and second-quantized position operator."""

import hashlib
import itertools
import math
import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from photonguide import momentum_basis as mb
from photonguide import second_quantization as sq
from photonguide.errors import LatticeTooSmall, PhotonGuideError, UnknownMode
from photonguide.second_quantization import FockSpace, MomentumLattice

RNG = np.random.default_rng(20240819)


def reference_sectors(nmodes, n_max):
    """The numpy enumeration the itertools one replaced: sector n+1 extends
    each sector-n row by every mode >= its last mode, rows kept in order."""
    sectors = [np.zeros((1, 0), dtype=np.int64)]
    last = np.zeros(1, dtype=np.int64)
    for _ in range(n_max):
        counts = nmodes - last
        starts = np.cumsum(counts) - counts
        appended = np.repeat(last - starts, counts) + np.arange(counts.sum())
        sectors.append(np.column_stack([np.repeat(sectors[-1], counts, axis=0), appended]))
        last = appended
    return sectors


def reference_one_body(space, h_mode):
    """The one-body construction the tail-count rank replaced: every hopped
    row re-sorted with sort(axis=1), copies counted by a reduction, and
    ranked by searchsorted over the sector's base-M keys."""
    powers = [space.nmodes ** np.arange(n - 1, -1, -1, dtype=np.int64)
              for n in range(space.n_max + 1)]
    keys = [states @ weights for states, weights in zip(space.sectors, powers)]
    h = sp.csc_matrix(h_mode, dtype=complex)
    rows, cols, data = [], [], []
    for n in range(1, space.n_max + 1):
        states = space.sectors[n]
        for p in range(n):
            if p == 0:
                sel = np.arange(len(states))
            else:
                sel = np.flatnonzero(states[:, p] != states[:, p - 1])
            src = states[sel]
            mu = src[:, p]
            nhops = h.indptr[mu + 1] - h.indptr[mu]
            hop_src = np.repeat(np.arange(len(sel)), nhops)
            first_hop = np.cumsum(nhops) - nhops
            hop = np.repeat(h.indptr[mu] - first_hop, nhops) + np.arange(len(hop_src))
            nu, val = h.indices[hop], h.data[hop]
            before = src[hop_src]
            copies = (src == mu[:, None]).sum(axis=1)[hop_src]
            rest_nu = (before == nu[:, None]).sum(axis=1) - (nu == mu[hop_src])
            after = before.copy()
            after[:, p] = nu
            after.sort(axis=1)
            rows.append(space.offsets[n] + np.searchsorted(keys[n], after @ powers[n]))
            cols.append(space.offsets[n] + sel[hop_src])
            data.append(val * np.sqrt(copies) * np.sqrt(rest_nu + 1))
    mat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim),
    )
    mat.sum_duplicates()
    return mat


@pytest.fixture(scope="module")
def space():
    return FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=2)


class TestLattice:
    def test_points_exclude_origin(self):
        lat = MomentumLattice(shape=(3, 3, 3), spacing=0.5)
        assert lat.npoints == 27
        assert np.min(np.linalg.norm(lat.points, axis=1)) > 0.5

    def test_gradient_antisymmetric(self):
        lat = MomentumLattice(shape=(4, 3, 3), spacing=0.5)
        for axis in range(3):
            D = lat.gradient_matrix(axis).toarray()
            assert np.max(np.abs(D + D.T)) == 0.0

    def test_gradient_exact_on_commensurate_wave(self):
        # On a periodic grid the stencil acting on exp(i m theta n) has the
        # exact symbol i sin(m theta)/spacing with theta = 2 pi / N.
        lat = MomentumLattice(shape=(8, 3, 3), spacing=0.5)
        D = lat.gradient_matrix(0)
        c = np.exp(2j * np.pi * np.arange(8) / 8)
        grid = np.repeat(c, 9).astype(complex)
        out = D @ grid
        symbol = 1j * np.sin(2 * np.pi / 8) / 0.5
        assert np.max(np.abs(out - symbol * grid)) <= 1e-12

    # 1e-310 is positive and finite, but 1/(2 spacing) overflows; at 1e308
    # and 6e307 the far corner 3 * spacing of a 3x3x3 lattice overflows.
    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -0.5, 1e-310, 1e308, 6e307])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        with pytest.raises(ValueError, match="spacing"):
            MomentumLattice(shape=(3, 3, 3), spacing=spacing)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 3), (-1, 3, 3), (3, 3), (2.5, 3, 3)])
    def test_shape_must_be_three_positive_extents(self, shape):
        with pytest.raises(ValueError, match="three extents"):
            MomentumLattice(shape=shape, spacing=0.5)

    def test_too_small_or_open_rejected(self):
        with pytest.raises(LatticeTooSmall):
            MomentumLattice(shape=(2, 3, 3), spacing=0.5).gradient_matrix(0)


class TestLadderOperators:
    def test_annihilate_vacuum_is_zero(self, space):
        a = space.annihilate(0, +1)
        assert np.max(np.abs(a @ space.vacuum())) == 0.0

    def test_number_eigenvalue_two(self, space):
        mu = space.mode_index(5, -1)
        state = np.zeros(space.dim, dtype=complex)
        state[space.index[(mu, mu)]] = 1.0
        a = space.annihilate(5, -1)
        n_op = a.conj().T @ a
        assert np.max(np.abs(n_op @ state - 2.0 * state)) <= 1e-14

    def test_canonical_commutator_on_small_space(self):
        # On a lattice whose one-mode sector never hits the truncation cap,
        # [a, a^dag] acts as the identity on all states with total < n_max.
        lat = MomentumLattice(shape=(3, 1, 1), spacing=0.5)
        fs = FockSpace(lat, n_max=3)
        a = fs.annihilate(1, 0)
        comm = (a @ a.conj().T - a.conj().T @ a).toarray()
        keep = [i for i, state in enumerate(fs.basis) if len(state) < fs.n_max]
        sub = comm[np.ix_(keep, keep)]
        assert np.max(np.abs(sub - np.eye(len(keep)))) <= 1e-14

    def test_unknown_mode_rejected(self, space):
        with pytest.raises(UnknownMode):
            space.annihilate(27, +1)
        with pytest.raises(UnknownMode):
            space.annihilate(0, 2)

    @pytest.mark.parametrize("point", [1.5, 2.0, "3"])
    def test_non_integer_point_rejected(self, space, point):
        with pytest.raises(UnknownMode):
            space.mode_index(point, +1)
        with pytest.raises(UnknownMode):
            space.annihilate(point, +1)

    @pytest.mark.parametrize("n_max", [0, 2.5, 2.0])
    def test_n_max_must_be_a_positive_integer(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            FockSpace(MomentumLattice(shape=(3, 1, 1), spacing=0.5), n_max=n_max)

    def test_one_body_matches_explicit_ladder_sum(self):
        # Oracle: build sum h[nu, mu] a^dag(nu) a(mu) from ladder matrices.
        lat = MomentumLattice(shape=(3, 1, 1), spacing=0.5)
        fs = FockSpace(lat, n_max=2)
        h = RNG.standard_normal((fs.nmodes, fs.nmodes)) + 1j * RNG.standard_normal(
            (fs.nmodes, fs.nmodes))
        via_one_body = fs.one_body_operator(sp.csr_matrix(h)).toarray()
        explicit = np.zeros_like(via_one_body)
        for nu in range(fs.nmodes):
            for mu in range(fs.nmodes):
                adag = fs.annihilate(nu // 3, mb.HELICITIES[nu % 3]).conj().T
                a = fs.annihilate(mu // 3, mb.HELICITIES[mu % 3])
                explicit += h[nu, mu] * (adag @ a).toarray()
        assert np.max(np.abs(via_one_body - explicit)) <= 1e-12


    @pytest.mark.parametrize("shape, n_max", [((2, 1, 1), 2), ((3, 1, 1), 3), ((3, 3, 1), 2)])
    def test_ladders_are_the_entrywise_annihilator(self, shape, n_max):
        # a built entry by entry from the basis.
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
        for mu in range(fs.nmodes):
            rows, cols, data = [], [], []
            for col, state in enumerate(fs.basis):
                if mu in state:
                    rows.append(fs.index[state[:state.index(mu)] + state[state.index(mu) + 1:]])
                    cols.append(col)
                    data.append(np.sqrt(state.count(mu)))
            a = sp.csr_matrix((data, (rows, cols)), shape=(fs.dim, fs.dim))
            mode = (mu // 3, mb.HELICITIES[mu % 3])
            assert_bitwise(fs.annihilate(*mode), a)


class TestPositionOperators:
    def test_vacuum_annihilated(self, space):
        for X in space.position_operators():
            assert np.max(np.abs(X @ space.vacuum())) == 0.0

    def test_hermitian(self, space):
        for X in space.position_operators():
            assert abs(X - X.conj().T).max() <= 1e-13

    def test_components_commute(self, space):
        ops = space.position_operators()
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(ops[i] @ ops[j] - ops[j] @ ops[i]).max() <= 1e-13

    def test_commutes_with_number(self, space):
        n_op = space.number_operator()
        for X in space.position_operators():
            assert abs(X @ n_op - n_op @ X).max() <= 1e-13

    def test_one_photon_equivalence(self, space):
        # X on random one-photon states against i times the lattice stencil
        # applied directly to the coefficient function.
        lat, ops = space.lattice, space.position_operators()
        one_photon = slice(space.offsets[1], space.offsets[2])
        for _ in range(20):
            c = RNG.standard_normal((lat.npoints, 3)) + 1j * RNG.standard_normal((lat.npoints, 3))
            stencil = 1j * sq.lattice_gradient(lat, c.reshape(lat.shape + (3,)))
            vec = space.one_photon_vector(c)
            for axis in range(3):
                via_fock = (ops[axis] @ vec)[one_photon].reshape(lat.npoints, 3)
                assert np.max(np.abs(stencil[axis].reshape(lat.npoints, 3) - via_fock)) <= 1e-12

    def test_plane_wave_expectation_matches_dense_oracle(self, space):
        # A one-photon state with coefficients exp(-i x0.k) (x0 commensurate
        # with the periodic grid) has <X_j> = sin(x0_j spacing)/spacing: the
        # discrete stencil symbol, which tends to x0_j only as spacing -> 0.
        lat = space.lattice
        n = lat.shape[0]
        x0 = 2.0 * np.pi * np.array([1, 0, 2]) / (n * lat.spacing)
        c = np.zeros((lat.npoints, 3), dtype=complex)
        c[:, 2] = np.exp(-1j * lat.points @ x0) / np.sqrt(lat.npoints)
        vec = space.one_photon_vector(c)
        expected = np.sin(x0 * lat.spacing) / lat.spacing
        for axis, X in enumerate(space.position_operators()):
            value = sq.expectation(X, vec)
            # Dense oracle: same expectation from the explicit mode matrix.
            dense = sp.kron(lat.gradient_matrix(axis), sp.identity(3)).toarray()
            oracle = np.vdot(c.ravel(), (1j * dense) @ c.ravel())
            assert abs(value - oracle) <= 1e-13
            assert abs(value.imag) <= 1e-13
            assert abs(value.real - expected[axis]) <= 1e-12

    def test_two_photon_additivity(self, space):
        # Product pair state: expectation adds over the photons.
        lat = space.lattice
        c1 = RNG.standard_normal((lat.npoints, 3)) + 1j * RNG.standard_normal((lat.npoints, 3))
        c2 = RNG.standard_normal((lat.npoints, 3)) + 1j * RNG.standard_normal((lat.npoints, 3))
        c1[:, [0, 2]] = 0.0  # helicity 0 only
        c2[:, [0, 1]] = 0.0  # helicity +1 only: photons occupy disjoint modes
        c1 /= np.linalg.norm(c1)
        c2 /= np.linalg.norm(c2)
        pair = np.zeros(space.dim, dtype=complex)
        for mu in range(space.nmodes):
            amp1 = c1[mu // 3, mu % 3]
            if amp1 == 0.0:
                continue
            for nu in range(space.nmodes):
                amp2 = c2[nu // 3, nu % 3]
                if amp2 == 0.0:
                    continue
                pair[space.index[tuple(sorted((mu, nu)))]] += amp1 * amp2
        for X in space.position_operators():
            together = sq.expectation(X, pair)
            separate = (sq.expectation(X, space.one_photon_vector(c1))
                        + sq.expectation(X, space.one_photon_vector(c2)))
            assert abs(together - separate) <= 1e-12


class TestSectorBasis:
    @pytest.mark.parametrize("shape, n_max", [
        ((1, 1, 1), 1), ((1, 1, 1), 4), ((2, 1, 1), 2), ((2, 1, 1), 3), ((3, 1, 1), 3),
        ((3, 3, 3), 2),
    ])
    def test_basis_in_combinations_order(self, shape, n_max):
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
        expected = [state for n in range(n_max + 1)
                    for state in itertools.combinations_with_replacement(range(fs.nmodes), n)]
        assert fs.basis == expected
        assert fs.index == {state: i for i, state in enumerate(expected)}
        assert fs.dim == len(expected)

    @pytest.mark.parametrize("shape, n_max", [
        ((1, 1, 1), 1), ((1, 1, 1), 4), ((2, 1, 1), 2), ((2, 1, 1), 3), ((3, 1, 1), 3),
        ((3, 3, 3), 2), ((4, 3, 3), 2), ((3, 3, 3), 3),
    ])
    def test_sectors_match_reference_enumeration(self, shape, n_max):
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
        expected = reference_sectors(fs.nmodes, n_max)
        assert len(fs.sectors) == len(expected)
        for got, want in zip(fs.sectors, expected):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert np.array_equal(fs.offsets, np.cumsum([0] + [len(states) for states in expected]))
        # Sorted r-tuples from the M - v modes >= v: a multiset count.
        for r, tails in enumerate(fs._tails):
            counts = [math.comb(fs.nmodes - v + r - 1, r) if v < fs.nmodes else int(r == 0)
                      for v in range(fs.nmodes + 1)]
            assert tails.dtype == np.int64 and tails.tolist() == counts
        basis = [tuple(row) for states in expected for row in states.tolist()]
        assert fs.basis == basis
        assert fs.index == {state: i for i, state in enumerate(basis)}

    def test_key_overflow_rejected(self):
        # 81 modes: 81^14 exceeds int64, the bound on the tail counts that
        # rank 14-photon states.
        with pytest.raises(PhotonGuideError):
            FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=14)

    def test_one_body_matches_explicit_ladder_sum_three_photons(self):
        # n_max = 3 holds states with a mode repeated two and three times.
        fs = FockSpace(MomentumLattice(shape=(3, 1, 1), spacing=0.5), n_max=3)
        h = RNG.standard_normal((fs.nmodes, fs.nmodes)) + 1j * RNG.standard_normal(
            (fs.nmodes, fs.nmodes))
        via_one_body = fs.one_body_operator(sp.csr_matrix(h)).toarray()
        explicit = np.zeros_like(via_one_body)
        for nu in range(fs.nmodes):
            adag = fs.annihilate(nu // 3, mb.HELICITIES[nu % 3]).conj().T
            for mu in range(fs.nmodes):
                a = fs.annihilate(mu // 3, mb.HELICITIES[mu % 3])
                explicit += h[nu, mu] * (adag @ a).toarray()
        assert np.max(np.abs(via_one_body - explicit)) <= 1e-12

    def test_position_operator_identities_on_large_lattice(self):
        fs = FockSpace(MomentumLattice(shape=(5, 5, 5), spacing=0.5), n_max=2)
        assert fs.dim == 70876
        ops = fs.position_operators()
        n_op = fs.number_operator()
        for i, X in enumerate(ops):
            assert abs(X - X.conj().T).max() <= 1e-12
            assert abs(X @ n_op - n_op @ X).max() <= 1e-12
            for Y in ops[i + 1:]:
                assert abs(X @ Y - Y @ X).max() <= 1e-12


class TestTailCountRank:
    CASES = [((2, 1, 1), 1), ((2, 1, 1), 2), ((2, 1, 1), 3), ((3, 1, 1), 1), ((3, 1, 1), 2),
             ((3, 1, 1), 3), ((3, 3, 3), 1), ((3, 3, 3), 2), ((3, 3, 3), 3), ((4, 3, 3), 2)]

    @pytest.mark.parametrize("shape, n_max", CASES)
    def test_sector_rows_rank_in_order(self, shape, n_max):
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
        for n in range(n_max + 1):
            assert fs._tails[n][0] == len(fs.sectors[n])
            ranks = fs._ranks(fs.sectors[n])
            assert np.array_equal(ranks, np.arange(fs.offsets[n], fs.offsets[n + 1]))

    @pytest.mark.parametrize("shape, n_max", CASES)
    def test_random_sorted_rows_rank_as_index(self, shape, n_max):
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
        for n in range(1, n_max + 1):
            rows = np.sort(RNG.integers(0, fs.nmodes, (200, n)), axis=1)
            expected = [fs.index[tuple(row)] for row in rows.tolist()]
            assert fs._ranks(rows).tolist() == expected


class TestOneBodyBitwise:
    """one_body_operator gives the same CSR arrays, bit for bit, as the
    re-sort and searchsorted construction it replaced."""

    @staticmethod
    def assert_same_csr(got, expected):
        got.sort_indices()
        expected.sort_indices()
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert got.data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 3, 3)])
    def test_position_operators_at_two_photons(self, shape):
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=2)
        for axis, X in enumerate(fs.position_operators()):
            h = 1j * sp.kron(fs.lattice.gradient_matrix(axis), sp.identity(3))
            self.assert_same_csr(X, reference_one_body(fs, h))

    @pytest.mark.parametrize("shape, axis", [((3, 1, 1), 0), ((3, 3, 3), 2)])
    def test_position_component_at_three_photons(self, shape, axis):
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=3)
        h = 1j * sp.kron(fs.lattice.gradient_matrix(axis), sp.identity(3))
        self.assert_same_csr(fs.one_body_operator(h), reference_one_body(fs, h))

    @pytest.mark.parametrize("shape, n_max", [((2, 1, 1), 2), ((2, 1, 1), 3), ((3, 1, 1), 2),
                                              ((3, 1, 1), 3)])
    def test_random_complex_h_with_a_diagonal(self, shape, n_max):
        # Diagonal entries hop a mode onto itself, and duplicate entries are summed.
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
        m = fs.nmodes
        h = RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m))
        h[RNG.random((m, m)) < 0.4] = 0.0
        h[np.diag_indices(m)] = RNG.standard_normal(m)
        h = sp.csr_matrix(h)
        self.assert_same_csr(fs.one_body_operator(h), reference_one_body(fs, h))

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_every_position_component_at_each_photon_cap(self, n_max):
        fs = FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=n_max)
        for axis, X in enumerate(fs.position_operators()):
            h = 1j * sp.kron(fs.lattice.gradient_matrix(axis), sp.identity(3))
            assert_bitwise(X, reference_one_body(fs, h))

    def test_position_operators_walk_the_sectors_once(self):
        # Every walk over the slots reads each sector n >= 1 once: the three
        # components come from one walk, not one walk each.
        fs = FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=2)
        reads = []

        class Sectors(list):
            def __getitem__(self, n):
                reads.append(n)
                return super().__getitem__(n)

        fs.sectors = Sectors(fs.sectors)
        fs.position_operators()
        assert sorted(reads) == [1, 2]

    @pytest.mark.parametrize("shape", [(5, 5), (12, 12), (9, 12)])
    def test_mode_matrix_of_another_shape_is_rejected(self, shape):
        # At the parent a 5 x 5 h raised IndexError, and a 12 x 12 or 9 x 12 h
        # built a 55 x 55 operator from part of h.
        fs = FockSpace(MomentumLattice(shape=(3, 1, 1), spacing=0.5), n_max=2)
        assert fs.nmodes == 9
        with pytest.raises(ValueError, match=rf"\({shape[0]}, {shape[1]}\).*\(9, 9\)"):
            fs.one_body_operator(sp.csr_matrix(np.ones(shape)))



def coo_gradient_matrix(lattice, axis):
    """The COO-to-CSR construction that the direct CSR one replaced."""
    idx = np.arange(lattice.npoints).reshape(lattice.shape)
    fwd = np.roll(idx, -1, axis=axis).ravel()
    bwd = np.roll(idx, +1, axis=axis).ravel()
    rows = np.concatenate([idx.ravel(), idx.ravel()])
    cols = np.concatenate([fwd, bwd])
    half = 1.0 / (2.0 * lattice.spacing)
    data = np.concatenate([np.full(lattice.npoints, half), np.full(lattice.npoints, -half)])
    return sp.csr_matrix((data, (rows, cols)), shape=(lattice.npoints, lattice.npoints))


def assert_bitwise(got, expected):
    """Same format, shape and dtypes, the same index arrays, and the data
    bit for bit (viewed as int64, so that -0.0 and 0.0 differ)."""
    assert (got.format, got.shape) == (expected.format, expected.shape)
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(expected, name).dtype, name
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data.view(np.int64), expected.data.view(np.int64))


LIFT_LATTICES = [((3, 3, 3), 1.0), ((4, 3, 3), 0.5), ((5, 4, 3), 0.7), ((3, 5, 7), 1e-3)]


class TestKronFreeLift:
    """The direct CSR derivative and its lift to modes against the sparse
    constructions they replace, bit for bit."""

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("shape, spacing", LIFT_LATTICES)
    def test_gradient_matrix_is_the_coo_construction(self, shape, spacing, axis):
        lat = MomentumLattice(shape=shape, spacing=spacing)
        got = lat.gradient_matrix(axis)
        assert got.has_canonical_format
        assert_bitwise(got, coo_gradient_matrix(lat, axis))

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("shape, spacing", LIFT_LATTICES)
    def test_lift_is_the_kron_product(self, shape, spacing, axis):
        lat = MomentumLattice(shape=shape, spacing=spacing)
        indptr, lifts = sq._lifted_gradients(lat)
        expected = sp.csc_matrix(1j * sp.kron(lat.gradient_matrix(axis), sp.identity(3)), dtype=complex)
        indices, data = lifts[axis]
        # All three axes share the one indptr returned.
        assert np.array_equal(indptr, expected.indptr)
        assert np.array_equal(indices, expected.indices)
        assert data.dtype == expected.data.dtype
        assert np.array_equal(data.view(np.int64), expected.data.view(np.int64))

    def test_position_operators_build_only_their_three_csr_matrices(self, monkeypatch):
        # X comes from the stencil arrays alone: no gradient matrix, no CSC
        # matrix, and one CSR construction per component.
        fs = FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=2)
        expected = fs.position_operators()

        def refuse(*args, **kwargs):
            raise AssertionError("X built a gradient matrix or a CSC matrix")

        built = []
        csr_matrix = sp.csr_matrix

        def counted(*args, **kwargs):
            built.append(csr_matrix(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(MomentumLattice, "gradient_matrix", refuse)
        # Patched on the class, so scipy's own tocsc() would refuse too.
        monkeypatch.setattr(sp.csc_matrix, "__init__", refuse)
        monkeypatch.setattr(sp, "csr_matrix", counted)
        X = fs.position_operators()
        assert len(built) == 3 and all(m is x for m, x in zip(built, X))
        for got, want in zip(X, expected):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 3, 3), (5, 4, 3)])
    def test_position_operators_are_the_kron_built_ones(self, shape):
        fs = FockSpace(MomentumLattice(shape=shape, spacing=1.0), n_max=2)
        for axis, X in enumerate(fs.position_operators()):
            h = 1j * sp.kron(fs.lattice.gradient_matrix(axis), sp.identity(3))
            assert_bitwise(X, fs.one_body_operator(h))


X_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fock_x_digests.txt")

# (shape, n_max, spacing) of the pinned position operators.
X_SPACES = ([((4, 3, 3), 2, spacing) for spacing in (0.5, 0.8, 1.3, 1e-3)]
            + [((3, 3, 3), 3, 0.5), ((3, 3, 3), 3, 1.3), ((5, 5, 5), 2, 0.5)])


def csr_digest(m):
    """sha256 over indptr and indices as int64, the data bytes and the
    canonical-format flag of a CSR matrix."""
    digest = hashlib.sha256()
    for array in (m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data):
        digest.update(array.tobytes())
    digest.update(bytes([bool(m.has_canonical_format)]))
    return digest.hexdigest()


def x_digest_lines():
    """One 'shape n_max spacing axis digest' line per component of X on each
    of X_SPACES, in the format of fock_x_digests.txt."""
    lines = []
    for shape, n_max, spacing in X_SPACES:
        fs = FockSpace(MomentumLattice(shape=shape, spacing=spacing), n_max=n_max)
        for axis, X in enumerate(fs.position_operators()):
            lines.append(f"{'x'.join(map(str, shape))} {n_max} {spacing!r} {axis} {csr_digest(X)}")
    return lines


def test_position_operators_are_pinned():
    # The CSR arrays of X, bit for bit as fock_x_digests.txt pins them.  Only
    # scalar IEEE products form X, so no BLAS kernel can move these bits.
    # ``python tests/test_second_quantization.py`` prints the lines afresh.
    with open(X_DIGESTS, encoding="ascii") as fh:
        pinned = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    assert x_digest_lines() == pinned


if __name__ == "__main__":
    print("# sha256 of each CSR component of FockSpace.position_operators(): indptr and indices as int64,")
    print("# data bytes, has_canonical_format; one 'shape n_max spacing axis digest' line per component")
    print(*x_digest_lines(), sep="\n")
    sys.exit(0)
