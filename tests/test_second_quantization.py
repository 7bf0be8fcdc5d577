"""Tests for the truncated Fock space and second-quantized position operator."""

import hashlib
import itertools
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from photonguide import momentum_basis as mb
from photonguide import second_quantization as sq
from photonguide.errors import PhotonGuideError
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

    def test_extents_of_any_integer_type_make_one_lattice(self):
        # A list shape made an unhashable lattice unequal to the tuple one.
        lattices = [MomentumLattice(shape=shape, spacing=1.0)
                    for shape in ([3, 3, 3], (3, 3, 3), (np.int64(3),) * 3, np.array([3, 3, 3]))]
        for lat in lattices:
            assert lat == lattices[0] and hash(lat) == hash(lattices[0])
            assert lat.shape == (3, 3, 3) and all(type(n) is int for n in lat.shape)
        # All four share one plan: the first build keeps it, the others read it.
        for i, lat in enumerate(lattices):
            fs = FockSpace(lat, n_max=2)
            reads = sector_reads(fs)
            fs.position_operators()
            assert sorted(reads) == ([1, 2] if i == 0 else [])
            assert sq._slot[0] == ((3, 3, 3), 2)

    def test_too_small_or_open_rejected(self):
        with pytest.raises(PhotonGuideError, match=r"^need >= 3 points along axis 0, got 2$"):
            MomentumLattice(shape=(2, 3, 3), spacing=0.5).gradient_matrix(0)

    @pytest.mark.parametrize("grid", [(4, 3, 3, 3), (3, 3)])
    def test_lattice_gradient_rejects_a_grid_of_another_shape(self, grid):
        # Unchecked, a 4x3x3x3 grid on a 3x3x3 lattice returned shape
        # (3, 4, 3, 3, 3), and a 2-D grid raised numpy's AxisError.
        lat = MomentumLattice(shape=(3, 3, 3), spacing=0.5)
        shapes = rf"\({', '.join(map(str, grid))}\).*\(3, 3, 3\)"
        with pytest.raises(ValueError, match=shapes):
            sq.lattice_gradient(lat, np.ones(grid))
        assert sq.lattice_gradient(lat, np.ones((3, 3, 3, 2))).shape == (3, 3, 3, 3, 2)


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
        with pytest.raises(PhotonGuideError, match=r"^no lattice mode \(point 27, helicity 1\)$"):
            space.annihilate(27, +1)
        with pytest.raises(PhotonGuideError, match=r"^no lattice mode \(point 0, helicity 2\)$"):
            space.annihilate(0, 2)

    @pytest.mark.parametrize("point", [1.5, 2.0, "3"])
    def test_non_integer_point_rejected(self, space, point):
        message = rf"^no lattice mode \(point {point}, helicity 1\)$"
        with pytest.raises(PhotonGuideError, match=message):
            space.mode_index(point, +1)
        with pytest.raises(PhotonGuideError, match=message):
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


    @pytest.mark.parametrize("shape, n_max", [((2, 1, 1), 2), ((3, 1, 1), 3), ((3, 3, 1), 2), ((3, 3, 3), 2),
                                              ((2, 1, 1), 4)])
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
            built = fs.annihilate(*mode)
            assert_bitwise(built, a)
            assert built.has_canonical_format == a.has_canonical_format


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

    @pytest.mark.parametrize("coeffs", [1.0, np.ones((3, 27)), np.ones((27, 2)), np.ones(81)])
    def test_one_photon_coefficients_must_be_npoints_by_three(self, space, coeffs):
        # A scalar filled every one-photon slot, and a (3, npoints) array was
        # ravelled in the wrong order.
        with pytest.raises(ValueError, match=r"\(27, 3\)"):
            space.one_photon_vector(coeffs)

    def test_expectation_in_a_zero_state_is_rejected(self, space):
        # At the parent this was nan after a RuntimeWarning.
        X = space.position_operators()[0]
        with pytest.raises(ValueError, match="zero norm"):
            sq.expectation(X, np.zeros(space.dim, dtype=complex))

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
        assert list(fs.basis) == expected
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
        assert list(fs.basis) == basis
        assert fs.index == {state: i for i, state in enumerate(basis)}

    def test_key_overflow_rejected(self):
        # 81 modes: 81^14 exceeds int64, the bound on the tail counts that
        # rank 14-photon states.
        with pytest.raises(PhotonGuideError, match=r"^81 modes at n_max=14: .* would overflow int64$"):
            FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=14)

    @pytest.mark.parametrize("n_max", [np.int64(11), np.int32(11)])
    def test_key_overflow_rejected_for_a_numpy_integer(self, monkeypatch, n_max):
        # 81 ** np.int64(11) wraps silently to 7.09e18, under the int64 limit,
        # and the constructor went on to enumerate 4.7e13 states.  Enumeration
        # is refused, so that a guard that lets the power wrap fails at once.
        def refuse(*args):
            raise AssertionError("the constructor enumerated the states")

        monkeypatch.setattr(itertools, "combinations_with_replacement", refuse)
        with pytest.raises(PhotonGuideError, match=r"^81 modes at n_max=11: .* would overflow int64$"):
            FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=n_max)

    @pytest.mark.parametrize("n_max", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_n_max_is_kept_as_a_python_int(self, n_max):
        fs = FockSpace(MomentumLattice(shape=(3, 1, 1), spacing=0.5), n_max=n_max)
        assert type(fs.n_max) is int and fs.n_max == 2

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

    @pytest.mark.parametrize("shape", [(3, 1, 1), (4, 1, 1)])
    @pytest.mark.parametrize("n_max", [2, 3])
    def test_dense_h_gives_the_sparse_h_operator(self, shape, n_max):
        # verify's one-body oracle passes its h as a dense np.kron; the
        # operator's CSR arrays are those of the sparse kron, bit for bit.
        fs = FockSpace(MomentumLattice(shape=shape, spacing=1.0), n_max=n_max)
        d = fs.lattice.gradient_matrix(0)
        dense = 1j * np.kron(d.toarray(), np.eye(3))
        assert_bitwise(fs.one_body_operator(dense), fs.one_body_operator(1j * sp.kron(d, sp.identity(3))))

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_every_position_component_at_each_photon_cap(self, n_max):
        fs = FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=n_max)
        for axis, X in enumerate(fs.position_operators()):
            h = 1j * sp.kron(fs.lattice.gradient_matrix(axis), sp.identity(3))
            assert_bitwise(X, reference_one_body(fs, h))

    def test_position_operators_walk_the_sectors_once(self):
        # A walk over the slots reads each sector n >= 1 once: the three
        # components come from one walk, not one walk each.  Only the first
        # build at a key walks; the second reads the plan that it kept.
        for expected in ([1, 2], []):
            fs = FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=2)
            reads = sector_reads(fs)
            fs.position_operators()
            assert sorted(reads) == expected

    @pytest.mark.parametrize("shape", [(5, 5), (12, 12), (9, 12)])
    def test_mode_matrix_of_another_shape_is_rejected(self, shape):
        # At the parent a 5 x 5 h raised IndexError, and a 12 x 12 or 9 x 12 h
        # built a 55 x 55 operator from part of h.
        fs = FockSpace(MomentumLattice(shape=(3, 1, 1), spacing=0.5), n_max=2)
        assert fs.nmodes == 9
        with pytest.raises(ValueError, match=rf"\({shape[0]}, {shape[1]}\).*\(9, 9\)"):
            fs.one_body_operator(sp.csr_matrix(np.ones(shape)))



def sector_reads(fs):
    """The list that every later read of fs.sectors[n] appends n to."""
    reads = []

    class Sectors(list):
        def __getitem__(self, n):
            reads.append(n)
            return super().__getitem__(n)

    fs.sectors = Sectors(fs.sectors)
    return reads


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
        indices, up = lifts[axis]
        # All three axes share the one indptr returned.
        assert np.array_equal(indptr, expected.indptr)
        assert np.array_equal(indices, expected.indices)
        assert np.array_equal(up, expected.data.imag > 0)
        # The two values as position_operators spells them, placed by the sign.
        half = 1.0 / (2.0 * lat.spacing)
        pair = 1j * np.array([-half, half])
        data = np.where(up, pair[1], pair[0])
        assert data.dtype == expected.data.dtype
        assert np.array_equal(data.view(np.int64), expected.data.view(np.int64))

    def test_position_operators_build_only_their_three_csr_matrices(self, monkeypatch):
        # X comes from the stencil arrays alone: no gradient matrix, no CSC
        # matrix, and one CSR construction per component, plus, on the build
        # that keeps the plan, one conversion of the entry numbers each.
        fs = FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=2)
        expected = fs.position_operators()
        sq._slot = None

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
        # The build that keeps the plan, and one reading it.
        for constructions in (6, 3):
            built.clear()
            X = fs.position_operators()
            assert len(built) == constructions and all(m is x for m, x in zip(built[-3:], X))
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
            + [((3, 3, 3), 3, 0.5), ((3, 3, 3), 3, 1.3), ((5, 5, 5), 2, 0.5)]
            # A subnormal stencil weight, and the largest entries (sqrt(2) or 2) / (2 spacing)
            # just under overflow: position_operators rejects 3e-309 at n_max 2 and 5e-309 at 3.
            + [((3, 3, 3), 3, 5e307), ((3, 3, 3), 3, 6e-309), ((4, 3, 3), 2, 5e-309)])


def csr_digest(m):
    """sha256 over indptr and indices as int64, the data bytes and the
    canonical-format flag of a CSR matrix."""
    digest = hashlib.sha256()
    for array in (m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data):
        digest.update(array.tobytes())
    digest.update(bytes([bool(m.has_canonical_format)]))
    return digest.hexdigest()


def x_digest_lines(spaces=X_SPACES):
    """One 'shape n_max spacing axis digest' line per component of X on each
    of spaces, in the format of fock_x_digests.txt."""
    lines = []
    for shape, n_max, spacing in spaces:
        fs = FockSpace(MomentumLattice(shape=shape, spacing=spacing), n_max=n_max)
        for axis, X in enumerate(fs.position_operators()):
            lines.append(f"{'x'.join(map(str, shape))} {n_max} {spacing!r} {axis} {csr_digest(X)}")
    return lines


def pinned_x_lines(spaces=X_SPACES):
    """The lines of fock_x_digests.txt for spaces."""
    with open(X_DIGESTS, encoding="ascii") as fh:
        pinned = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    keys = {f"{'x'.join(map(str, shape))} {n_max} {spacing!r}" for shape, n_max, spacing in spaces}
    return [line for line in pinned if line.rsplit(" ", 2)[0] in keys]


def test_position_operators_are_pinned():
    # The CSR arrays of X, bit for bit as fock_x_digests.txt pins them.  Only
    # scalar IEEE products form X, so no BLAS kernel can move these bits.
    # ``python tests/test_second_quantization.py`` prints the lines afresh.
    assert x_digest_lines() == pinned_x_lines()


class TestXPlan:
    """position_operators() keeps the CSR plan on the first build at a (shape,
    n_max) and reads it on every later build there, which walks no sector."""

    @pytest.mark.parametrize("shape, n_max, spacing", X_SPACES)
    def test_every_build_is_pinned(self, shape, n_max, spacing):
        pinned = pinned_x_lines([(shape, n_max, spacing)])
        assert len(pinned) == 3
        # The build that keeps the plan.
        assert x_digest_lines([(shape, n_max, spacing)]) == pinned
        slot = sq._slot
        assert slot[0] == (shape, n_max)
        # Two reading it, each from a space that shares the kept tables.
        for _ in range(2):
            assert x_digest_lines([(shape, n_max, spacing)]) == pinned
            assert sq._slot is slot

    def test_a_first_build_keeps_the_plan_and_the_tables(self):
        for shape in [(3, 3, 3), (4, 3, 3), (3, 3, 3)]:
            fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=2)
            fs.position_operators()
            key, kept, plans = sq._slot
            assert key == (shape, 2) and len(plans) == 3
            assert len(kept) == 5 and all(got is want for got, want in zip(tables(fs), kept))

    def test_a_change_of_spacing_alone_walks_no_sector(self):
        FockSpace(MomentumLattice(shape=(4, 3, 3), spacing=0.5), n_max=2).position_operators()
        for spacing in (0.7, 0.9, 1e-3, 3e150):
            fs = FockSpace(MomentumLattice(shape=(4, 3, 3), spacing=spacing), n_max=2)
            reads = sector_reads(fs)
            X = fs.position_operators()
            assert reads == []
            for axis, x in enumerate(X):
                h = 1j * sp.kron(fs.lattice.gradient_matrix(axis), sp.identity(3))
                assert_bitwise(x, fs.one_body_operator(h))

    def test_a_change_of_shape_or_n_max_walks_again(self):
        last = None
        for shape, n_max in [((3, 3, 3), 1), ((3, 3, 3), 1), ((3, 3, 3), 2), ((3, 3, 4), 2), ((3, 3, 4), 2),
                             ((4, 3, 3), 2), ((3, 3, 3), 1)]:
            fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
            reads = sector_reads(fs)
            fs.position_operators()
            # A build at the last key reads its plan; any other walks every sector once.
            assert sorted(reads) == ([] if (shape, n_max) == last else list(range(1, n_max + 1)))
            last = (shape, n_max)
            assert sq._slot[0] == last

    def test_the_slot_holds_one_plan(self):
        for shape in [(3, 3, 3), (4, 3, 3)]:
            FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=2).position_operators()
        key, tables, plans = sq._slot
        assert key == ((4, 3, 3), 2) and len(tables) == 5 and len(plans) == 3
        for plan in plans:
            # CSR indptr and indices, one uint8 code per entry, and the
            # (value's imag > 0, copies of mu, copies of nu) triples it numbers.
            indptr, indices, code, triples = plan
            assert len(indptr) == 5995 + 1 and len(indices) == len(code) == indptr[-1]
            assert code.dtype == np.uint8 and triples.shape[0] == 3
            assert np.array_equal(np.unique(code), np.arange(triples.shape[1]))
            # Both signs, and (c, d) with c + d <= n_max + 1: (1, 1), (1, 2), (2, 1).
            occurring = [(sign, c, d) for sign in (0, 1) for c, d in [(1, 1), (1, 2), (2, 1)]]
            assert sorted(map(tuple, triples.T.tolist())) == occurring
            assert not any(array.flags.writeable for array in plan)

    @pytest.mark.parametrize("shape, n_max", [((4, 3, 3), 2), ((3, 3, 3), 3)])
    def test_a_plan_hit_gathers_from_the_occurring_amplitudes(self, monkeypatch, shape, n_max):
        FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max).position_operators()
        fs = FockSpace(MomentumLattice(shape=shape, spacing=1.3), n_max=n_max)
        seen = []
        amplitudes = FockSpace._amplitudes

        def spied(space, h_values, *copies):
            seen.append(len(copies[0]))
            return amplitudes(space, h_values, *copies)

        def refuse(*args):
            raise AssertionError("a plan hit rebuilt a stencil")

        monkeypatch.setattr(FockSpace, "_amplitudes", spied)
        monkeypatch.setattr(MomentumLattice, "_stencil", refuse)
        tracemalloc.start()
        try:
            X = fs.position_operators()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seen) == 3 and max(seen) <= 2 * (n_max + 1) ** 2
        # Beside the gathered data and the index copies, the hit holds at most
        # np.take's own intp copy of one component's uint8 codes, 8 bytes per
        # entry, freed before that component's index copies: no per-entry
        # product, root or hop array, as a build from per-entry counts makes.
        returned = sum(array.nbytes for x in X for array in (x.data, x.indices, x.indptr))
        assert peak - returned < 8 * X[0].nnz
        assert [f"{'x'.join(map(str, shape))} {n_max} 1.3 {axis} {csr_digest(x)}"
                for axis, x in enumerate(X)] == pinned_x_lines([(shape, n_max, 1.3)])

    # 1/(2 spacing) is finite at 3e-309, but times sqrt(2) it overflows; at
    # 5e-309 it is 1e308, and only the n_max = 3 entry (h sqrt(2)) sqrt(2) overflows.
    @pytest.mark.parametrize("n_max, spacing", [(2, 3e-309), (3, 5e-309)])
    def test_a_spacing_whose_x_overflows_is_rejected_on_every_path(self, n_max, spacing):
        # Tier-1 turns a RuntimeWarning on the way into an error.
        bad, good = (MomentumLattice(shape=(3, 3, 3), spacing=s) for s in (spacing, 0.5))
        for path in ("keeping", "hit"):
            slot = sq._slot
            with pytest.raises(ValueError, match=rf"spacing {spacing!r} at n_max={n_max}"):
                FockSpace(bad, n_max=n_max).position_operators()
            # A rejected build keeps nothing; a good one moves to the next path.
            assert sq._slot is slot
            FockSpace(good, n_max=n_max).position_operators()
        assert sq._slot[0] == ((3, 3, 3), n_max)

    def test_a_mutated_build_leaves_the_next_pinned(self):
        spaces = [((4, 3, 3), 2, 0.5)]
        # The build that keeps the plan, then one reading it, each mutated.
        for _ in range(2):
            for x in FockSpace(MomentumLattice(shape=(4, 3, 3), spacing=0.5), n_max=2).position_operators():
                x.indices[:] = 0
                x.indptr[1:] = x.indptr[-1]
                x.data[:] = 7.0
            assert x_digest_lines(spaces) == pinned_x_lines(spaces)


def tables(fs):
    return fs.sectors, fs.offsets, fs._tails, fs.basis, fs.index


def enumerated_modes(monkeypatch):
    """The list that every later call of itertools.combinations_with_replacement
    appends the number of modes enumerated to."""
    modes = []
    combinations = itertools.combinations_with_replacement

    def counted(iterable, r):
        modes.append(len(iterable))
        return combinations(iterable, r)

    monkeypatch.setattr(itertools, "combinations_with_replacement", counted)
    return modes


class TestSharedTables:
    """A space constructed after an X build at its (shape, n_max) takes its
    tables from the slot that holds X's plan; every other space builds its
    own, and only an X build writes the slot."""

    @staticmethod
    def assert_shares(fs):
        kept = sq._slot[1]
        assert len(kept) == 5 and all(got is want for got, want in zip(tables(fs), kept))

    def test_a_space_after_the_kept_plan_enumerates_no_state(self, monkeypatch):
        FockSpace(MomentumLattice(shape=(4, 3, 3), spacing=0.5), n_max=2).position_operators()

        def refuse(*args):
            raise AssertionError("the constructor enumerated the states")

        monkeypatch.setattr(itertools, "combinations_with_replacement", refuse)
        for spacing in (0.5, 0.9):
            fs = FockSpace(MomentumLattice(shape=(4, 3, 3), spacing=spacing), n_max=2)
            self.assert_shares(fs)
            assert fs.dim == 5995 and fs.nmodes == 108 and fs.lattice.spacing == spacing

    def test_only_the_spaces_before_the_first_build_build_their_own(self, monkeypatch):
        modes = enumerated_modes(monkeypatch)
        lat = MomentumLattice(shape=(4, 3, 3), spacing=0.5)
        first, second = FockSpace(lat, n_max=2), FockSpace(lat, n_max=2)
        assert modes == [108] * 6
        assert not any(a is b for a, b in zip(tables(first), tables(second)))
        # The first build keeps the tables of the space it runs on, and the
        # next space takes them.
        first.position_operators()
        self.assert_shares(first)
        self.assert_shares(FockSpace(lat, n_max=2))
        assert modes == [108] * 6

    @pytest.mark.parametrize("shape, n_max", [((3, 3, 3), 2), ((4, 3, 3), 1), ((4, 3, 3), 3)])
    def test_a_space_at_another_key_builds_fresh_tables(self, monkeypatch, shape, n_max):
        FockSpace(MomentumLattice(shape=(4, 3, 3), spacing=0.5), n_max=2).position_operators()
        slot = sq._slot
        modes = enumerated_modes(monkeypatch)
        fs = FockSpace(MomentumLattice(shape=shape, spacing=0.5), n_max=n_max)
        assert modes == [fs.nmodes] * (n_max + 1)
        assert not any(a is b for a, b in zip(tables(fs), slot[1]))
        assert list(fs.basis) == [state for n in range(n_max + 1)
                                  for state in itertools.combinations_with_replacement(range(fs.nmodes), n)]
        # A space that builds no X leaves the slot as it was.
        assert sq._slot is slot

    @pytest.mark.parametrize("shared", [False, True])
    def test_the_table_arrays_are_read_only(self, shared):
        if shared:
            FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.5), n_max=2).position_operators()
        fs = FockSpace(MomentumLattice(shape=(3, 3, 3), spacing=0.7), n_max=2)
        assert (sq._slot is not None) == shared
        for n in range(3):
            with pytest.raises(ValueError, match="read-only"):
                fs.sectors[n][...] = 0
        with pytest.raises(ValueError, match="read-only"):
            fs.offsets[1] = 0
        for r in range(3):
            with pytest.raises(ValueError, match="read-only"):
                fs._tails[r][0] = 0

    def test_the_shared_basis_and_index_are_read_only(self):
        lat = MomentumLattice(shape=(3, 3, 3), spacing=0.5)
        first = FockSpace(lat, n_max=2)
        first.position_operators()
        basis, index = list(first.basis), dict(first.index)
        with pytest.raises(TypeError):
            first.basis[1] = (0, 0)
        with pytest.raises(AttributeError):
            first.basis.append((0, 0))
        with pytest.raises(TypeError):
            first.index[(0, 0)] = 1
        with pytest.raises(TypeError):
            del first.index[(0,)]
        later = FockSpace(lat, n_max=2)
        self.assert_shares(later)
        assert list(later.basis) == basis and later.index == index

    def test_verify_keeps_after_its_first_run(self, monkeypatch):
        # verify.fock_suite builds X on 3x3x3, then constructs its ladder and
        # one-body spaces, 2x1x1 and 3x1x1, without X; the one-body space
        # walks for its own operator.
        from photonguide import verify

        modes = enumerated_modes(monkeypatch)
        walks = []
        walk = FockSpace._walk

        def counted(fs, *args):
            walks.append(fs.nmodes)
            return walk(fs, *args)

        monkeypatch.setattr(FockSpace, "_walk", counted)
        runs = [verify.fock_suite(seed=42)]
        # One run keeps the 3x3x3 tables and plan.
        slot = sq._slot
        key, kept, plans = slot
        assert key == ((3, 3, 3), 2) and kept[1].tolist() == [0, 1, 82, 3403] and len(plans) == 3
        runs += [verify.fock_suite(seed=42) for _ in range(2)]
        assert runs[0] == runs[1] == runs[2]
        # The spaces without X never write the slot, so the later runs' 3x3x3
        # spaces read both the tables and the plan: they enumerate and walk
        # the small spaces alone.
        assert sq._slot is slot
        per_space = [modes[i:i + 3] for i in range(0, len(modes), 3)]
        assert per_space == [[81] * 3, [6] * 3, [9] * 3] + [[6] * 3, [9] * 3] * 2
        assert walks == [81, 9, 9, 9]


if __name__ == "__main__":
    print("# sha256 of each CSR component of FockSpace.position_operators(): indptr and indices as int64,")
    print("# data bytes, has_canonical_format; one 'shape n_max spacing axis digest' line per component")
    print(*x_digest_lines(), sep="\n")
    sys.exit(0)
