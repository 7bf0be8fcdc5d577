"""Tests for the truncated Fock space and second-quantized position operator."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from photonguide import second_quantization as sq
from photonguide.errors import LatticeTooSmall, PhotonGuideError, UnknownMode, ZeroMomentum
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

    def test_zero_momentum_rejected(self):
        with pytest.raises(ZeroMomentum):
            MomentumLattice(shape=(3, 3, 3), spacing=0.5, origin=(0.0, 0.0, 0.0))

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

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -0.5])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        with pytest.raises(ValueError, match="spacing"):
            MomentumLattice(shape=(3, 3, 3), spacing=spacing)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 3), (-1, 3, 3), (3, 3)])
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
        state = space.basis_state((mu, mu))
        n_op = space.create(5, -1) @ space.annihilate(5, -1)
        assert np.max(np.abs(n_op @ state - 2.0 * state)) <= 1e-14

    def test_canonical_commutator_on_small_space(self):
        # On a lattice whose one-mode sector never hits the truncation cap,
        # [a, a^dag] acts as the identity on all states with total < n_max.
        lat = MomentumLattice(shape=(3, 1, 1), spacing=0.5)
        fs = FockSpace(lat, n_max=3)
        a = fs.annihilate(1, 0)
        comm = (a @ fs.create(1, 0) - fs.create(1, 0) @ a).toarray()
        keep = [i for i, state in enumerate(fs.basis) if len(state) < fs.n_max]
        sub = comm[np.ix_(keep, keep)]
        assert np.max(np.abs(sub - np.eye(len(keep)))) <= 1e-14

    def test_unknown_mode_rejected(self, space):
        with pytest.raises(UnknownMode):
            space.annihilate(27, +1)
        with pytest.raises(UnknownMode):
            space.annihilate(0, 2)

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
                adag = fs.create(nu // 3, sq.HELICITIES[nu % 3])
                a = fs.annihilate(mu // 3, sq.HELICITIES[mu % 3])
                explicit += h[nu, mu] * (adag @ a).toarray()
        assert np.max(np.abs(via_one_body - explicit)) <= 1e-12


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
        assert sq.one_photon_equivalence(space, space.position_operators(), RNG, samples=10) <= 1e-12

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

    def test_basis_state_rejects_unknown_modes(self):
        fs = FockSpace(MomentumLattice(shape=(2, 1, 1), spacing=0.5), n_max=2)
        assert np.flatnonzero(fs.basis_state((4, 1)))[0] == fs.index[(1, 4)]
        for modes in [(6,), (-1,), (0, 0, 0)]:
            with pytest.raises(UnknownMode):
                fs.basis_state(modes)

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
            adag = fs.create(nu // 3, sq.HELICITIES[nu % 3])
            for mu in range(fs.nmodes):
                a = fs.annihilate(mu // 3, sq.HELICITIES[mu % 3])
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


class TestMomentumAveragePosition:
    def lattice_points(self):
        return MomentumLattice(shape=(3, 3, 3), spacing=0.5, origin=(1.0, 1.0, 1.0)).points

    def test_zero_coefficients(self):
        out = sq.momentum_average_position(self.lattice_points(), [0, 0, 0], [0, 0, 0])
        assert np.max(np.abs(out)) == 0.0

    def test_real_for_physical_coefficients(self):
        out = sq.momentum_average_position(
            self.lattice_points(), [0.2, 0.5, 0.1], [0.3, 0.0, 0.4])
        assert np.max(np.abs(out.imag)) <= 1e-10

    def test_matches_term_by_term_oracle(self):
        # Oracle: accumulate the per-mode, per-branch contributions with an
        # independently coded loop; with equal occupation of the two branches
        # the total is twice the single-branch sum.
        from photonguide import momentum_basis as mb
        from photonguide.position_operator import PositionKind, Scheme, apply_position

        points = self.lattice_points()
        plus = np.array([0.3, -0.2, 0.5], dtype=complex)
        scheme = Scheme(h=1e-3, order=4)

        def phi(k):
            w = np.sqrt(mb.omega(k))[..., None]
            return sum(plus[i] * w * mb.spinor_f(k, lam)
                       for i, lam in enumerate(sq.HELICITIES))

        oracle = np.zeros(3, dtype=complex)
        for k in points:
            val = phi(k)
            applied = apply_position(PositionKind.SPINOR_PLUS, phi, k, scheme)
            oracle += applied @ np.conj(val) / (2.0 * mb.omega(k))

        single = sq.momentum_average_position(points, plus, [0, 0, 0], scheme)
        both = sq.momentum_average_position(points, plus, plus, scheme)
        assert np.max(np.abs(single - oracle)) <= 1e-12
        # g(-k, lam) spans a frame with the same localization structure, so
        # equal amplitudes on both branches double the (near-zero) average.
        assert np.max(np.abs(both)) <= 2.0 * np.max(np.abs(single)) + 1e-10
