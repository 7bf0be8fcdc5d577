"""Truncated Fock space over a discrete momentum lattice and the
second-quantized photon position operator.

The position operator is the one-body operator

    X_j = sum_{k, lam} a^dag(k, lam) a(k, lam) (i d/dk_j)

realized so that on a one-photon state with coefficient function c(k, lam)
its action is i times the periodic central-difference stencil applied to c.
Periodic wrap is mandatory: it is what makes the stencil anti-Hermitian and
hence X Hermitian.  Stencils along distinct axes commute as lattice matrices,
so the components of X commute exactly, photon number is conserved, and on
product multi-photon states the expectation is additive over photons.

Truncation is by *total* photon number (n_max quanta overall, default 2).
A one-body operator never changes the total, so the truncation is exact for
everything verified here; creation out of the top sector maps to zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import momentum_basis as mb
from .errors import LatticeTooSmall, PhotonGuideError, UnknownMode, ZeroMomentum
from .position_operator import PositionKind, Scheme, apply_position, frame

HELICITIES = mb.HELICITIES


@dataclass(frozen=True)
class MomentumLattice:
    """Regular rectangular k-grid, k = origin + spacing * (n1, n2, n3).

    The default origin keeps every point strictly inside the positive octant,
    so k = 0 is excluded and all points are well away from the polarization
    seam.  The box is periodic: the wrap is what makes X Hermitian.
    """

    shape: tuple[int, int, int]
    spacing: float
    origin: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.spacing < np.inf:
            raise ValueError(f"lattice spacing must be positive and finite, got {self.spacing}")
        if len(self.shape) != 3 or min(self.shape) < 1:
            raise ValueError(f"lattice shape must be three extents >= 1, got {self.shape}")
        if self.origin is None:
            object.__setattr__(self, "origin", (self.spacing,) * 3)
        if np.any(np.all(self.points == 0.0, axis=1)):
            raise ZeroMomentum("momentum lattice must exclude k = 0")

    @property
    def npoints(self) -> int:
        n1, n2, n3 = self.shape
        return n1 * n2 * n3

    @property
    def points(self) -> np.ndarray:
        """(N, 3) array, flattened in C order over the index grid."""
        grids = [self.origin[a] + self.spacing * np.arange(self.shape[a]) for a in range(3)]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def gradient_matrix(self, axis: int) -> sp.csr_matrix:
        """Periodic central-difference matrix D_axis on flat point indices."""
        if self.shape[axis] < 3:
            raise LatticeTooSmall(
                f"need >= 3 points along axis {axis}, got {self.shape[axis]}"
            )
        idx = np.arange(self.npoints).reshape(self.shape)
        fwd = np.roll(idx, -1, axis=axis).ravel()
        bwd = np.roll(idx, +1, axis=axis).ravel()
        rows = np.concatenate([idx.ravel(), idx.ravel()])
        cols = np.concatenate([fwd, bwd])
        half = 1.0 / (2.0 * self.spacing)
        data = np.concatenate([np.full(self.npoints, half), np.full(self.npoints, -half)])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.npoints, self.npoints))


def lattice_gradient(lattice: MomentumLattice, c: np.ndarray) -> np.ndarray:
    """Periodic central-difference gradient of a grid function.

    c has shape lattice.shape (+ trailing axes); returns (3,) + c.shape.
    """
    out = []
    for axis in range(3):
        if lattice.shape[axis] < 3:
            raise LatticeTooSmall(f"need >= 3 points along axis {axis}")
        out.append((np.roll(c, -1, axis=axis) - np.roll(c, +1, axis=axis)) / (2.0 * lattice.spacing))
    return np.array(out)


class FockSpace:
    """Occupation-number space over (lattice point, helicity) modes, truncated
    at ``n_max`` total photons.

    Basis states are sorted tuples of mode indices (multisets); mode index is
    point_index * 3 + helicity_index with helicities ordered (-1, 0, +1).  The
    basis runs sector by sector in photon number and lexicographically within
    a sector, the order of ``itertools.combinations_with_replacement``.
    ``sectors[n]`` holds the n-photon states as rows of an (S_n, n) integer
    array starting at basis index ``offsets[n]``; ``basis`` and ``index`` are
    the same states as tuples and their inverse map.
    """

    def __init__(self, lattice: MomentumLattice, n_max: int = 2):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.lattice = lattice
        self.n_max = n_max
        self.nmodes = lattice.npoints * 3
        if self.nmodes ** n_max > np.iinfo(np.int64).max:
            raise PhotonGuideError(
                f"{self.nmodes} modes at n_max={n_max}: tail counts up to {self.nmodes}^{n_max} "
                "would overflow int64"
            )
        self.basis: list[tuple[int, ...]] = []
        self.sectors = []
        for n in range(n_max + 1):
            states = list(itertools.combinations_with_replacement(range(self.nmodes), n))
            self.basis.extend(states)
            self.sectors.append(np.fromiter(
                itertools.chain.from_iterable(states), np.int64, n * len(states)
            ).reshape(len(states), n))
        self.offsets = np.concatenate([[0], np.cumsum([len(states) for states in self.sectors])])
        # _tails[r][v]: sorted r-tuples of modes with every entry >= v, at most
        # M^r; one reverse cumsum per r, and _tails[n][0] = len(sectors[n]).
        self._tails = [np.ones(self.nmodes + 1, dtype=np.int64)]
        for _ in range(n_max):
            self._tails.append(np.append(np.cumsum(self._tails[-1][-2::-1])[::-1], 0))
        self.index = {state: i for i, state in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    def _ranks(self, states: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of an (S, n) array of sorted mode indices,
        counted back from the sector's last row: the rows after m_0 <= ... <=
        m_{n-1} that first differ at slot i hold entries > m_i from there on,
        _tails[n - i][m_i + 1] of them."""
        n = states.shape[1]
        above = np.zeros(len(states), dtype=np.int64)
        for i in range(n):
            above += self._tails[n - i][1:][states[:, i]]
        return self.offsets[n + 1] - 1 - above

    def mode_index(self, point_index: int, lam: int) -> int:
        if lam not in HELICITIES or not (0 <= point_index < self.lattice.npoints):
            raise UnknownMode(f"no lattice mode (point {point_index}, helicity {lam})")
        return point_index * 3 + HELICITIES.index(lam)

    def annihilate(self, point_index: int, lam: int) -> sp.csr_matrix:
        """Ladder operator a(k, lam) with the standard sqrt(n) factors."""
        mu = self.mode_index(point_index, lam)
        rows, cols, data = [], [], []
        for col, state in enumerate(self.basis):
            c = state.count(mu)
            if c == 0:
                continue
            pos = state.index(mu)
            target = state[:pos] + state[pos + 1:]
            rows.append(self.index[target])
            cols.append(col)
            data.append(np.sqrt(c))
        return sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))

    def create(self, point_index: int, lam: int) -> sp.csr_matrix:
        """a^dag(k, lam); components beyond the total-number cap are dropped."""
        return self.annihilate(point_index, lam).conj().T.tocsr()

    def number_operator(self) -> sp.csr_matrix:
        totals = np.repeat(np.arange(self.n_max + 1, dtype=float), np.diff(self.offsets))
        return sp.diags(totals).tocsr()

    def one_body_operator(self, h_mode: sp.spmatrix) -> sp.csr_matrix:
        """sum_{mu,nu} h[nu, mu] a^dag(nu) a(mu) for an (M, M) mode matrix.

        Built sector by sector and slot by slot over all states at once: the
        slot p holding the first copy of mode mu (c copies) hops to each nu in
        column mu of h, nu is merged into the other, already sorted slots, and
        the row is ranked within its sector.  The amplitude is
        h[nu, mu] sqrt(c) sqrt(copies of nu left + 1).
        Conserves total photon number by construction.
        """
        h = sp.csc_matrix(h_mode, dtype=complex)
        rows, cols, data = [], [], []
        for n in range(1, self.n_max + 1):
            columns = self.sectors[n].T
            for p in range(n):
                sel = np.flatnonzero(columns[p] != columns[p - 1]) if p else np.arange(columns.shape[1])
                mu = columns[p][sel]
                copies = np.ones(len(sel), dtype=np.int64)
                for column in columns[p + 1:]:
                    copies += column[sel] == mu
                nhops = h.indptr[mu + 1] - h.indptr[mu]
                first_hop = np.cumsum(nhops) - nhops
                hop = np.repeat(h.indptr[mu] - first_hop, nhops) + np.arange(nhops.sum())
                nu, val = h.indices[hop], h.data[hop]
                source = np.repeat(sel, nhops)
                kept = [columns[j][source] for j in range(n) if j != p]
                rest_nu = np.zeros(len(nu), dtype=np.int64)
                for column in kept:
                    rest_nu += column == nu
                # Slot c of the sorted row is max(kept[c - 1], min(kept[c], nu)).
                capped = [np.minimum(column, nu) for column in kept] + [nu]
                after = np.empty((n, len(nu)), dtype=np.int64)
                after[0] = capped[0]
                for c in range(1, n):
                    np.maximum(kept[c - 1], capped[c], out=after[c])
                rows.append(self._ranks(after.T))
                cols.append(self.offsets[n] + source)
                data.append(val * np.repeat(np.sqrt(copies), nhops) * np.sqrt(rest_nu + 1))
        mat = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim),
        )
        mat.sum_duplicates()
        return mat

    def position_operators(self) -> list[sp.csr_matrix]:
        """The three components of X; each Hermitian, mutually commuting."""
        eye3 = sp.identity(3, format="csr")
        return [
            self.one_body_operator(1j * sp.kron(self.lattice.gradient_matrix(axis), eye3))
            for axis in range(3)
        ]

    # --- state constructors -------------------------------------------------

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[0]] = 1.0
        return vec

    def basis_state(self, modes: tuple[int, ...]) -> np.ndarray:
        state = np.sort(np.asarray(modes, dtype=np.int64))[None, :]
        if state.shape[1] > self.n_max or np.any((state < 0) | (state >= self.nmodes)):
            raise UnknownMode(
                f"no basis state {tuple(modes)} with {self.nmodes} modes and n_max={self.n_max}"
            )
        vec = np.zeros(self.dim, dtype=complex)
        vec[self._ranks(state)] = 1.0
        return vec

    def one_photon_vector(self, coeffs: np.ndarray) -> np.ndarray:
        """Embed a coefficient array of shape (npoints, 3) as a one-photon state."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[1]:self.offsets[2]] = np.asarray(coeffs, dtype=complex).ravel()
        return vec

    def one_photon_coefficients(self, vec: np.ndarray) -> np.ndarray:
        one = np.array(vec[self.offsets[1]:self.offsets[2]], dtype=complex)
        return one.reshape(self.lattice.npoints, 3)


def expectation(op: sp.spmatrix, vec: np.ndarray) -> complex:
    return complex(np.vdot(vec, op @ vec) / np.vdot(vec, vec))


def one_photon_equivalence(space: FockSpace, ops: list[sp.spmatrix], rng: np.random.Generator,
                           samples: int = 20) -> float:
    """Max deviation between X acting on one-photon states and the direct
    i * lattice stencil on the coefficient function.  ``ops`` are the three
    components of X, ``space.position_operators()``.  Same stencil, two code
    paths; should agree to rounding."""
    lattice = space.lattice
    worst = 0.0
    for _ in range(samples):
        c = rng.standard_normal((lattice.npoints, 3)) + 1j * rng.standard_normal((lattice.npoints, 3))
        vec = space.one_photon_vector(c)
        grid = c.reshape(lattice.shape + (3,))
        stencil = 1j * lattice_gradient(lattice, grid)
        for axis in range(3):
            direct = stencil[axis].reshape(lattice.npoints, 3)
            via_fock = space.one_photon_coefficients(ops[axis] @ vec)
            worst = max(worst, float(np.max(np.abs(direct - via_fock))))
    return worst


def momentum_average_position(
    lattice_points: np.ndarray,
    plus_coeffs,
    minus_coeffs,
    scheme: Scheme | None = None,
) -> np.ndarray:
    """Momentum-space average of the position operator over spinor fields.

    ``plus_coeffs`` and ``minus_coeffs`` are the k-independent amplitudes
    (ordered by helicity -1, 0, +1) multiplying the f spinors and the
    reflected g spinors respectively; the fields are

        phi_plus(k)  = sum_lam plus[lam]  sqrt(omega) f(k, lam)
        phi_minus(k) = sum_lam minus[lam] sqrt(omega) g(-k, lam)

    and the result is sum_k (1/2 omega) [phi+^dag X+ phi+ + phi-^dag X- phi-]
    with the 6-component operator variants applied by finite differences at
    each lattice point.  Returned with its (rounding-level) imaginary part so
    callers can verify Hermiticity.
    """
    scheme = scheme or Scheme(h=1e-3, order=4)
    plus = np.asarray(plus_coeffs, dtype=complex)
    minus = np.asarray(minus_coeffs, dtype=complex)

    k = np.asarray(lattice_points, dtype=float).reshape(-1, 3)
    weight = 2.0 * mb.omega(k)[:, None]
    total = np.zeros(3, dtype=complex)
    for kind, coeffs in ((PositionKind.SPINOR_PLUS, plus), (PositionKind.SPINOR_MINUS, minus)):
        if np.any(coeffs != 0.0):
            def phi(q, kind=kind, coeffs=coeffs):
                # Summed term by term: a matmul would reorder the sum.
                u = frame(kind, q)
                w = np.sqrt(mb.omega(q))[..., None]
                return sum(coeffs[i] * w * u[..., i, :] for i in range(len(HELICITIES)))

            applied = apply_position(kind, phi, k, scheme)
            total += np.sum((applied @ np.conj(phi(k))[..., None])[..., 0] / weight, axis=0)
    return total
