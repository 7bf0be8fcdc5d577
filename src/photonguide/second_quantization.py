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
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import momentum_basis as mb
from .errors import LatticeTooSmall, PhotonGuideError, UnknownMode


def _index_or(value, default: int) -> int:
    """value as an int by operator.index, or default if it is not integral."""
    try:
        return operator.index(value)
    except TypeError:
        return default


@dataclass(frozen=True)
class MomentumLattice:
    """Regular rectangular k-grid, k = spacing * (1 + n1, 1 + n2, 1 + n3).

    Every point lies strictly inside the positive octant, so k = 0 is
    excluded and all points are well away from the polarization seam.  The
    box is periodic: the wrap is what makes X Hermitian.
    """

    shape: tuple[int, int, int]
    spacing: float

    def __post_init__(self):
        # A subnormal spacing would overflow the stencil weight 1/(2 spacing).
        if not (0.0 < self.spacing < np.inf and math.isfinite(1.0 / (2.0 * float(self.spacing)))):
            raise ValueError(f"lattice spacing must be positive and finite, and 1/(2 spacing) finite, got {self.spacing}")
        if len(self.shape) != 3 or min(_index_or(n, 0) for n in self.shape) < 1:
            raise ValueError(f"lattice shape must be three extents, integers >= 1, got {self.shape}")
        # The largest point, as points forms it, must not overflow to inf.
        if not math.isfinite(float(self.spacing) + float(self.spacing) * (max(self.shape) - 1)):
            raise ValueError(f"lattice spacing {self.spacing} puts the far corner of {self.shape} beyond the float range")

    @property
    def npoints(self) -> int:
        n1, n2, n3 = self.shape
        return n1 * n2 * n3

    @property
    def points(self) -> np.ndarray:
        """(N, 3) array, flattened in C order over the index grid."""
        grids = [self.spacing + self.spacing * np.arange(n) for n in self.shape]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _stencil(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """The periodic central difference along axis, row by row: row i holds
        +half at fwd[i] and -half at bwd[i].  Returns the (N, 2) sorted column
        pair of each row and its (N, 2) values."""
        if self.shape[axis] < 3:
            raise LatticeTooSmall(
                f"need >= 3 points along axis {axis}, got {self.shape[axis]}"
            )
        idx = np.arange(self.npoints).reshape(self.shape)
        fwd = np.roll(idx, -1, axis=axis).ravel()
        bwd = np.roll(idx, +1, axis=axis).ravel()
        half = 1.0 / (2.0 * self.spacing)
        swap = fwd > bwd
        cols = np.stack([np.where(swap, bwd, fwd), np.where(swap, fwd, bwd)], axis=1)
        data = np.stack([np.where(swap, -half, half), np.where(swap, half, -half)], axis=1)
        return cols, data

    def gradient_matrix(self, axis: int) -> sp.csr_matrix:
        """Periodic central-difference matrix D_axis on flat point indices."""
        cols, data = self._stencil(axis)
        # Two entries per row, the smaller column first: canonical CSR form.
        indptr = np.arange(0, 2 * self.npoints + 1, 2)
        return sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(self.npoints, self.npoints))


def _lifted_gradients(lattice: MomentumLattice) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The canonical CSC arrays of 1j * (D_axis kron I_3) for the three axes,
    the lift of D to the modes point * 3 + helicity: one shared indptr and an
    (indices, data) pair per axis.  D is antisymmetric, so column j of D is
    row j with its values negated; column 3j + h of the lift holds it at the
    rows 3i + h."""
    helicity = np.arange(3)[:, None]
    lifts = []
    for axis in range(3):
        cols, data = lattice._stencil(axis)
        lifts.append(((3 * cols[:, None] + helicity).ravel(), np.repeat(1j * -data, 3, axis=0).ravel()))
    return np.arange(0, 6 * lattice.npoints + 1, 2), lifts


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
        if _index_or(n_max, 0) < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {n_max}")
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
        self.index = dict(zip(self.basis, range(len(self.basis))))

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
        point = _index_or(point_index, -1)
        if lam not in mb.HELICITIES or not (0 <= point < self.lattice.npoints):
            raise UnknownMode(f"no lattice mode (point {point_index}, helicity {lam})")
        return point * 3 + mb.HELICITIES.index(lam)

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
        Conserves total photon number by construction.  h is converted to
        complex CSC once, here.
        """
        h = sp.csc_matrix(h_mode, dtype=complex)
        if h.shape != (self.nmodes, self.nmodes):
            raise ValueError(f"mode matrix of shape {h.shape}: must be ({self.nmodes}, {self.nmodes})")
        return self._one_body(h.indptr, [(h.indices, h.data)])[0]

    def _one_body(self, indptr: np.ndarray, hs) -> list[sp.csr_matrix]:
        """:meth:`one_body_operator` of each of several (M, M) mode matrices
        given as complex CSC arrays, one (indices, data) pair each, that share
        the column pointer indptr: the hops, copies, kept slots and columns
        are found once, and each matrix adds its own nu and amplitudes."""
        # A state holding mu is mu plus a state of one photon less: nnz(h) * offsets[n_max] hops.
        index = np.int32 if self.dim <= np.iinfo(np.int32).max else np.int64
        total = int(indptr[-1]) * int(self.offsets[-2])
        cols = np.empty(total, dtype=index)
        rows = [np.empty(total, dtype=index) for _ in hs]
        data = [np.empty(total, dtype=complex) for _ in hs]
        stop = 0
        for n in range(1, self.n_max + 1):
            columns = self.sectors[n].T
            for p in range(n):
                sel = np.flatnonzero(columns[p] != columns[p - 1]) if p else np.arange(columns.shape[1])
                mu = columns[p][sel]
                copies = sum((column[sel] == mu for column in columns[p + 1:]), np.ones(len(sel), dtype=np.int64))
                nhops = indptr[mu + 1] - indptr[mu]
                first_hop = np.cumsum(nhops) - nhops
                hop = np.repeat(indptr[mu] - first_hop, nhops) + np.arange(nhops.sum())
                source = np.repeat(sel, nhops)
                kept = [columns[j][source] for j in range(n) if j != p]
                root_copies = np.repeat(np.sqrt(copies), nhops)
                start, stop = stop, stop + len(hop)
                cols[start:stop] = self.offsets[n] + source
                for (h_indices, h_values), h_rows, h_data in zip(hs, rows, data):
                    nu, val = h_indices[hop], h_values[hop]
                    rest_nu = sum(column == nu for column in kept)
                    # Slot c of the sorted row is max(kept[c - 1], min(kept[c], nu)).
                    capped = [np.minimum(column, nu) for column in kept] + [nu]
                    after = np.empty((n, len(nu)), dtype=np.int64)
                    after[0] = capped[0]
                    for c in range(1, n):
                        np.maximum(kept[c - 1], capped[c], out=after[c])
                    h_rows[start:stop] = self._ranks(after.T)
                    amplitude = np.multiply(val, root_copies, out=h_data[start:stop])
                    amplitude *= np.sqrt(rest_nu + 1)
        # The constructor sums duplicate entries.
        return [sp.csr_matrix((h_data, (h_rows, cols)), shape=(self.dim, self.dim))
                for h_rows, h_data in zip(rows, data)]

    def position_operators(self) -> list[sp.csr_matrix]:
        """The three components of X; each Hermitian, mutually commuting.
        The lifted gradients go to the walk as arrays, so no scipy matrix is
        built before its three COO -> CSR conversions."""
        return self._one_body(*_lifted_gradients(self.lattice))

    # --- state constructors -------------------------------------------------

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[0]] = 1.0
        return vec

    def one_photon_vector(self, coeffs: np.ndarray) -> np.ndarray:
        """Embed a coefficient array of shape (npoints, 3) as a one-photon state."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[1]:self.offsets[2]] = np.asarray(coeffs, dtype=complex).ravel()
        return vec


def expectation(op: sp.spmatrix, vec: np.ndarray) -> complex:
    return complex(np.vdot(vec, op @ vec) / np.vdot(vec, vec))

