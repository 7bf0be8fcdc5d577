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

Truncation is by *total* photon number (n_max quanta overall).
A one-body operator never changes the total, so the truncation is exact for
everything verified here; creation out of the top sector maps to zero.
"""

from __future__ import annotations

import itertools
import math
import operator
import types
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import momentum_basis as mb
from .errors import LatticeTooSmall, PhotonGuideError, UnknownMode


# None or (key, tables, plans): the (lattice shape, n_max) of the last X built,
# a space's tables there and X's CSR plans; see FockSpace.position_operators.
# It lives in the module because a space builds its X once: only spaces rebuilt
# at a new spacing repeat a key.
_slot = None


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
        # A tuple of Python ints, so that lattices equal in extent compare and hash equal.
        object.__setattr__(self, "shape", tuple(operator.index(n) for n in self.shape))
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
        pair of each row and the mask of the rows where fwd > bwd."""
        if self.shape[axis] < 3:
            raise LatticeTooSmall(
                f"need >= 3 points along axis {axis}, got {self.shape[axis]}"
            )
        idx = np.arange(self.npoints).reshape(self.shape)
        fwd = np.roll(idx, -1, axis=axis).ravel()
        bwd = np.roll(idx, +1, axis=axis).ravel()
        swap = fwd > bwd
        return np.stack([np.where(swap, bwd, fwd), np.where(swap, fwd, bwd)], axis=1), swap

    def gradient_matrix(self, axis: int) -> sp.csr_matrix:
        """Periodic central-difference matrix D_axis on flat point indices."""
        cols, swap = self._stencil(axis)
        half = 1.0 / (2.0 * self.spacing)
        values = np.stack([np.where(swap, -half, half), np.where(swap, half, -half)], axis=1)
        # Two entries per row, the smaller column first: canonical CSR form.
        indptr = np.arange(0, 2 * self.npoints + 1, 2)
        return sp.csr_matrix((values.ravel(), cols.ravel(), indptr), shape=(self.npoints,) * 2)


def _lifted_gradients(lattice: MomentumLattice) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The canonical CSC structure of 1j * (D_axis kron I_3) for the three
    axes, the lift of D to the modes point * 3 + helicity: one shared indptr
    and per axis the indices and the sign of each entry, up, true where the
    entry is +ih and false where it is -ih, h = 1/(2 spacing).  D is
    antisymmetric, so column j of D is row j with its values negated; column
    3j + h of the lift holds it at the rows 3i + h."""
    helicity = np.arange(3)[:, None]
    lifts = []
    for axis in range(3):
        cols, swap = lattice._stencil(axis)
        up = np.repeat(np.stack([swap, ~swap], axis=1), 3, axis=0).ravel()
        lifts.append(((3 * cols[:, None] + helicity).ravel(), up))
    return np.arange(0, 6 * lattice.npoints + 1, 2), lifts


def lattice_gradient(lattice: MomentumLattice, c: np.ndarray) -> np.ndarray:
    """Periodic central-difference gradient of a grid function.

    c has shape lattice.shape (+ trailing axes); returns (3,) + c.shape.
    """
    if c.shape[:3] != lattice.shape:
        raise ValueError(f"grid function of shape {c.shape}: must start with the lattice shape {lattice.shape}")
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
    array starting at basis index ``offsets[n]``, and :meth:`_ranks` maps
    such rows back to basis indices.  ``basis`` and ``index`` are the same
    states as a tuple of tuples and a read-only map to their indices.  Once
    X's plan is kept at a (shape, n_max), later spaces there share these
    tables, all of them read-only in every space.
    """

    def __init__(self, lattice: MomentumLattice, n_max: int):
        if _index_or(n_max, 0) < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {n_max}")
        self.lattice = lattice
        # A Python int, so that the guard's power cannot wrap as a numpy integer's does.
        self.n_max = n_max = operator.index(n_max)
        self.nmodes = lattice.npoints * 3
        if self.nmodes ** n_max > np.iinfo(np.int64).max:
            raise PhotonGuideError(
                f"{self.nmodes} modes at n_max={n_max}: tail counts up to {self.nmodes}^{n_max} "
                "would overflow int64"
            )
        if _slot and _slot[0] == (lattice.shape, n_max):
            self.sectors, self.offsets, self._tails, self.basis, self.index = _slot[1]
            return
        basis: list[tuple[int, ...]] = []
        self.sectors = []
        for n in range(n_max + 1):
            states = list(itertools.combinations_with_replacement(range(self.nmodes), n))
            basis.extend(states)
            self.sectors.append(np.fromiter(
                itertools.chain.from_iterable(states), np.int64, n * len(states)
            ).reshape(len(states), n))
        self.basis = tuple(basis)
        self.offsets = np.concatenate([[0], np.cumsum([len(states) for states in self.sectors])])
        # _tails[r][v]: sorted r-tuples of modes with every entry >= v, at most
        # M^r; one reverse cumsum per r, and _tails[n][0] = len(sectors[n]).
        self._tails = [np.ones(self.nmodes + 1, dtype=np.int64)]
        for _ in range(n_max):
            self._tails.append(np.append(np.cumsum(self._tails[-1][-2::-1])[::-1], 0))
        for array in (*self.sectors, self.offsets, *self._tails):
            array.flags.writeable = False
        self.index = types.MappingProxyType(dict(zip(basis, range(len(basis)))))

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
        """Ladder operator a(k, lam) with the standard sqrt(n) factors: per
        sector, each state holding mu goes to itself less its first copy of
        mu, with amplitude sqrt(copies of mu)."""
        mu = self.mode_index(point_index, lam)
        rows, cols, data = [], [], []
        for n in range(1, self.n_max + 1):
            held = self.sectors[n] == mu
            states = np.flatnonzero(held.any(axis=1))
            held = held[states]
            first = np.zeros_like(held)
            first[np.arange(len(states)), held.argmax(axis=1)] = True
            rows.append(self._ranks(self.sectors[n][states][~first].reshape(len(states), n - 1)))
            cols.append(self.offsets[n] + states)
            data.append(np.sqrt(held.sum(axis=1)))
        return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(self.dim, self.dim))

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
        cols, hop, mu_copies, (rows,), (nu_copies,) = self._walk(h.indptr, [h.indices])
        # The constructor sums duplicate entries: the hops of h's diagonal meet.
        return sp.csr_matrix((self._amplitudes(h.data, hop, mu_copies, nu_copies), (rows, cols)),
                             shape=(self.dim, self.dim))

    def _walk(self, indptr: np.ndarray, h_indices) -> tuple:
        """The entries of :meth:`one_body_operator` for each of several (M, M)
        mode matrices given by their CSC indices, which share the column
        pointer indptr: the source columns, the hops into the matrices' CSC
        arrays and the copies of mu in the source state are found once; each
        matrix adds its own target rows and copies of nu in the target state."""
        # A state holding mu is mu plus a state of one photon less: nnz(h) * offsets[n_max] hops.
        total = int(indptr[-1]) * int(self.offsets[-2])
        index = np.int32 if max(self.dim, int(indptr[-1])) <= np.iinfo(np.int32).max else np.int64
        count = np.min_scalar_type(self.n_max)
        cols, hops = np.empty(total, dtype=index), np.empty(total, dtype=index)
        mu_copies = np.empty(total, dtype=count)
        rows = [np.empty(total, dtype=index) for _ in h_indices]
        nu_copies = [np.empty(total, dtype=count) for _ in h_indices]
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
                start, stop = stop, stop + len(hop)
                cols[start:stop] = self.offsets[n] + source
                hops[start:stop] = hop
                mu_copies[start:stop] = np.repeat(copies, nhops)
                for nus, h_rows, h_nu_copies in zip(h_indices, rows, nu_copies):
                    nu = nus[hop]
                    h_nu_copies[start:stop] = sum(column == nu for column in kept) + 1
                    # Slot c of the sorted row is max(kept[c - 1], min(kept[c], nu)).
                    capped = [np.minimum(column, nu) for column in kept] + [nu]
                    after = np.empty((n, len(nu)), dtype=np.int64)
                    after[0] = capped[0]
                    for c in range(1, n):
                        np.maximum(kept[c - 1], capped[c], out=after[c])
                    h_rows[start:stop] = self._ranks(after.T)
        return cols, hops, mu_copies, rows, nu_copies

    def _amplitudes(self, h_values, hop, mu_copies, nu_copies) -> np.ndarray:
        """h[nu, mu] sqrt(copies of mu) sqrt(copies of nu) per entry, rounded
        in that order; the roots are read off one table of sqrt(0..n_max)."""
        root = np.sqrt(np.arange(self.n_max + 1, dtype=float))
        amplitude = np.take(h_values, hop) * np.take(root, mu_copies)
        amplitude *= np.take(root, nu_copies)
        return amplitude

    def _csr_plans(self, indptr: np.ndarray, lifts) -> list[tuple[np.ndarray, ...]]:
        """For each (indices, up) lifted gradient: its one-body operator's
        CSR indptr and indices, a uint8 code per entry in CSR order and the
        occurring (up, copies of mu, copies of nu) triples that it numbers;
        all read-only.  The lifts have no diagonal, so no two hops meet at one
        entry: one scipy COO -> CSR conversion finds the order."""
        cols, hop, mu_copies, rows, nu_copies = self._walk(indptr, [indices for indices, _ in lifts])
        entries = np.arange(len(cols), dtype=np.min_scalar_type(len(cols)))
        base = self.n_max + 1
        plans = []
        for h_rows, h_nu_copies, (_, up) in zip(rows, nu_copies, lifts):
            ids = sp.csr_matrix((entries, (h_rows, cols)), shape=(self.dim, self.dim))
            assert ids.nnz == len(cols), "two hops met at one entry"
            # X has >= 81 modes, so the int64 guard caps n_max at 9: triple < 2 (n_max + 1)^2 fits uint8.
            triple = np.take(up * np.uint8(base * base), hop) + mu_copies * base + h_nu_copies
            occurs = np.flatnonzero(np.bincount(triple, minlength=2 * base * base))
            lookup = np.searchsorted(occurs, np.arange(2 * base * base)).astype(np.uint8)
            plan = (ids.indptr, ids.indices, np.take(np.take(lookup, triple), ids.data),
                    np.stack(np.unravel_index(occurs, (2, base, base))))
            for array in plan:
                array.flags.writeable = False
            plans.append(plan)
        return plans

    def position_operators(self) -> list[sp.csr_matrix]:
        """The three components of X; each Hermitian, mutually commuting.
        Their sparsity, like the space's tables, depends on the lattice shape
        and n_max alone.  A build at a new (shape, n_max) walks the sectors
        once and keeps both, for every later build and space at that key,
        which then walk no sector and enumerate no state.  Every build gathers
        each component's entries by the plan's codes from the few amplitudes
        formed on the two values of the lifts, -ih and +ih, h = 1/(2 spacing).
        A spacing is rejected if an entry (h sqrt(c)) sqrt(d), c + d <=
        n_max + 1, overflows."""
        global _slot
        n, half = self.n_max, 1.0 / (2.0 * self.lattice.spacing)
        if not all(math.isfinite(half * math.sqrt(c) * math.sqrt(n + 1 - c)) for c in range(1, n + 1)):
            raise ValueError(f"lattice spacing {self.lattice.spacing} at n_max={n}: an entry of X overflows")
        key = (self.lattice.shape, n)
        if not (_slot and _slot[0] == key):
            _slot = (key, (self.sectors, self.offsets, self._tails, self.basis, self.index),
                     self._csr_plans(*_lifted_gradients(self.lattice)))
        pair = 1j * np.array([-half, half])
        return [sp.csr_matrix((np.take(self._amplitudes(pair, *triples), code), indices.copy(), x_indptr.copy()),
                              shape=(self.dim, self.dim))
                for x_indptr, indices, code, triples in _slot[2]]

    # --- state constructors -------------------------------------------------

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[0]] = 1.0
        return vec

    def one_photon_vector(self, coeffs: np.ndarray) -> np.ndarray:
        """Embed a coefficient array of shape (npoints, 3) as a one-photon state."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.lattice.npoints, 3):
            raise ValueError(f"one-photon coefficients of shape {coeffs.shape}: must be ({self.lattice.npoints}, 3)")
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[1]:self.offsets[2]] = coeffs.ravel()
        return vec


def expectation(op: sp.spmatrix, vec: np.ndarray) -> complex:
    """<vec|op|vec> / <vec|vec>; a state of zero norm has none."""
    norm = np.vdot(vec, vec)
    if norm == 0:
        raise ValueError("expectation in a state of zero norm")
    return complex(np.vdot(vec, op @ vec) / norm)

