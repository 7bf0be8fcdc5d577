"""Photon position operators and waveguide photon kinematics, numerically
verified at desk scale.

Natural units (hbar = c = 1) throughout the library; SI conversions live in
:mod:`photonguide.waveguide_kinematics` only.
"""

from .errors import (
    AtOrBelowCutoff,
    ComponentMismatch,
    InvalidIndex,
    InvalidMode,
    InvalidScheme,
    LatticeTooSmall,
    MixedComponentCount,
    PhotonGuideError,
    RapidityOverflow,
    StencilCrossesSingularity,
    UnknownMode,
    ZeroMomentum,
)
from .momentum_basis import (
    HELICITIES,
    MomentumWavefunction,
    helicity_polarization,
    localized_spinor_wavefunction,
    localized_wavefunction,
    polarization_triad,
    rotated_triad,
    scalar_product,
    spinor_f,
    spinor_g,
)
from .position_operator import (
    PositionKind,
    Scheme,
    apply_position,
    commutator_residual,
    connection_identity_residual,
    eigenvalue_residual,
    grad_k,
)
from .second_quantization import FockSpace, MomentumLattice, lattice_gradient, momentum_average_position
from .dirac_like import beta_matrices, on_shell_residual, spin_one_matrices
from .waveguide_kinematics import (
    C_LIGHT,
    DecomposedMomentum,
    Evanescent,
    FourMomentum,
    Propagating,
    TunnelingVerdict,
    WaveguideMode,
    WaveguideSpec,
    axial_wavenumber,
    boost,
    cutoff_frequency_hz,
    decompose,
    dispersion,
    mode,
    plane_wave_pair,
    tunneling_predicate,
    velocities,
)

__version__ = "0.1.0"
