"""Photon position operators and waveguide photon kinematics, numerically
verified at desk scale.

Natural units (hbar = c = 1) throughout the library; SI conversions live in
:mod:`photonguide.waveguide_kinematics` only.

Every public name loads its module on first access, so ``import photonguide``
imports no numpy or scipy: ``photonguide.decompose`` loads only the
float-only :mod:`photonguide.waveguide_kinematics`, while
``photonguide.FockSpace`` loads :mod:`photonguide.second_quantization` and
with it numpy and ``scipy.sparse``.
"""

import importlib

_MODULE_NAMES = {
    "errors": (
        "AtOrBelowCutoff", "ComponentMismatch", "InvalidIndex", "InvalidMode", "InvalidScheme",
        "LatticeTooSmall", "MixedComponentCount", "NonFiniteResult", "PhotonGuideError", "RapidityOverflow",
        "StencilCrossesSingularity", "UnknownMode", "ZeroMomentum",
    ),
    "momentum_basis": (
        "HELICITIES", "polarization_triad", "rotated_triad", "scalar_product", "spinor_f",
    ),
    "position_operator": (
        "PositionKind", "Scheme", "apply_position", "commutator_residual",
        "connection_identity_residual", "eigenvalue_residual", "localized",
    ),
    "second_quantization": ("FockSpace", "MomentumLattice", "lattice_gradient"),
    "dirac_like": ("on_shell_residual", "spin_one_matrices"),
    "waveguide_kinematics": (
        "C_LIGHT", "DecomposedMomentum", "Evanescent", "FourMomentum", "Propagating",
        "TunnelingVerdict", "WaveguideMode", "WaveguideSpec", "axial_wavenumber", "boost",
        "cutoff_frequency_hz", "decompose", "dispersion", "mode", "plane_wave_pair",
        "tunneling_predicate", "velocities",
    ),
}

# Public name -> defining submodule.
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # Resolved on every access and never stored in this namespace, so a name
    # rebound in its defining module is what callers see.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
