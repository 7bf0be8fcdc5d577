"""Exception types shared across the package.

Below-cutoff propagation is deliberately *not* an exception: an evanescent
wave is physics, not a failure, and is reported as a tagged value (see
``waveguide_kinematics.Evanescent``).
"""


class PhotonGuideError(ValueError):
    """Base class for all domain errors raised by this package."""


class ZeroMomentum(PhotonGuideError):
    """A polarization basis was requested for the zero wave vector."""


class MixedComponentCount(PhotonGuideError):
    """Scalar product between a 3-component and a 6-component wavefunction."""


class ComponentMismatch(PhotonGuideError):
    """Operator variant and wavefunction disagree on component count."""


class InvalidScheme(PhotonGuideError):
    """Finite-difference step not positive and finite, or unsupported order."""


class StencilCrossesSingularity(PhotonGuideError):
    """A finite-difference stencil reaches into the k = 0 / seam region."""


class UnknownMode(PhotonGuideError):
    """Ladder operator requested for a (k, helicity) pair not on the lattice."""


class LatticeTooSmall(PhotonGuideError):
    """Lattice has fewer than 3 points along a differentiated axis."""


class InvalidIndex(PhotonGuideError):
    """Waveguide mode indices outside r >= 1, s >= 0."""


class InvalidMode(PhotonGuideError):
    """Operation received a structurally invalid waveguide mode."""


class AtOrBelowCutoff(PhotonGuideError):
    """Velocity quantities requested at or below the cutoff frequency."""


class RapidityOverflow(PhotonGuideError):
    """A boost rapidity so large that cosh/sinh overflow a float."""


class NonFiniteResult(PhotonGuideError):
    """A record about to be printed holds inf or nan: the input was finite
    but the result overflowed a float."""
