"""The package's one exception type.

Below-cutoff propagation is deliberately *not* an exception: an evanescent
wave is physics, not a failure, and is reported as a tagged value (see
``waveguide_kinematics.Evanescent``).
"""


class PhotonGuideError(ValueError):
    """Domain input the package rejects; the CLI maps it to exit 2."""
