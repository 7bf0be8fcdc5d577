"""Photon position operators and waveguide photon kinematics, numerically
verified at desk scale.

Natural units (hbar = c = 1) throughout the library; SI conversions live in
:mod:`photonguide.waveguide_kinematics` only.

Each public name is imported from its module, for example
``from photonguide import waveguide_kinematics as wk``; ``import photonguide``
loads no submodule.
"""
