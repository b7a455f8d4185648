"""Self-gravity potential of the homogeneous sphere.

The center-of-mass self-interaction energy of a rigid uniform sphere at
displacement d from its own mass distribution is a fifth-order polynomial
in d/R while the copies overlap (d <= 2R) and a plain Newton potential
-G m^2/d beyond.  Both value and slope are continuous at d = 2R.

For narrow packets the overlap branch is truncated at second order, which
turns the branch dynamics into a driven harmonic problem with pulsation
omega_s = sqrt(G m / R^3).  After the spin packets separate (d > 2R) each
branch keeps a weighted harmonic self-term and acquires a Newton cross
term toward the other packet.
"""

from __future__ import annotations

import math

from .params import ConstantsSet, SphereParams, omega_s

# nucleon size threshold for the inhomogeneous-density correction (m) and
# the corresponding pulsation boost (1e-10/1e-12)^(3/2)
NUCLEON_SCALE = 1e-12
NUCLEAR_BOOST = 1000.0


def v_eff(d: float, sphere: SphereParams, constants: ConstantsSet) -> float:
    """Sphere-sphere self-interaction energy at center displacement d (J)."""
    if d < 0.0:
        raise ValueError(f"displacement must be >= 0, got {d}")
    m, R = sphere.mass, sphere.radius
    scale = constants.G * m * m / R
    if d <= 2.0 * R:
        x = d / R
        return scale * (-6.0 / 5.0 + 0.5 * x**2 - 3.0 / 16.0 * x**3
                        + 1.0 / 160.0 * x**5)
    return -constants.G * m * m / d


def quadratic_truncation_error(d: float, sphere: SphereParams,
                               constants: ConstantsSet) -> float:
    """Exact excess of the two-term truncation (G m^2/R)(-6/5 + (d/R)^2/2)
    over v_eff for d <= 2R: the dropped cubic and quintic terms
    (3/16)(d/R)^3 - (1/160)(d/R)^5 times G m^2/R."""
    m, R = sphere.mass, sphere.radius
    if d > 2.0 * R:
        raise ValueError("truncation error formula applies to d <= 2R only")
    x = d / R
    return (constants.G * m * m / R) * (3.0 / 16.0 * x**3 - 1.0 / 160.0 * x**5)


def effective_omega_s(Q: float, sphere: SphereParams, constants: ConstantsSet,
                      nuclear_correction: bool) -> float:
    """Self-gravity pulsation, optionally boosted by the nuclear-scale
    density inhomogeneity.

    When the packet width sqrt(Q) drops below the nucleon size the mass the
    packet actually samples is lumpy and the effective pulsation rises by
    (1e-10/1e-12)^(3/2) = 1000, landing near 1 rad/s for the reference
    sphere.  The correction window is so short-lived that the toggle
    defaults off everywhere else in the pipeline.
    """
    if Q <= 0.0:
        raise ValueError(f"variance must be > 0, got {Q}")
    base = omega_s(sphere, constants)
    if nuclear_correction and math.sqrt(Q) < NUCLEON_SCALE:
        return NUCLEAR_BOOST * base
    return base
