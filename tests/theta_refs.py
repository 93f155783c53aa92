"""The doubled-lattice theta family as ``theta`` once wrote it out.

theta~_w(z; tau) is theta_w(z; 2 tau), and the library evaluates it as
``theta_w`` (and its log-derivative as ``g_w``) on ``Lattice(2 * tau)``.
These are the separate functions that form replaced, kept verbatim: the
reference evaluators of the tests call them, and ``test_theta`` holds the
library's doubled-lattice calls to them bit for bit.  ``g_theta_w`` is the
entire product (i / 2 pi) theta_w' on the lattice itself.
"""

import numpy as np

from heckelab.theta import NearPole, POLE_GUARD, theta_raw, theta_raw_deriv, theta_w_deriv
from heckelab.torus import Lattice


def theta_tilde_w(z, w: complex, lattice: Lattice):
    """Translated theta for the doubled lattice Z + Z(2 tau)."""
    tau = lattice.tau
    return theta_raw(np.asarray(z, dtype=complex) - 0.5 * (1 + 2 * tau) - w, 2 * tau)


def theta_tilde_w_deriv(z, w: complex, lattice: Lattice):
    tau = lattice.tau
    return theta_raw_deriv(np.asarray(z, dtype=complex) - 0.5 * (1 + 2 * tau) - w, 2 * tau)


def g_theta_w(z, w: complex, lattice: Lattice):
    """The entire product g_w * theta_w = (i / 2 pi) * theta_w'."""
    return (1j / (2 * np.pi)) * theta_w_deriv(z, w, lattice)


def g_tilde_theta_w(z, w: complex, lattice: Lattice):
    """The entire product g~_w * theta~_w = (i / 2 pi) * theta~_w'."""
    return (1j / (2 * np.pi)) * theta_tilde_w_deriv(z, w, lattice)


def _guard_pole(z, w: complex, lattice: Lattice, doubled: bool):
    zs = np.asarray(z, dtype=complex).ravel()
    lat = Lattice(2 * lattice.tau) if doubled else lattice
    d = lat.reduce(zs - w)[:, None] + np.array([0, -1, -lat.tau, -1 - lat.tau])
    near = np.abs(d).min(axis=1) < POLE_GUARD
    if near.any():
        raise NearPole(f"{zs[near.argmax()]} is within {POLE_GUARD} of a pole at {w} + lattice")


def g_tilde_w(z, w: complex, lattice: Lattice):
    """Doubled-lattice analogue of g_w; poles on w + Z + Z(2 tau)."""
    _guard_pole(z, w, lattice, doubled=True)
    return g_tilde_theta_w(z, w, lattice) / theta_tilde_w(z, w, lattice)
