"""RWA Hamiltonian of the parametrically driven Kerr oscillator and analytic companions.

H = -delta*n + (n^2 + n)/2 + (f/2)(a^2 + a_dag^2) couples |n> only to |n+-2>,
so its single encoding is a pair of bands (``h_rwa_bands``): the diagonal and
the second off-diagonal.  Each occupation-number parity block is then an exact
tridiagonal chain, diagonalized by ``parity_eigh``, and the Lindblad generator
of ``lindblad`` applies H through the same bands.

Library API that no experiment runs, each a formula of the paper that checks no
other code:
- ``level_label_at_zero_drive``: the (parity, rank) label of |n> at zero drive;
- ``perturbative_shift``: the second-order level shift at small drive;
- ``classical_hamiltonian_function``: the scaled classical g(Q, P);
- ``semiclassics`` and ``SemiclassicalSummary``: its well data and gap estimate.

Unit convention (everywhere in this package): hbar = 1, energies and rates in
units of the Kerr nonlinearity V, time in units of 1/V.  The dimensionless
controls are the scaled detuning delta = (omega_F/2 - omega_0)/V and the
scaled drive amplitude f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal


@dataclass(frozen=True)
class RwaSystem:
    """Dimensionless system parameters of the rotating-frame Hamiltonian.

    Derived scales: ``lam`` is the dimensionless Planck constant of the scaled
    phase space (lam = 1/(2 f)) and ``mu`` = delta/f controls the double-well
    shape of the classical Hamiltonian function.  Both need f > 0.
    """

    delta: float
    f: float

    def __post_init__(self):
        if self.f < 0:
            raise ValueError(f"drive amplitude f must be >= 0, got {self.f}")

    @property
    def lam(self) -> float:
        if self.f <= 0:
            raise ValueError("lam is defined only for f > 0")
        return 1.0 / (2.0 * self.f)

    @property
    def mu(self) -> float:
        if self.f <= 0:
            raise ValueError("mu is defined only for f > 0")
        return self.delta / self.f


@dataclass(frozen=True)
class SemiclassicalSummary:
    """Well data of the classical Hamiltonian function for -1 < mu."""

    q0: float           # well position, sqrt(mu + 1)
    omega_min: float    # small-oscillation frequency about the well, 2*sqrt(mu + 1)
    g_min: float        # well depth, -(mu + 1)^2/4
    eta: float          # squeezing parameter, 1/sqrt(mu + 1)
    gap_estimate: float  # intrawell level spacing in units of V, 2*sqrt((delta + f) f)


def h_rwa_bands(dim: int, system: RwaSystem) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero bands of H = -delta*n + (n^2 + n)/2 + (f/2)(a^2 + a_dag^2) on |0..dim-1>.

    Returns (diag, off2) with diag[n] = <n|H|n> and off2[n] = <n+2|H|n> =
    (f/2) sqrt((n+1)(n+2)).  The parity-(-1)^p block is the tridiagonal chain
    with diagonal diag[p::2] and off-diagonal off2[p::2].
    """
    n = np.arange(dim, dtype=float)
    diag = -system.delta * n + 0.5 * (n * n + n)
    off2 = 0.5 * system.f * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    return diag, off2


def parity_eigh(dim: int, system: RwaSystem,
                parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the parity block (+1 even, -1 odd) of H, ascending.

    Returns (fock_idx, w, v): the Fock indices the block spans, its eigenvalues,
    and its real eigenvectors as the columns of v, indexed like fock_idx.
    """
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    p = 0 if parity == 1 else 1
    diag, off2 = h_rwa_bands(dim, system)
    w, v = eigh_tridiagonal(diag[p::2], off2[p::2])
    return np.arange(p, dim, 2), w, v


def zero_drive_levels(delta: float, n_max: int) -> np.ndarray:
    """Eigenvalues E_n = Ebar_n - Ebar_0 at zero drive, Ebar_n = (n + 1/2 - delta)^2 / 2."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n = np.arange(n_max + 1)
    ebar = 0.5 * (n + 0.5 - delta) ** 2
    return ebar - ebar[0]


def level_label_at_zero_drive(delta: float, n: int) -> tuple[int, int]:
    """(parity, rank) label of the Fock state |n> within its parity block at f = 0.

    A same-parity level |m> lies at or below |n> iff |m + 1/2 - delta| <=
    |n + 1/2 - delta|, so every such m is at most n + 2|n + 1/2 - delta|.
    """
    top = int(n + 2 * abs(n + 0.5 - delta)) + 2
    order = np.argsort(zero_drive_levels(delta, top)[n % 2::2], kind="stable")
    return (-1) ** n, int(np.flatnonzero(order == n // 2)[0])


def _ebar(delta: float, n: int) -> float:
    return 0.5 * (n + 0.5 - delta) ** 2


def perturbative_shift(delta: float, f: float, n: int) -> float:
    """Second-order-in-drive shift of level n about the zero-drive spectrum.

    Valid asymptotically for small f; the resonant denominator 2*Ebar_n - 1
    makes the second-order result meaningless where it vanishes, so that case
    is an error rather than a limit.
    """
    denom = 2.0 * _ebar(delta, n) - 1.0
    if abs(denom) < 1e-9:
        raise ValueError(
            f"level n={n} at delta={delta} has a resonant denominator; "
            "the second-order shift does not apply"
        )
    return -(f ** 2 / 4.0) * (2.0 * _ebar(delta, n) - delta ** 2 - 0.75) / denom


def classical_hamiltonian_function(Q, P, mu: float):
    """Scaled classical Hamiltonian in the rotating frame.

    g(Q, P) = (P^2 + Q^2)^2/4 - mu (P^2 + Q^2)/2 + (P^2 - Q^2)/2.  For
    -1 < mu < 1 it has two minima at P = 0, Q = +-sqrt(mu + 1).
    """
    r2 = np.asarray(P) ** 2 + np.asarray(Q) ** 2
    return r2 ** 2 / 4.0 - 0.5 * mu * r2 + 0.5 * (np.asarray(P) ** 2 - np.asarray(Q) ** 2)


def semiclassics(system: RwaSystem) -> SemiclassicalSummary:
    """Harmonic expansion about the well of the classical Hamiltonian function."""
    mu = system.mu
    if mu + 1.0 <= 0:
        raise ValueError(f"no double well: mu + 1 = {mu + 1} <= 0")
    q0 = np.sqrt(mu + 1.0)
    return SemiclassicalSummary(
        q0=q0,
        omega_min=2.0 * q0,
        g_min=-(mu + 1.0) ** 2 / 4.0,
        eta=1.0 / q0,
        gap_estimate=2.0 * np.sqrt((system.delta + system.f) * system.f),
    )


__all__ = [
    "RwaSystem",
    "SemiclassicalSummary",
    "h_rwa_bands",
    "parity_eigh",
    "zero_drive_levels",
    "level_label_at_zero_drive",
    "perturbative_shift",
    "classical_hamiltonian_function",
    "semiclassics",
]
