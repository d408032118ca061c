"""Parity-resolved spectral flows of the rotating-frame Hamiltonian vs drive amplitude.

Each parity block of H is an exact tridiagonal chain (``rwa.parity_eigh``), so
parity holds by construction and every level carries the label (parity,
ascending rank within the chain).  Same-parity levels repel and never cross
as the drive grows, so the rank is a stable label along the whole flow; this
is what makes adiabatic state preparation and the labeling used by the ramp
and radiation modules well defined.

``find_degeneracy_points`` is library API that no experiment runs: the paper's
scan for level coincidences in the detuning, which checks no other code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import EDGE_TOL, ConvergenceError, FockSpace, edge_levels
from .rwa import RwaSystem, parity_eigh

_DEGENERACY_TOL = 1e-8      # largest gap that find_degeneracy_points calls a coincidence
_DEGENERACY_LEVELS = 6      # lowest levels per parity that it scans


def eigenstate_by_label(space: FockSpace, delta: float, f: float,
                        parity: int, rank: int) -> tuple[float, np.ndarray]:
    """Eigenpair with the given (parity, rank) label.

    The eigenvector is embedded in the full Fock space, with its global phase
    fixed so that the largest-magnitude component is real and positive.
    """
    idx, w, v = parity_eigh(space.dim, RwaSystem(delta=delta, f=f), parity)
    if not 0 <= rank < len(idx):
        raise ValueError(f"rank {rank} out of range for parity {parity:+d}")
    phi = np.zeros(space.dim, dtype=complex)
    phi[idx] = v[:, rank]
    k = int(np.argmax(np.abs(phi)))
    phi *= np.exp(-1j * np.angle(phi[k]))
    return float(w[rank]), phi


@dataclass
class SpectrumSeries:
    """Level flows over a drive grid; column j carries label (parities[j], ranks[j])."""

    delta: float
    f_grid: np.ndarray
    levels: np.ndarray          # shape (len(f_grid), n_levels)
    parities: np.ndarray        # +-1 per column
    ranks: np.ndarray           # rank within the parity block per column


def spectrum_vs_drive(space: FockSpace, delta: float, f_grid: np.ndarray,
                      n_levels: int) -> SpectrumSeries:
    """Track the lowest ``n_levels`` levels per parity across an ascending drive grid.

    Columns are ordered by energy at the first grid point and keep their
    (parity, rank) identity at every drive value.
    """
    f_grid = np.asarray(f_grid, dtype=float)
    if np.any(np.diff(f_grid) < 0):
        raise ValueError("f_grid must be ascending")
    dim = space.dim
    n_even = min(n_levels, (dim + 1) // 2)
    n_odd = min(n_levels, dim // 2)

    even_flow = np.empty((len(f_grid), n_even))
    odd_flow = np.empty((len(f_grid), n_odd))
    for i, f in enumerate(f_grid):
        system = RwaSystem(delta=delta, f=f)
        for parity, flow in ((1, even_flow), (-1, odd_flow)):
            idx, w, v = parity_eigh(dim, system, parity)
            flow[i] = w[:flow.shape[1]]
            if i == len(f_grid) - 1:
                _check_tracked_tails(idx, v[:, :flow.shape[1]], dim)

    levels = np.concatenate([even_flow, odd_flow], axis=1)
    parities = np.concatenate([np.ones(n_even, dtype=int), -np.ones(n_odd, dtype=int)])
    ranks = np.concatenate([np.arange(n_even), np.arange(n_odd)])
    order = np.argsort(levels[0], kind="stable")
    return SpectrumSeries(delta=delta, f_grid=f_grid, levels=levels[:, order],
                          parities=parities[order], ranks=ranks[order])


def _check_tracked_tails(idx, v, dim):
    """Truncation check at the largest drive: the tracked eigenvectors (columns
    of v over Fock indices idx) must not lean on the top Fock levels."""
    pops = np.sum(np.abs(v[idx >= dim - edge_levels(dim)]) ** 2, axis=0)
    bad = np.flatnonzero(pops > EDGE_TOL)
    if bad.size:
        raise ConvergenceError(f"tracked level rank {bad[0]} has tail population "
                               f"{pops[bad[0]]:.3g} > {EDGE_TOL:.3g}; increase dim")


def find_degeneracy_points(space: FockSpace, delta_grid: np.ndarray, f: float) -> list[dict]:
    """Scan the detuning for level coincidences at fixed drive.

    Reports opposite-parity coincidences (exact at integer delta for any drive)
    and same-parity coincidences (present at half-integer delta only as f -> 0).
    Each record carries the detuning, the kind, the two (parity, rank) labels,
    and the residual gap.
    """
    found = []
    for delta in np.asarray(delta_grid, dtype=float):
        system = RwaSystem(delta=delta, f=f)
        ev = parity_eigh(space.dim, system, 1)[1][:_DEGENERACY_LEVELS]
        od = parity_eigh(space.dim, system, -1)[1][:_DEGENERACY_LEVELS]
        for i, ei in enumerate(ev):
            for j, oj in enumerate(od):
                if abs(ei - oj) < _DEGENERACY_TOL:
                    found.append({"delta": float(delta), "kind": "opposite-parity",
                                  "labels": ((1, i), (-1, j)), "gap": float(abs(ei - oj))})
        for name, block, par in (("even", ev, 1), ("odd", od, -1)):
            for i in range(len(block) - 1):
                if block[i + 1] - block[i] < _DEGENERACY_TOL:
                    found.append({"delta": float(delta), "kind": f"same-parity-{name}",
                                  "labels": ((par, i), (par, i + 1)),
                                  "gap": float(block[i + 1] - block[i])})
    return found
