"""Truncated Fock space: ladder operators, states, and convergence checks.

All operators are dense complex matrices; the truncation sizes needed here
(dim of order tens) make sparse machinery pointless.

``FockSpace.coherent_state`` is library API that no experiment runs: the
coherent states that are exact eigenstates of the paper's Hamiltonian at delta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-10   # largest | ||psi|| - 1 | that check_state accepts


class ConvergenceError(RuntimeError):
    """Raised when a result is not converged with respect to the Fock truncation."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated oscillator Hilbert space spanned by |0>, ..., |dim-1>."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"FockSpace needs dim >= 2, got {self.dim}")

    def basis_state(self, n: int) -> np.ndarray:
        if not 0 <= n < self.dim:
            raise ValueError(f"basis index {n} outside [0, {self.dim})")
        psi = np.zeros(self.dim, dtype=complex)
        psi[n] = 1.0
        return psi

    def vacuum(self) -> np.ndarray:
        return self.basis_state(0)

    def coherent_state(self, alpha: complex, tail_tol: float | None = None) -> np.ndarray:
        """Coherent state |alpha> truncated to this space.

        If ``tail_tol`` is given, raise ConvergenceError when the weight lost
        to the truncated levels exceeds it.
        """
        n = np.arange(self.dim)
        # log-space amplitudes to stay finite for large |alpha|^2
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, self.dim)))])
        mag = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha) + 1e-300) - log_fact / 2)
        phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else np.ones(self.dim)
        psi = mag * phase
        if alpha == 0:
            psi = self.basis_state(0)
        lost = 1.0 - float(np.sum(np.abs(psi) ** 2))
        if tail_tol is not None and lost > tail_tol:
            raise ConvergenceError(
                f"coherent state |alpha|^2={abs(alpha)**2:.3g} loses {lost:.3g} "
                f"beyond dim={self.dim} (tolerance {tail_tol:.3g})"
            )
        return psi


def ladder_operators(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Return (a, a_dag) with a|n> = sqrt(n)|n-1>; top row/column truncated."""
    a = np.diag(np.sqrt(np.arange(1, space.dim)), k=1).astype(complex)
    return a, a.conj().T


def check_state(psi: np.ndarray) -> None:
    """Raise if psi is not a normalized state vector."""
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {nrm} deviates from 1 by more than {_NORM_TOL}")


EDGE_TOL = 1e-8     # largest population the top edge_levels(dim) levels of a converged state hold


def edge_levels(dim: int) -> int:
    """Number of top Fock levels that the truncation-edge checks hold to EDGE_TOL."""
    return max(4, dim // 8)


def tail_population(state_or_rho: np.ndarray, tail_levels: int) -> float:
    """Total population in the top ``tail_levels`` Fock levels.

    Above EDGE_TOL in the top edge_levels(dim), the truncation has not converged.
    """
    dim = state_or_rho.shape[0]
    if not 0 < tail_levels < dim:
        raise ValueError(f"tail_levels must be in (0, {dim}), got {tail_levels}")
    if state_or_rho.ndim == 1:
        return float(np.sum(np.abs(state_or_rho[dim - tail_levels:]) ** 2))
    if state_or_rho.ndim == 2:
        return float(np.real(np.trace(state_or_rho[dim - tail_levels:, dim - tail_levels:])))
    raise ValueError("expected a state vector or a density matrix")


def convergence_report(base, probe, dim: int, dim_step: int = 10,
                       rel_tol: float = 1e-6) -> dict:
    """Compare ``base``, a result at truncation dim, with ``probe(dim + dim_step)``.

    ``base`` is the caller's own result at dim (a float or array) and ``probe``
    returns the same quantity at another truncation, so only the larger
    truncation is computed; ``probe`` is never called at dim.  The report
    carries the relative difference and whether it is below ``rel_tol``.  This
    is the truncation protocol used by every experiment.
    """
    v0 = np.asarray(base, dtype=float)
    v1 = np.asarray(probe(dim + dim_step), dtype=float)
    scale = max(float(np.max(np.abs(v1))), 1e-300)
    rel = float(np.max(np.abs(v1 - v0))) / scale
    return {
        "dim": dim,
        "dim_check": dim + dim_step,
        "rel_diff": rel,
        "rel_tol": rel_tol,
        "converged": bool(rel < rel_tol),
    }
