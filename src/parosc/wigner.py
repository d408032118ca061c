"""Wigner distribution in the scaled quadratures of the rotating frame.

Quadrature convention: Q = i(a - a_dag) sqrt(lam/2), P = (a + a_dag) sqrt(lam/2),
so [Q, P] = i*lam with lam the dimensionless Planck constant.  In the Q
representation the Fock wavefunctions are psi_n(Q) = i^n h_n(Q) with h_n the
real Hermite function of width sqrt(lam); the i^n phase matters for coherences
and is what places the double-well states on the Q axis.

W(Q, P) = (1/(pi*lam)) Int dxi exp(-2i*P*xi/lam) rho(Q + xi, Q - xi)

With a = (P - iQ)/sqrt(2*lam), the element of each Fock pair m <= n is a
Gaussian times a Laguerre polynomial (Cahill & Glauber, Phys. Rev. 177, 1882
(1969)): w_mn = (-1)^m sqrt(m!/n!) (2a)^(n-m) L_m^(n-m)(4|a|^2) e^(-2|a|^2)/(pi*lam)
and W = sum_m rho_mm w_mm + 2 Re sum_{m<n} rho_mn w_mn.  The elements are built
row by row by the stable recurrence w_mn = (2a w_m,n-1 - sqrt(m) w_m-1,n-1)/sqrt(n)
(2conj(a) on the diagonal), holding one grid per Fock index, not one per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class WignerGrid:
    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray      # shape (len(q_axis), len(p_axis))
    lam: float
    boundary_mass: float = float("nan")   # |W| mass on the edge ring

    def norm(self) -> float:
        dq = self.q_axis[1] - self.q_axis[0]
        dp = self.p_axis[1] - self.p_axis[0]
        return float(self.values.sum() * dq * dp)

    def marginal_q(self) -> np.ndarray:
        dp = self.p_axis[1] - self.p_axis[0]
        return self.values.sum(axis=1) * dp


def _uniform_axis(name: str, axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    steps = np.diff(axis) if axis.ndim == 1 else np.empty(0)
    if steps.size == 0 or steps.min() <= 0 or np.ptp(steps) > 1e-6 * steps.min():
        raise ValueError(f"{name} must be uniform, ascending, with at least 2 points")
    return axis


def wigner_transform(rho: np.ndarray, lam: float, q_axis: np.ndarray,
                     p_axis: np.ndarray, boundary_tol: float = 1e-4) -> WignerGrid:
    """Wigner function of a Fock-basis density matrix on a rectangular grid.

    Raises if an axis is not uniform and ascending, or if the grid is too
    small for the state (boundary mass check).
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if lam <= 0:
        raise ValueError("lam must be > 0")
    q_axis = _uniform_axis("q_axis", q_axis)
    p_axis = _uniform_axis("p_axis", p_axis)

    Q, P = np.meshgrid(q_axis, p_axis, indexing="ij")
    two_a = np.sqrt(2.0 / lam) * (P - 1j * Q)
    root = np.sqrt(np.arange(dim))
    weight = 2.0 * np.triu(rho, 1) + np.diag(rho.diagonal().real)
    # w[n] holds w_mn of the current row m for n >= m (row -1 is all zero)
    w = [np.exp(-0.5 * np.abs(two_a) ** 2) / (np.pi * lam)] + [0.0] * (dim - 1)
    acc = np.zeros_like(two_a)
    for m in range(dim):
        carry = w[m]        # w_m-1,m, then w_m-1,n-1 along the row
        if m:
            w[m] = (two_a.conj() * carry - root[m] * w[m - 1]) / root[m]
        acc += weight[m, m] * w[m]
        for n in range(m + 1, dim):
            w[n], carry = (two_a * w[n - 1] - root[m] * carry) / root[n], w[n]
            acc += weight[m, n] * w[n]

    grid = WignerGrid(q_axis=q_axis, p_axis=p_axis, values=acc.real, lam=lam)
    grid.boundary_mass = _check_boundary(grid, boundary_tol)
    return grid


def _check_boundary(grid: WignerGrid, tol: float) -> float:
    """|W| mass on the boundary ring; raises if it exceeds tol."""
    dq = grid.q_axis[1] - grid.q_axis[0]
    dp = grid.p_axis[1] - grid.p_axis[0]
    edges = np.concatenate([
        np.abs(grid.values[0, :]), np.abs(grid.values[-1, :]),
        np.abs(grid.values[:, 0]), np.abs(grid.values[:, -1]),
    ])
    # edge mass estimate: |W| on the boundary ring times one cell depth
    mass = float(edges.sum() * dq * dp)
    if mass > tol:
        raise ValueError(
            f"grid too small: boundary mass {mass:.3g} exceeds {tol:.3g}; "
            "widen q_axis/p_axis"
        )
    return mass
