"""Wigner distribution in the scaled quadratures of the rotating frame.

Quadrature convention: Q = i(a - a_dag) sqrt(lam/2), P = (a + a_dag) sqrt(lam/2),
so [Q, P] = i*lam with lam the dimensionless Planck constant.  In the Q
representation the Fock wavefunctions are psi_n(Q) = i^n h_n(Q) with h_n the
real Hermite function of width sqrt(lam); the i^n phase matters for coherences
and is what places the double-well states on the Q axis.

W(Q, P) = (1/(pi*lam)) Int dxi exp(-2i*P*xi/lam) rho(Q + xi, Q - xi)

With a = (P - iQ)/sqrt(2*lam) and r2 = |2a|^2 = 2(Q^2 + P^2)/lam, the element of
each Fock pair (m, m+k) is a Gaussian times a Laguerre polynomial (Cahill &
Glauber, Phys. Rev. 177, 1882 (1969)): w_m,m+k = (2a)^k g_mk(r2) with the real
radial factor g_mk = (-1)^m sqrt(m!/(m+k)!) L_m^(k)(r2) e^(-r2/2)/(pi*lam), and
W = Re sum_k (2a)^k D_k with D_k = sum_m c_m,m+k g_mk, c = rho_mm on the diagonal
and 2 rho_mn above it.

The radial factors depend on r2 alone, so they are computed once for each
distinct radius of the grid, in real arithmetic, by the forward three-term
recurrence in the degree m along each diagonal k (the stable direction for
Laguerre polynomials):
g_m+1,k = ((r2 - 2m - 1 - k) g_mk - sqrt(m(m+k)) g_m-1,k) / sqrt((m+1)(m+1+k)),
started from g_0k = g_00/sqrt(k!), g_00 = e^(-r2/2)/(pi*lam).  The phase is put
back by one Horner pass over the diagonals on the full grid, k = d-1 down to 0:
acc <- acc * 2a/sqrt(k+1) + sqrt(k!) D_k.  The factor 1/sqrt(k!) rides in the
Horner step, so no e^(-r2/2)/sqrt(k!) underflows at large d.  Each diagonal is
summed and gathered to the grid before the next one is built, and a diagonal
whose coefficients are all zero is neither summed nor gathered: a parity
eigenstate, such as every state a ramp prepares from a Fock state, has
rho_m,m+k = 0 for odd k, so half of the diagonals cost one multiply each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BOUNDARY_TOL = 1e-4    # largest |W| mass on the grid's edge ring


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
                     p_axis: np.ndarray) -> WignerGrid:
    """Wigner function of a Fock-basis density matrix on a rectangular grid.

    A diagonal rho_m,m+k with no nonzero entry (for a parity state, every odd
    k) is left out of the sum, in which its term is exactly zero.  Raises if
    an axis is not uniform and ascending, or if the grid is too small for the
    state (boundary mass check).
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if lam <= 0:
        raise ValueError("lam must be > 0")
    q_axis = _uniform_axis("q_axis", q_axis)
    p_axis = _uniform_axis("p_axis", p_axis)

    Q, P = np.meshgrid(q_axis, p_axis, indexing="ij")
    two_a = np.sqrt(2.0 / lam) * (P - 1j * Q)
    # points of equal r2 = |2a|^2 (exact equality) share their radial factors
    radii, inverse = np.unique((2.0 / lam) * (Q * Q + P * P), return_inverse=True)
    inverse = inverse.reshape(two_a.shape)
    weight = 2.0 * np.triu(rho, 1) + np.diag(rho.diagonal().real)
    gauss = np.exp(-0.5 * radii) / (np.pi * lam)
    acc = np.zeros_like(two_a)
    for k in range(dim - 1, -1, -1):
        # acc becomes sqrt(k!) sum_{j>=k} (2a)^(j-k) D_j, so W = Re acc after k = 0
        acc *= two_a / math.sqrt(k + 1)
        c = np.diagonal(weight, k)
        if c.any():     # D_k = 0 on a diagonal without weight
            acc += _diagonal_sum(c, radii, gauss, k)[inverse]

    grid = WignerGrid(q_axis=q_axis, p_axis=p_axis, values=acc.real, lam=lam)
    grid.boundary_mass = _check_boundary(grid)
    return grid


def _diagonal_sum(c: np.ndarray, radii: np.ndarray, gauss: np.ndarray, k: int) -> np.ndarray:
    """sqrt(k!) D_k = sum_m c[m] sqrt(k!) g_m,k(radii), by the forward recurrence in m.

    The recurrence is linear, so it runs from sqrt(k!) g_0,k = gauss = g_00.
    """
    g = gauss
    re, im = c[0].real * g, c[0].imag * g
    prev = np.zeros_like(g)
    for m in range(len(c) - 1):
        step = (radii - (2 * m + 1 + k)) * g
        step -= math.sqrt(m * (m + k)) * prev
        step /= math.sqrt((m + 1) * (m + 1 + k))
        g, prev = step, g
        re += c[m + 1].real * g
        im += c[m + 1].imag * g
    return re + 1j * im


def _check_boundary(grid: WignerGrid) -> float:
    """|W| mass on the boundary ring; raises if it exceeds _BOUNDARY_TOL."""
    dq = grid.q_axis[1] - grid.q_axis[0]
    dp = grid.p_axis[1] - grid.p_axis[0]
    edges = np.concatenate([
        np.abs(grid.values[0, :]), np.abs(grid.values[-1, :]),
        np.abs(grid.values[:, 0]), np.abs(grid.values[:, -1]),
    ])
    # edge mass estimate: |W| on the boundary ring times one cell depth
    mass = float(edges.sum() * dq * dp)
    if mass > _BOUNDARY_TOL:
        raise ValueError(
            f"grid too small: boundary mass {mass:.3g} exceeds {_BOUNDARY_TOL:.3g}; "
            "widen q_axis/p_axis"
        )
    return mass
