"""Checks and oracles shared by the tests; nothing in the package calls them."""

from __future__ import annotations

import math
import sys

import numpy as np

from parosc.fock import FockSpace, ladder_operators, number_operator
from parosc.lindblad import Liouvillian
from parosc.lz import LzProblem, lz_evolve_numeric
from parosc import rwa
from parosc.rwa import RwaSystem, build_h_rwa, parity_eigh
from parosc.wigner import _diagonal_sum


def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10,
                         trace_tol: float = 1e-10, eig_tol: float = 1e-8) -> None:
    """Raise if rho is not Hermitian, unit-trace, and positive within tolerances."""
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} deviates from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -eig_tol:
        raise ValueError(f"density matrix has negative eigenvalue {w.min()}")


def expectation_number(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ np.diag(np.arange(rho.shape[0])))))


def dense_generator(liou: Liouvillian) -> np.ndarray:
    """The unsplit d^2 x d^2 generator from dense operators: the oracle for the band-built L.

    Row-stacking convention: vec(A rho B) = (A kron B^T) vec(rho).
    """
    h = build_h_rwa(liou.space, liou.sys)
    a, _ = ladder_operators(liou.space)
    n_op = number_operator(liou.space)
    eye = np.eye(liou.dim)
    lmat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    lmat += -liou.gamma_tilde * (np.kron(n_op, eye) + np.kron(eye, n_op.T)
                                 - 2.0 * np.kron(a, a.conj()))
    return lmat


def trace_preservation_residual(liou: Liouvillian) -> float:
    """Max |Tr L[E_mn]| over the matrix units: the trace functional must annihilate the generator."""
    d = liou.dim
    units = np.eye(d * d).reshape(d * d, d, d)
    return float(np.max(np.abs(np.trace(liou.apply(units), axis1=1, axis2=2))))


def poisson_tail(mean: float, start: int) -> float:
    """Poisson tail mass P(N >= start) for occupation mean; coherent-state oracle."""
    total = 0.0
    for k in range(start):
        total += math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) if mean > 0 else (1.0 if k == 0 else 0.0)
    return 1.0 - total


def asymptote_estimate(prob: LzProblem, rel_tol: float = 1e-10) -> float:
    """|C_up(infinity)|^2 from direct integration, averaged over the last phase period.

    "Infinity" means 2 s t_max^2 >= 1e4; the average over one dynamical-phase
    oscillation removes the 1/t tail.
    """
    t_max = math.sqrt(1e4 / (2.0 * prob.s))
    if prob.Delta != 0:
        t_max = max(t_max, 20.0 / abs(prob.Delta))
    sol = lz_evolve_numeric(prob, t_max, rel_tol=rel_tol, n_out=6001)
    period = 2.0 * math.pi / (prob.s * t_max)
    mask = sol.t_grid > t_max - 5.0 * period
    return float(np.mean(np.abs(sol.c_up[mask]) ** 2))


def wigner_every_diagonal(rho: np.ndarray, lam: float, q_axis: np.ndarray,
                          p_axis: np.ndarray) -> np.ndarray:
    """W on the grid from the Horner pass over every diagonal, zero ones included.

    The oracle for ``wigner_transform``, which leaves out the diagonals
    without weight: the same arithmetic, line for line, with no diagonal skipped.
    """
    rho = np.asarray(rho, dtype=complex)
    Q, P = np.meshgrid(q_axis, p_axis, indexing="ij")
    two_a = np.sqrt(2.0 / lam) * (P - 1j * Q)
    radii, inverse = np.unique((2.0 / lam) * (Q * Q + P * P), return_inverse=True)
    inverse = inverse.reshape(two_a.shape)
    weight = 2.0 * np.triu(rho, 1) + np.diag(rho.diagonal().real)
    gauss = np.exp(-0.5 * radii) / (np.pi * lam)
    acc = np.zeros_like(two_a)
    for k in range(rho.shape[0] - 1, -1, -1):
        acc *= two_a / math.sqrt(k + 1)
        acc += _diagonal_sum(np.diagonal(weight, k), radii, gauss, k)[inverse]
    return acc.real


def initial_label_by_eigensolve(space: FockSpace, delta: float,
                                state: np.ndarray) -> tuple[int, int]:
    """(parity, rank) of the f = 0 eigenvector of the parity chain best overlapping ``state``.

    The oracle for ``ramp.initial_label``, which reads the rank off the
    zero-drive levels without an eigensolve.
    """
    state = np.asarray(state, dtype=complex)
    parity = 1 if float(np.sum(np.abs(state[0::2]) ** 2)) > 0.5 else -1
    idx, _, v = parity_eigh(space.dim, RwaSystem(delta=delta, f=0.0), parity)
    return parity, int(np.argmax(np.abs(v.T @ state[idx])))


def record_parity_eigh(monkeypatch) -> list[tuple[float, int]]:
    """Record (f, parity) of each ``rwa.parity_eigh`` call, from every parosc module binding it."""
    calls, solve = [], rwa.parity_eigh

    def recording(dim, system, parity):
        calls.append((system.f, parity))
        return solve(dim, system, parity)

    for name, module in list(sys.modules.items()):
        if name.startswith("parosc") and getattr(module, "parity_eigh", None) is solve:
            monkeypatch.setattr(module, "parity_eigh", recording)
    return calls
