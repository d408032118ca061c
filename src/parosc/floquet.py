"""Lab-frame Floquet eigenproblem in the Fourier x Fock basis.

Serves as an independent oracle for the rotating-frame treatment: quasienergies
computed from the Fourier matrix must agree with the RWA energies mapped
through the parity-dependent modular relation, with the residual shrinking as
the nonlinearity becomes small compared to the oscillator frequency.
``floquet_vs_rwa`` makes that comparison state by state, and its table is what
``parosc run floquet_check`` ships.  The drive changes the Fock number by 0 or
2, so the matrix never couples even and odd n: each parity block is built on
its own (``floquet_parity_block``) and diagonalised, and the whole
(2 k_cut + 1) n_cut matrix is never formed.

``LabFrameParams`` takes the reduced controls delta and f, with omega0, V and
the cutoffs, and derives the drive frequency omegaF and amplitude F from them,
so the RWA side is diagonalised at exactly the delta and f given.  Lab-frame
quantities (omega0, omegaF, F) appear only in this module; everything else in
the package works in units of the nonlinearity V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rwa import RwaSystem, parity_eigh


@dataclass(frozen=True)
class LabFrameParams:
    """Lab-frame oscillator on the reduced drive controls, with Fourier/Fock cutoffs.

    The drive frequency omegaF = 2 (omega0 + delta V) and amplitude
    F = 4 omega0 f V follow from the scaled detuning delta and drive f of the
    rotating frame.  The model is valid near parametric resonance with weak
    nonlinearity, so the constructor enforces |omegaF - 2 omega0| < 0.2 omega0
    and V < 0.05 omega0.
    """

    omega0: float
    V: float
    delta: float
    f: float
    k_cut: int = 12
    n_cut: int = 24

    def __post_init__(self):
        if self.omega0 <= 0 or self.V <= 0 or self.f < 0:
            raise ValueError("omega0 and V must be > 0 and f >= 0")
        if abs(self.omegaF - 2 * self.omega0) >= 0.2 * self.omega0:
            raise ValueError("drive is too far from parametric resonance: "
                             "|omegaF - 2 omega0| must be < 0.2 omega0")
        if self.V >= 0.05 * self.omega0:
            raise ValueError("nonlinearity too large: V must be < 0.05 omega0")
        if self.k_cut < 4 or self.n_cut < 4:
            raise ValueError("cutoffs must be >= 4")

    @property
    def omegaF(self) -> float:
        return 2.0 * (self.omega0 + self.delta * self.V)

    @property
    def F(self) -> float:
        return 4.0 * self.omega0 * self.f * self.V


def oscillator_levels(p: LabFrameParams, n: np.ndarray) -> np.ndarray:
    """Undriven anharmonic-oscillator levels omega0*n + V*(n^2 + n)/2."""
    return p.omega0 * n + 0.5 * p.V * (n ** 2 + n)


def floquet_parity_block(p: LabFrameParams, parity: int) -> np.ndarray:
    """The Fourier x Fock eigenvalue matrix of the time-periodic problem on one Fock parity.

    The block holds the n < n_cut of the given parity (+1 even, -1 odd),
    k-major: row (k, n) sits at (k + k_cut) * len(n) + n//2 with k in
    [-k_cut, k_cut].  Its diagonal carries the undriven levels shifted by
    -k*omegaF, and the drive couples neighbouring k through (F/4) q_p^2, with
    q = (a + a_dag) sqrt(1/(2 omega0)) and q_p^2 the tridiagonal part of q^2
    on these n.
    """
    n = np.arange(0 if parity == 1 else 1, p.n_cut, 2)
    ks = np.arange(-p.k_cut, p.k_cut + 1)
    q2 = np.diag((2.0 * n + 1.0) / (2.0 * p.omega0))
    off = np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0)) / (2.0 * p.omega0)
    q2 += np.diag(off, 1) + np.diag(off, -1)
    hop = np.eye(len(ks), k=1) + np.eye(len(ks), k=-1)
    return (np.diag((oscillator_levels(p, n)[None, :] - ks[:, None] * p.omegaF).ravel())
            + np.kron(hop, 0.25 * p.F * q2))


def _fold(x: float, period: float) -> float:
    """x reduced into [0, period)."""
    q = float(x % period)
    return q if q < period else 0.0     # a tiny negative x folds to period in rounding


def quasienergy_from_rwa(energy: float, parity: int, omegaF: float) -> float:
    """Map a rotating-frame energy and parity to the quasienergy in [0, omegaF)."""
    return _fold(energy + (1 - parity) * omegaF / 4.0, omegaF)


def _circular_distance(a: float, b: float, period: float) -> float:
    d = abs(a - b) % period
    return min(d, period - d)


def floquet_vs_rwa(p: LabFrameParams, n_track: int = 6) -> dict[str, np.ndarray]:
    """Compare tracked quasienergies between the Fourier matrix and the RWA mapping.

    Returns columns (name -> 1-D array, one entry per tracked state, lowest RWA
    energy first): parity, rank, eps_fourier, eps_rwa, overlap, discrepancy.
    Each low-lying RWA eigenstate is embedded into the Fourier basis along its
    resonant chain (Fock component n of an even state sits at Fourier index
    k = n/2, odd at k = (n-1)/2); the Fourier eigenvector with maximal overlap
    against this embedding identifies the state across the omegaF ambiguity.
    """
    system = RwaSystem(delta=p.delta, f=p.f)
    chains = {parity: parity_eigh(p.n_cut, system, parity) for parity in (1, -1)}
    states = sorted(((w * p.V, parity, r)
                     for parity, (_, ws, _) in chains.items() for r, w in enumerate(ws)),
                    key=lambda t: t[0])

    blocks = {parity: np.linalg.eigh(floquet_parity_block(p, parity)) for parity in chains}

    table = {key: [] for key in ("parity", "rank", "eps_fourier", "eps_rwa", "overlap",
                                 "discrepancy")}
    for energy, parity, rank in states[:n_track]:
        idx, _, v = chains[parity]
        keep = idx // 2 <= p.k_cut
        n = idx[keep]
        # Fock component n at Fourier index k = n//2: row (n//2 + k_cut) len(idx) + n//2
        embedded = np.zeros((2 * p.k_cut + 1) * len(idx))
        embedded[(n // 2 + p.k_cut) * len(idx) + n // 2] = v[keep, rank]
        embedded /= np.linalg.norm(embedded)
        w, vecs = blocks[parity]
        overlaps = np.abs(vecs.T @ embedded)
        j = int(np.argmax(overlaps))
        eps_fourier = _fold(w[j], p.omegaF)
        eps_rwa = quasienergy_from_rwa(energy, parity, p.omegaF)
        row = (parity, rank, eps_fourier, eps_rwa, float(overlaps[j]),
               _circular_distance(eps_fourier, eps_rwa, p.omegaF))
        for column, value in zip(table.values(), row):
            column.append(value)
    return {key: np.array(column) for key, column in table.items()}
