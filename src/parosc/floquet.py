"""Lab-frame Floquet eigenproblem in the Fourier x Fock basis.

Serves as an independent oracle for the rotating-frame treatment: quasienergies
computed from the full Fourier matrix must agree with the RWA energies mapped
through the parity-dependent modular relation, with the residual shrinking as
the nonlinearity becomes small compared to the oscillator frequency.

Lab-frame quantities (omega0, omegaF, F) appear only in this module; everything
else in the package works in units of the nonlinearity V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rwa import RwaSystem, parity_eigh


@dataclass
class QuasienergySet:
    """Tracked quasienergies reduced into [0, omegaF), with parity labels."""

    omegaF: float
    values: np.ndarray
    parities: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0) or np.any(self.values >= self.omegaF):
            raise ValueError("quasienergies must be reduced into [0, omegaF)")


@dataclass(frozen=True)
class LabFrameParams:
    """Lab-frame oscillator and drive parameters with Fourier/Fock cutoffs.

    The model is valid near parametric resonance with weak nonlinearity, so the
    constructor enforces |omegaF - 2 omega0| < 0.2 omega0 and V < 0.05 omega0.
    """

    omega0: float
    V: float
    F: float
    omegaF: float
    k_cut: int = 12
    n_cut: int = 24

    def __post_init__(self):
        if self.omega0 <= 0 or self.V <= 0 or self.F < 0 or self.omegaF <= 0:
            raise ValueError("omega0, V, omegaF must be > 0 and F >= 0")
        if abs(self.omegaF - 2 * self.omega0) >= 0.2 * self.omega0:
            raise ValueError("drive is too far from parametric resonance: "
                             "|omegaF - 2 omega0| must be < 0.2 omega0")
        if self.V >= 0.05 * self.omega0:
            raise ValueError("nonlinearity too large: V must be < 0.05 omega0")
        if self.k_cut < 4 or self.n_cut < 4:
            raise ValueError("cutoffs must be >= 4")

    @classmethod
    def from_reduced(cls, omega0: float, V: float, delta: float, f: float,
                     k_cut: int = 12, n_cut: int = 24) -> "LabFrameParams":
        """Build lab parameters from the reduced controls delta and f."""
        d_omega = delta * V
        omegaF = 2.0 * (omega0 + d_omega)
        F = 4.0 * omega0 * f * V
        return cls(omega0=omega0, V=V, F=F, omegaF=omegaF, k_cut=k_cut, n_cut=n_cut)

    @property
    def delta(self) -> float:
        return (self.omegaF / 2.0 - self.omega0) / self.V

    @property
    def f(self) -> float:
        return self.F / (4.0 * self.omega0 * self.V)


def oscillator_levels(p: LabFrameParams, n: np.ndarray) -> np.ndarray:
    """Undriven anharmonic-oscillator levels omega0*n + V*(n^2 + n)/2."""
    return p.omega0 * n + 0.5 * p.V * (n ** 2 + n)


def q_squared_matrix(p: LabFrameParams) -> np.ndarray:
    """Matrix of q^2 in the harmonic Fock basis, q = (a + a_dag) sqrt(1/(2 omega0))."""
    n = np.arange(p.n_cut)
    q2 = np.diag((2.0 * n + 1.0) / (2.0 * p.omega0))
    off = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / (2.0 * p.omega0)
    q2 += np.diag(off, 2) + np.diag(off, -2)
    return q2


def build_floquet_matrix(p: LabFrameParams) -> np.ndarray:
    """Fourier x Fock eigenvalue matrix of the time-periodic problem.

    Index layout is k-major: row (k, n) sits at (k + k_cut) * n_cut + n with
    k in [-k_cut, k_cut].  The diagonal carries the undriven levels shifted by
    -k*omegaF; the drive couples Fourier neighbors through (F/4) q^2.
    """
    n = np.arange(p.n_cut)
    en = oscillator_levels(p, n)
    nk = 2 * p.k_cut + 1
    size = nk * p.n_cut
    m = np.zeros((size, size))
    coupling = 0.25 * p.F * q_squared_matrix(p)
    for ik in range(nk):
        k = ik - p.k_cut
        i0 = ik * p.n_cut
        m[i0:i0 + p.n_cut, i0:i0 + p.n_cut] = np.diag(en - k * p.omegaF)
        if ik + 1 < nk:
            j0 = (ik + 1) * p.n_cut
            m[i0:i0 + p.n_cut, j0:j0 + p.n_cut] = coupling
            m[j0:j0 + p.n_cut, i0:i0 + p.n_cut] = coupling
    return m


def reduced_resonant_set(p: LabFrameParams, base_k: int, base_n: int) -> np.ndarray:
    """Tridiagonal system over the resonantly coupled chain through (base_k, base_n).

    The chain holds the amplitudes u_{base_k + j, base_n + 2j} for j >= -base_n//2;
    keeping only these is the rotating-wave approximation in the Fourier picture.
    """
    j = np.arange(-(base_n // 2), (p.n_cut - base_n + 1) // 2)     # base_n + 2j < n_cut
    ns, ks = base_n + 2 * j, base_k + j
    diag = oscillator_levels(p, ns) - ks * p.omegaF
    # exact q^2 elements <n|q^2|n+2>, times F/4
    off = 0.25 * p.F * np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + 2.0)) / (2.0 * p.omega0)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def reduced_rwa_equations(p: LabFrameParams) -> tuple[np.ndarray, np.ndarray]:
    """The two canonical resonant chains (even through (0,0), odd through (0,1)).

    Their spectra reproduce the rotating-frame energies exactly: the even chain
    gives E, the odd chain gives E + omegaF/2, matching the parity-dependent
    quasienergy mapping.
    """
    return reduced_resonant_set(p, 0, 0), reduced_resonant_set(p, 0, 1)


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

    m = build_floquet_matrix(p)
    nk = 2 * p.k_cut + 1
    # q^2 changes n by 0 or 2, so rows of even and odd n never meet: one eigh per parity
    sign = 1 - 2 * (np.arange(nk * p.n_cut) % p.n_cut % 2)
    blocks = {}
    for parity in chains:
        rows = np.flatnonzero(sign == parity)
        blocks[parity] = (rows, *np.linalg.eigh(m[np.ix_(rows, rows)]))

    table = {key: [] for key in ("parity", "rank", "eps_fourier", "eps_rwa", "overlap",
                                 "discrepancy")}
    for energy, parity, rank in states[:n_track]:
        idx, _, v = chains[parity]
        keep = (idx < p.n_cut) & (idx // 2 <= p.k_cut)
        n = idx[keep]
        embedded = np.zeros(nk * p.n_cut)
        embedded[(n // 2 + p.k_cut) * p.n_cut + n] = v[keep, rank]
        embedded /= np.linalg.norm(embedded)
        rows, w, vecs = blocks[parity]
        overlaps = np.abs(vecs.T @ embedded[rows])
        j = int(np.argmax(overlaps))
        eps_fourier = _fold(w[j], p.omegaF)
        eps_rwa = quasienergy_from_rwa(energy, parity, p.omegaF)
        row = (parity, rank, eps_fourier, eps_rwa, float(overlaps[j]),
               _circular_distance(eps_fourier, eps_rwa, p.omegaF))
        for column, value in zip(table.values(), row):
            column.append(value)
    return {key: np.array(column) for key, column in table.items()}


def floquet_quasienergies(p: LabFrameParams, n_track: int = 6) -> QuasienergySet:
    """Tracked low-lying quasienergies of the Fourier matrix, parity-labeled."""
    table = floquet_vs_rwa(p, n_track=n_track)
    return QuasienergySet(omegaF=p.omegaF, values=table["eps_fourier"],
                          parities=table["parity"].astype(int))


def worst_discrepancy(p: LabFrameParams, n_track: int = 6) -> float:
    """Largest quasienergy mismatch over the tracked states, in units of V."""
    return float(np.max(floquet_vs_rwa(p, n_track=n_track)["discrepancy"])) / p.V
