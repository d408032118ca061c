"""Quasienergy states of a parametrically driven nonlinear quantum oscillator.

Dense-matrix numerics for the Kerr oscillator driven near twice its
eigenfrequency, in the frame rotating at half the drive frequency: spectral
flows and degeneracies, adiabatic preparation of quasienergy states, the
half-line Landau-Zener problem, Wigner tomography, zero-temperature Lindblad
dissipation (the generator and its steady state in ``lindblad``), and, on one
exact flow of that generator in ``radiation``: the density matrix rho(t)
(``evolve_master``), the two-time correlator array (``two_time_correlator``),
and the emission spectra on the caller's frequency grid with the time side of
their sum rule (``emission_spectra``); its frequency side is one linear solve
(``sum_rule_check``).

Units: hbar = 1; energies and rates in units of the Kerr nonlinearity V, time
in units of 1/V.
"""

__version__ = "0.1.0"

from .fock import (
    ConvergenceError,
    FockSpace,
    convergence_report,
    ladder_operators,
    number_operator,
    parity_operator,
    tail_population,
)
from .rwa import (
    RwaSystem,
    SemiclassicalSummary,
    build_h_rwa,
    classical_hamiltonian_function,
    coherent_eigen_residual,
    h_rwa_bands,
    parity_eigh,
    perturbative_shift,
    semiclassics,
    zero_drive_levels,
)
from .spectrum import (
    SpectrumSeries,
    eigenstate_by_label,
    find_degeneracy_points,
    same_parity_gap,
    spectrum_vs_drive,
)
from .floquet import (
    LabFrameParams,
    QuasienergySet,
    build_floquet_matrix,
    floquet_quasienergies,
    floquet_vs_rwa,
    quasienergy_from_rwa,
    reduced_rwa_equations,
)
from .ramp import RampProtocol, RampResult, evolve_ramp, instantaneous_fidelity
from .wigner import WignerGrid, wigner_transform
from .lz import (
    LzProblem,
    LzSolution,
    dynamical_phase,
    lz_asymptotic_alphas,
    lz_evolve_numeric,
    weber_solution,
)
from .lindblad import Liouvillian, build_liouvillian, state_decay_rate, steady_state
from .radiation import emission_spectra, evolve_master, sum_rule_check, two_time_correlator
