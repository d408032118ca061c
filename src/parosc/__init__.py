"""Quasienergy states of a parametrically driven nonlinear quantum oscillator.

Dense-matrix numerics for the Kerr oscillator driven near twice its
eigenfrequency, in the frame rotating at half the drive frequency: spectral
flows and degeneracies, adiabatic preparation of quasienergy states, the
half-line Landau-Zener problem, Wigner tomography, zero-temperature Lindblad
dissipation (the generator and its steady state in ``lindblad``), and, on one
exact flow of that generator in ``radiation``, the emission spectra on the
caller's frequency grid with the time side of their sum rule
(``emission_spectra``); its frequency side is one linear solve
(``sum_rule_check``).  The package is what the ``parosc run`` experiments
compute, plus a few closed forms of the paper that each module docstring names;
the reference implementations the tests compare against live with the tests.

Units: hbar = 1; energies and rates in units of the Kerr nonlinearity V, time
in units of 1/V.
"""

__version__ = "0.1.0"

from .fock import (
    ConvergenceError,
    FockSpace,
    convergence_report,
    ladder_operators,
    tail_population,
)
from .rwa import (
    RwaSystem,
    SemiclassicalSummary,
    classical_hamiltonian_function,
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
    spectrum_vs_drive,
)
from .floquet import (
    LabFrameParams,
    build_floquet_matrix,
    floquet_vs_rwa,
    quasienergy_from_rwa,
)
from .ramp import RampProtocol, RampResult, evolve_ramp, instantaneous_fidelity
from .wigner import WignerGrid, wigner_transform
from .lz import (
    LzProblem,
    LzSolution,
    dynamical_phase,
    lz_asymptotic_alphas,
    lz_evolve_numeric,
)
from .lindblad import Liouvillian, build_liouvillian, state_decay_rate, steady_state
from .radiation import emission_spectra, sum_rule_check
