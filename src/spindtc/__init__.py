"""Exact stroboscopic dynamics of a kicked central-spin system: time-crystal
classification, entanglement milestones, Fisher-information metrology and
phase-map sweeps."""

from .errors import (SpinDtcError, ShapeError, CapacityError,
                     NotTabulatedError, CheckpointError)
from .spin_algebra import (SpinOperators, spin_matrices, x_eigenbasis,
                           coherent_axis_state)
from .hilbert import (CollectiveShape, x_polarized_state,
                      reduced_central_density, von_neumann_entropy)
from .floquet import StepTables, precompute, evolve
from .observables import magnetizations, trajectory_columns, series
from .diagnostics import (REGIMES, stroboscopic_average,
                          relative_order_parameter, first_revival,
                          lambda_2pi_taxonomy, tabulated_period,
                          fit_cosine_amplitude, classify_subsystem)
from .analytic_states import (parity_case_of, supported_time_indices,
                              milestone_state)
from .metrology import QfiMatrix, qfi_scan
from .sweep import GridSpec, run_grid, read_checkpoint, write_csv

__version__ = "0.1.0"
