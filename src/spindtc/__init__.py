"""Exact stroboscopic dynamics of a kicked central-spin system: time-crystal
classification, entanglement milestones, Fisher-information metrology and
phase-map sweeps."""

from .errors import (SpinDtcError, ShapeError, CapacityError,
                     NotTabulatedError, DegenerateInformationError,
                     CheckpointError)
from .spin_algebra import (SpinOperators, spin_matrices, axis_eigenbasis,
                           coherent_axis_state)
from .hilbert import (CollectiveShape, PureState, x_polarized_state, inner,
                      fidelity, reduced_central_density, von_neumann_entropy)
from .floquet import DriveParams, StepTables, precompute, evolve
from .observables import (magnetization, magnetizations, trajectory_columns,
                          series)
from .diagnostics import (PeriodReport, DtcPrediction, stroboscopic_average,
                          relative_order_parameter, detect_period,
                          first_revival, predict_dtc_class,
                          fit_cosine_amplitude, classify_subsystem)
from .analytic_states import (parity_case_of, supported_time_indices,
                              milestone_state, milestone_fidelity)
from .metrology import (QfiMatrix, qfi_matrix, qfi_scan, sensing_gain,
                        fit_power_law)
from .sweep import (GridSpec, PhaseMapRecord, compute_point, run_grid,
                    read_checkpoint, write_csv, read_csv)

__version__ = "0.1.0"
