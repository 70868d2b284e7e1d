"""Exact stroboscopic dynamics of a kicked central-spin system: time-crystal
classification, entanglement milestones, Fisher-information metrology and
phase-map sweeps."""

from .errors import (SpinDtcError, ShapeError, CapacityError,
                     NotTabulatedError, StepSizeError,
                     DegenerateInformationError, CheckpointError)
from .spin_algebra import (SpinOperators, LocalState, spin_matrices,
                           axis_eigenbasis, coherent_axis_state)
from .hilbert import (SystemShape, CollectiveShape, PureState, DensityMatrix,
                      basis_index, split_index, product_state,
                      x_polarized_state, inner, fidelity,
                      reduced_central_density, von_neumann_entropy)
from .floquet import (DriveParams, StepTables, precompute, evolve,
                      u_squared_class, two_period_residual_phases,
                      oracle_unitaries, oracle_evolve)
from .observables import TrajectoryRecord, magnetization, trajectory_records
from .diagnostics import (PeriodReport, DtcPrediction, stroboscopic_average,
                          relative_order_parameter, detect_period,
                          predict_dtc_class, fit_cosine_amplitude,
                          classify_subsystem)
from .analytic_states import (MilestoneSpec, parity_case_of,
                              supported_time_indices, milestone_state,
                              milestone_fidelity)
from .metrology import (QfiMatrix, qfi_matrix, qfi_scan, weighted_uncertainty,
                        sensing_gain, fit_power_law)
from .sweep import (GridSpec, PhaseMapRecord, compute_point, run_grid,
                    read_checkpoint, write_csv, read_csv)

__version__ = "0.1.0"
