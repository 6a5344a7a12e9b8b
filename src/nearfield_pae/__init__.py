"""Near-field position and attitude estimation for rigid antenna arrays.

A single large receive array observes signals from planar mobile arrays
sitting in its radiative near field. The package simulates the exact
spherical-wavefront channel, estimates each mobile array's 3-D position
and roll/pitch/yaw by partitioning the receive array into subarrays and
passing beliefs between a per-subarray angle estimator and a rigid-body
fusion stage, and benchmarks the result against a misspecification-aware
error lower bound and a far-field two-stage baseline.
"""

from .aoa import AoaPosteriors, estimate_aoa_posteriors
from .baseline import FarFieldAoas, farfield_aoa, pose_from_aoas, run_baseline
from .channel import (
    ReceivedSignal,
    ScenarioConfig,
    ReducedCoefficients,
    dbm_to_watt,
    desk_scale_scenario,
    draw_poses,
    load_signal,
    nearfield_channel_coeff,
    save_signal,
    simulate_received,
    reduced_coefficients,
    reduced_received,
    watt_to_dbm,
)
from .circular import (
    GaussianBelief,
    VmPair,
    VonMises,
    gaussian_to_vm,
    laplace_fit,
    log_i0,
    vm_extrinsic,
    vm_log_pdf,
    vm_multiply,
)
from .engine import MessageState, PoseEstimate, run
from .geometry import (
    EulerAngles,
    Pose,
    RotationBasis,
    TransmitPattern,
    UraSpec,
    aoa_cosines,
    bs_antenna_position,
    fresnel_distance,
    half_wavelength_ura,
    ms_antenna_global_position,
    ms_local_antenna_position,
    named_pattern,
    rayleigh_distance,
    rotation_basis,
    wavelength,
)
from .harness import MetricRow, SweepSpec, compute_metrics, run_sweep, write_csv
from .mcrb import McrbResult, compute_bound, information_matrices, lower_bound, pseudotrue_fit
from .partition import PartitionPlan, SubarrayDescriptor, index_map, uniform_partition, validate_far_field

__version__ = "0.1.0"
