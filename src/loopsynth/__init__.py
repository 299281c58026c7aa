"""Loop-based time-multiplexed entanglement synthesizer toolchain.

Compiles target entangled states (EPR, GHZ, linear/star clusters, endless
linear chains) into per-time-bin control schedules, simulates the loop
circuit as multimode Gaussian states under realistic loss/jitter, and
verifies entanglement through nullifier and inseparability criteria, both
analytically and by Monte-Carlo homodyne sampling.
"""

from .compiler import (FeasibilityReport, TargetState, compile_storage,
                       compile_target, delta_for_transmissivity, fibonacci,
                       hardware_check)
from .engine import (RunRecord, memory_experiment, run_loop, run_loop_sampled,
                     run_unrolled)
from .gaussian import (GaussianState, MeasurementPlan, SampleSet, SqueezerSpec,
                       apply_beamsplitter, apply_dephasing, apply_loss,
                       apply_phase, homodyne_condition, marginalize,
                       sample_quadratures, squeezed_vacuum, tensor, vacuum)
from .schedule import (BinSetting, ControlSchedule, NoiseConfig,
                       ScheduleFormatError, parse_schedule, serialize_schedule)
from .verifier import (CalibrationResult, Estimate, InseparabilitySpec,
                       NullifierSpec, calibrate_efficiency, cluster_nullifier,
                       estimate, linear_cluster_oracle_cov, nullifiers_for,
                       plan_measurements, stream_nullifier_variances,
                       variance_analytic)
from .waveform import (TraceFrame, WaveformConfig, extract_quadratures,
                       frame_from_text, frame_to_text, mode_function,
                       orthogonality_matrix, shot_noise_frames,
                       synthesize_frames)

__all__ = [
    "BinSetting", "CalibrationResult", "ControlSchedule", "Estimate",
    "FeasibilityReport", "GaussianState",
    "InseparabilitySpec", "MeasurementPlan", "NoiseConfig", "NullifierSpec",
    "RunRecord", "SampleSet", "ScheduleFormatError", "SqueezerSpec",
    "TargetState", "TraceFrame", "WaveformConfig", "apply_beamsplitter",
    "apply_dephasing", "apply_loss", "apply_phase", "calibrate_efficiency",
    "cluster_nullifier", "compile_storage", "compile_target",
    "delta_for_transmissivity", "estimate", "extract_quadratures", "fibonacci",
    "frame_from_text", "frame_to_text", "hardware_check",
    "homodyne_condition", "linear_cluster_oracle_cov", "marginalize",
    "memory_experiment", "mode_function", "nullifiers_for",
    "orthogonality_matrix", "parse_schedule", "plan_measurements",
    "run_loop", "run_loop_sampled", "run_unrolled", "sample_quadratures",
    "serialize_schedule", "shot_noise_frames", "squeezed_vacuum",
    "stream_nullifier_variances", "synthesize_frames", "tensor", "vacuum",
    "variance_analytic",
]
