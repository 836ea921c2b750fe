"""beamshadow: desk-scale simulation of hand blockage on mmWave beamforming.

Synthesizes per-antenna spherical field maps, distorts them with
parameterized blockage screens, evaluates beamforming codebooks (matched
combining, steered beams, exhaustive phase and phase+amplitude codebooks),
and audits the closed-form lower bound on the improvement from amplitude
information numerically.
"""

from .codebook import (
    Codebook,
    StrengthVector,
    amp_gain_map,
    directional_codebook,
    enh_phase_amp_codebook,
    enh_phase_codebook,
    gain_map,
    phase_levels,
)
from .distortion import (
    DistortionField,
    DistortionSpec,
    FingerSpec,
    apply_distortion,
    gen_distortion,
)
from .experiment import (
    ExperimentConfig,
    config_from_yaml,
    config_to_yaml,
    default_config,
    default_scenarios,
    run_experiment,
)
from .fields import AntennaFieldMap, ArrayConfig, synth_freespace_field
from .fileio import (
    FileFormatError,
    read_distortion_file,
    read_field_file,
    write_cdf_csv,
    write_coverage_csv,
    write_distortion_file,
    write_field_file,
    write_gain_map_csv,
)
from .link import (
    delta_snr_achieved,
    inequality_chain_check,
    theorem1_lb,
    theorem_trials,
    var_blockage,
    worst_case_dir_snr,
)
from .metrics import (
    NULL_GAIN_DB,
    CdfSummary,
    CoverageRow,
    RoIMask,
    cdf_summary,
    coverage_stats,
    elemental_gain_map,
    loss_samples,
    pair_phase_diff,
    phase_mixing,
    rect_roi,
    roi_mask,
)
from .sphere import SphericalGrid, angular_distance_deg, make_grid, wrap_deg, wrap_rad

__version__ = "0.1.0"
