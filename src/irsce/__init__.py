"""Three-phase channel estimation simulator for IRS-assisted multiuser MIMO uplink."""

from .config import ScenarioConfig, load_config, parse_config_text
from .estimate import (
    estimate_lambda_priors,
    phase1_mmse,
    phase1_mse,
    phase3_recover_noiseless,
    psi_phase3,
    recover_orthogonal,
    reflected_gram,
    stacked_system_matrix,
)
from .harness import (
    ResultRow,
    build_context,
    emit_csv,
    place_users,
    run_campaign,
    run_scheme,
    schedule_to_csv,
    scheme_key,
    substream,
)
from .metrics import (
    pilot_length_table,
    pooled_ratio,
    ratio_halfwidth,
)
from .model import (
    ChannelRealization,
    CorrelationSpec,
    LinkBudget,
    PathLossSpec,
    SystemDims,
    complex_normal,
    draw_channels,
    exp_correlation_matrix,
    hermitian_sqrt,
    path_loss,
)
from .schedule import (
    PhasePlan,
    Schedule,
    benchmark_phase3_schedule,
    benchmark_total_pilots,
    concat_schedules,
    dft_block,
    min_tau3,
    min_total_pilots,
    phase1_pilots,
    phase2_reflections_dft,
    phase2_reflections_onoff,
    phase2_reflections_random,
    phase3_plan,
    phase3_schedule_noiseless,
    phase3_schedule_orthogonal_noisy,
    validate_phase3_plan,
)
from .schemes import resolve_phase_plan
from .selftest import run_selftest

__version__ = "0.1.0"
