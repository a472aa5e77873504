"""Functional model and dataflow timing model of a tau trigger pipeline."""

from .core import (
    AngularCoord,
    Event,
    OpCounter,
    Particle,
    Species,
    delta_r2,
    make_event,
    saturating_pt_add,
    wrap_delta_phi,
    wrap_phi,
)
from .stages import (
    CandidateList,
    MergeResult,
    Tau,
    TauParams,
    TriggerConfig,
    build_cleaning_matrix,
    clean_solution_a,
    clean_solution_b,
    compute_tau_params,
    compute_total_pt,
    filter_block,
    merge_solution_a,
    merge_solution_b,
    reconstruct_tau,
    run_stages,
    select_seeds,
    select_signal_candidates,
)
from .dataflow import (
    PipelineMetrics,
    StageSpec,
    StageStats,
    channel_depths,
    default_stage_specs,
    run_pipeline,
    trigger_timing,
)
from .reference import MergeExpectation, oracle_clean, oracle_merge, oracle_trigger
from .budget import FeasibilityReport, TimingBudget, cycle_budget, evaluate_feasibility
from .eventio import (
    RunConfig,
    SplitMix64,
    gen_events,
    load_config,
    parse_events,
    parse_report,
    serialize_report,
    write_events,
)

__version__ = "0.1.0"
