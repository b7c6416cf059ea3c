"""Grinding-burn detection and wear monitoring from spindle power traces.

Pipeline: per-unit power traces are resampled to a common grid, reduced
with PCA, scored by a two-class Fisher discriminant (No-Burn vs Burn),
and streamed through a three-state health monitor that warns before the
discriminant threshold is crossed.  A deterministic wear simulator
provides full synthetic campaigns for experiments and tests.
"""

from . import errors
from .lda import (
    DEFAULT_RIDGE,
    HealthVerdict,
    LdaModel,
    classify,
    fisher_ratio,
    fit_lda,
    ld1_score,
)
from .monitor import (
    BURN,
    FORMAT_VERSION,
    HEALTHY,
    WARNING,
    ModelBundle,
    MonitorConfig,
    MonitorEvent,
    MonitorState,
    format_event,
    load_model,
    model_to_json,
    observe,
    save_model,
    start_monitor,
)
from .pca import (
    PcaModel,
    fit_pca,
    project,
    reconstruct,
    truncate,
)
from .pipeline import (
    FitSummary,
    ScoreReport,
    build_report,
    confusion_matrix,
    fit_bundle,
    fit_matrix,
    predict_campaign,
    report_to_csv,
    score_matrix,
)
from .simulate import (
    PRESETS,
    ScenarioPreset,
    WheelScenario,
    default_preset,
    generate_campaign,
    generate_trace,
    generate_wheel_traces,
    make_preset,
    mean_power_kw,
    table2_preset,
)
from .traces import (
    DEFAULT_RESAMPLE_LENGTH,
    LABEL_BURN,
    LABEL_NOBURN,
    CampaignManifest,
    ManifestEntry,
    PowerTrace,
    TraceMatrix,
    build_matrix,
    label_from_rank,
    load_manifest,
    load_trace,
    parse_manifest_csv,
    parse_trace_csv,
    resample,
    save_manifest,
    serialize_manifest_csv,
    serialize_trace_csv,
)

__version__ = "0.1.0"
