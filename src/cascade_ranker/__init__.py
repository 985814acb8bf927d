"""Cost-aware cascade ranking: train, evaluate, and simulate multi-stage
logistic cascades that jointly optimize ranking accuracy, CPU cost, per-query
result size, and per-query latency, with behavior- and price-based importance
weighting."""

__version__ = "0.1.0"

from .core import (
    CascadeModel,
    Feature,
    FeatureSchema,
    PackedDataset,
    QueryGroup,
    StageAssignment,
    pack_groups,
    stage_costs,
    validate_dataset,
)
from .objective import (
    LossBreakdown,
    ObjectiveConfig,
    expected_cost,
    instance_weights,
    loss,
    softplus_penalty,
)
from .trainer import (
    GradCheckReport,
    TrainConfig,
    TrainLog,
    gradient_check,
    init_weights,
    load_model,
    save_model,
    train,
)
from .evaluator import (
    EvalReport,
    baseline_l1,
    baseline_two_stage,
    evaluate,
)
from .simulator import SimReport, plan, serve_query, simulate
from .datagen import (
    GenConfig,
    default_assignment,
    default_schema,
    generate,
    read_dataset,
    write_dataset,
)
