"""OneQ baseline: deterministic planner + repeat-until-success executor."""

from repro.baseline.oneq import OneQLayerPlan, OneQPlan, plan_oneq, plan_width_for
from repro.baseline.retry import (
    DEFAULT_RSL_CAP,
    BaselineResult,
    RepeatUntilSuccessExecutor,
    expected_rsl,
)

__all__ = [
    "OneQPlan",
    "OneQLayerPlan",
    "plan_oneq",
    "plan_width_for",
    "RepeatUntilSuccessExecutor",
    "BaselineResult",
    "DEFAULT_RSL_CAP",
    "expected_rsl",
]
