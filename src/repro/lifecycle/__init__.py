"""Online model lifecycle: drift-triggered shadow retraining,
champion/challenger promotion, and versioned rollback.

The serving layer (``repro.serving``) trains and swaps models inline
with prediction; this package moves model *replacement* off the hot
path and behind an evaluation gate:

- :class:`LifecycleController` — consumes debounced
  :class:`~repro.serving.monitoring.DriftMonitor` alerts plus an
  optional staleness schedule, retrains challengers with the service's
  per-vehicle fit, and drives the promote/reject decision.
- :class:`ShadowEvaluator` / :class:`ShadowReport` — replay recent
  resolved days through champion and challenger; paired error stats.
- :class:`PromotionPolicy` / :class:`PromotionDecision` — the gates a
  challenger must pass (samples, absolute + relative improvement,
  worst-case regression, strategy guardrails).
- :class:`RollbackManager` — journaled pin/revert to prior stored
  versions with optional quarantine of the replaced artifact.
- :func:`drift_promotion_drill` / :func:`lifecycle_kill_drill` —
  end-to-end proofs: injected drift recovers via gated promotion, and a
  SIGKILL mid-promotion recovers to a consistent journaled state.
"""

from .controller import LifecycleController
from .drill import drift_promotion_drill, lifecycle_kill_drill
from .policy import PromotionDecision, PromotionPolicy
from .rollback import RollbackManager
from .shadow import ShadowEvaluator, ShadowReport

__all__ = [
    "LifecycleController",
    "PromotionDecision",
    "PromotionPolicy",
    "RollbackManager",
    "ShadowEvaluator",
    "ShadowReport",
    "drift_promotion_drill",
    "lifecycle_kill_drill",
]
