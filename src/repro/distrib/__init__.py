"""Distributed campaigns: sharded execution + run-log reconciliation.

Campaigns outgrow one process pool on one host: the paper's 84-cell
design-space matrix per workload multiplies with every scheduler added
to the zoo, and a campaign spread over hosts needs more than "finished
cells stay cached" — it needs a systematic account of what is
*missing*, and a repair loop that makes the account balance.

Two layers (see docs/robustness.md):

* :mod:`repro.distrib.campaign` — ``shard_cells`` assigns the matrix's
  cells to shards by salted hash; ``run_shard`` executes one shard
  through the fault-tolerant :class:`~repro.analysis.runner.
  ExperimentRunner`, streaming its per-worker JSONL run-log; and
  ``merge_shards`` lays the detector's verdicts out as deterministic
  (submission-order) results.
* :mod:`repro.distrib.reconcile` — a *detector* three-way-diffs the
  expected matrix against the disk cache and the merged run-logs,
  classifying every cell; ``reconcile_campaign`` re-runs the damaged
  cells that still have budget through one fault-tolerant runner per
  round and re-verifies until the matrix converges.
"""

from .campaign import (  # noqa: F401
    CampaignSpec,
    MergedCampaign,
    campaign_root_context,
    campaign_trace_id,
    cell_label,
    load_manifest,
    merge_shards,
    merge_trace,
    run_shard,
    shard_cells,
    shard_log_path,
    shard_of,
    shard_spans_path,
)
from .reconcile import (  # noqa: F401
    CELL_STATES,
    CampaignDiff,
    CellStatus,
    Detector,
    ReconcileReport,
    reconcile_campaign,
)

__all__ = [
    "CampaignSpec",
    "MergedCampaign",
    "campaign_root_context",
    "campaign_trace_id",
    "cell_label",
    "load_manifest",
    "merge_shards",
    "merge_trace",
    "run_shard",
    "shard_cells",
    "shard_log_path",
    "shard_of",
    "shard_spans_path",
    "CELL_STATES",
    "CampaignDiff",
    "CellStatus",
    "Detector",
    "ReconcileReport",
    "reconcile_campaign",
]
