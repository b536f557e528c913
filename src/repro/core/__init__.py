"""vDNN core: memory-transfer policies, executor, dynamic planner.

Names resolve on first use (:mod:`repro._lazy`): ``from repro.core
import evaluate`` loads :mod:`~repro.core.api` and what it imports, not
every module listed here.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "AlgoConfig": "algo_config",
    "compare_policies": "api",
    "evaluate": "api",
    "oracular_baseline": "api",
    "cached_baseline": "cached",
    "cached_recompute": "cached",
    "cached_vdnn": "cached",
    "CapacityReport": "capacity",
    "capacity_report": "capacity",
    "max_trainable_batch": "capacity",
    "DynamicPlan": "dynamic",
    "ProfilingPass": "dynamic",
    "UntrainableError": "dynamic",
    "plan_dynamic": "dynamic",
    "simulate_dynamic": "dynamic",
    "IterationResult": "executor",
    "baseline_allocation_bytes": "executor",
    "simulate_baseline": "executor",
    "simulate_vdnn": "executor",
    "baseline_inference_bytes": "inference",
    "simulate_inference": "inference",
    "weight_load_bytes": "inference",
    "JointConfig": "joint",
    "JointDecision": "joint",
    "JointPlan": "joint",
    "plan_joint": "joint",
    "simulate_joint": "joint",
    "simulate_joint_config": "joint",
    "LivenessAnalysis": "liveness",
    "StorageInfo": "liveness",
    "PagingReport": "paging",
    "paging_vs_vdnn": "paging",
    "simulate_page_migration": "paging",
    "DataParallelReport": "parallel",
    "min_gpus_for_baseline": "parallel",
    "simulate_data_parallel": "parallel",
    "TrainingRunPlan": "planner",
    "plan_training_run": "planner",
    "PolicyKind": "policy",
    "TransferPolicy": "policy",
    "PrefetchState": "prefetcher",
    "find_prefetch_layer": "prefetcher",
    "RecomputePlan": "recompute",
    "plan_recompute": "recompute",
    "simulate_recompute": "recompute",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
