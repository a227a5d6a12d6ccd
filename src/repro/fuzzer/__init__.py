"""AFL-style fuzzer: scheduling, mutation, campaigns, parallel sessions.

Public surface:

* :class:`CampaignConfig` / :class:`Campaign` / :func:`run_campaign` —
  single-instance fuzzing sessions under a virtual time budget.
* :class:`ParallelSession` / :func:`run_parallel` — master–secondary
  multi-instance sessions with corpus sync and contention (§V-D).
* :class:`Seed` / :class:`SeedPool` / :class:`Scheduler` — queue
  management with AFL's favored culling and energy policy.
* :class:`Mutator` — the batched havoc stage (draw, then apply).
* :class:`CrashwalkTriager` / :class:`AflCrashTriager` — crash dedup.
"""

from .campaign import Campaign, CampaignConfig, run_campaign
from .checkpoint import CampaignCheckpoint
from .dictionary import DictionaryMixer, extract_dictionary
from .clock import VirtualClock
from .mutation import (ARITH_MAX, HAVOC_STACK_POW2, INTERESTING_8,
                       INTERESTING_16, INTERESTING_32, MutantBatch,
                       Mutator)
from .parallel import (ParallelResultSummary, ParallelSession,
                       run_ensemble, run_parallel)
from .pool import SeedPool
from .scheduling import EnergyPolicy, Scheduler
from .seed import Seed
from .stats import CampaignResult, RunningShape
from .triage import AflCrashTriager, CrashRecord, CrashwalkTriager

__all__ = [
    "Campaign", "CampaignConfig", "run_campaign",
    "CampaignCheckpoint",
    "DictionaryMixer", "extract_dictionary",
    "VirtualClock",
    "ARITH_MAX", "HAVOC_STACK_POW2", "INTERESTING_8", "INTERESTING_16",
    "INTERESTING_32", "MutantBatch", "Mutator",
    "ParallelResultSummary", "ParallelSession", "run_ensemble",
    "run_parallel",
    "SeedPool", "EnergyPolicy", "Scheduler", "Seed",
    "CampaignResult", "RunningShape",
    "AflCrashTriager", "CrashRecord", "CrashwalkTriager",
]
