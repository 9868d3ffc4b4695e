"""The benchmark's workloads: one pfedbred experiment each, in CLI config keys.

Each workload is a flat override dict for ``pfedbred.cli.parse_config`` plus
the accuracy floors its final round must clear.  The workload seed reaches the
program only as the spec's ``seed`` (data generator, partitioner and
``RunConfig.seed``) and, for ``idx784_perfedavg_dnn``, as the seed of the IDX
files the benchmark writes before a run.
"""

from __future__ import annotations

from dataclasses import dataclass

# One benchmark invocation runs a panel of PANEL_SIZE input seeds derived from
# its --seed.  Final accuracy is deterministic per input seed but varies by
# 10-16% (quartile spread over median) from one seed to the next; averaging it
# over a panel keeps the reported figure steady.
PANEL_SIZE = 6
# Reference digests exist for input seeds 0 .. NUM_REFERENCE_SEEDS - 1, so
# every run's metric file is checked whatever --seed is given.
NUM_REFERENCE_SEEDS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    # Final-round accuracy floors, well clear of chance (0.1 for 10 classes)
    # and below every value recorded over the reference seeds.
    min_personalized_acc: float
    min_global_acc: float
    idx: bool = False  # reads an IDX pair written by idxgen

    @property
    def rounds(self) -> int:
        return self.overrides["T"]


WORKLOADS = {w.name: w for w in (
    # The criterion-4 ablation config: tens of thousands of tiny,
    # dispatch-bound per-client calls; evaluation is about 2% of the time.
    Workload(
        name="ablation_mclr",
        overrides={"synth": "10,10,400,1.0", "partition": "label_shard:3",
                   "method": "pfedbred", "strategy": "mh", "model": "mclr",
                   "T": 20, "N": 20, "S": 10, "R": 20, "K": 8, "batch": 20,
                   "lambda": 30.0, "alpha_m": 0.02, "alpha": 0.03,
                   "eta": 0.05, "eta_alpha": 0.05, "track_deviations": False},
        min_personalized_acc=0.3, min_global_acc=0.2),
    # Evaluation is O(N x pooled test) and only S of N personalized models
    # change per round; local training is under 1% of the time.
    Workload(
        name="eval_wide_n400",
        overrides={"synth": "10,10,2000,1.0", "partition": "label_shard:3",
                   "method": "pfedbred", "strategy": "mh", "model": "mclr",
                   "T": 4, "N": 400, "S": 10, "R": 2, "K": 2,
                   "track_deviations": True},
        # 10 of 400 clients train per round, so after 4 rounds nearly every
        # personalized model is still the initial one and accuracy sits at
        # chance by design; this floor only rejects a collapsed evaluator.
        min_personalized_acc=0.04, min_global_acc=0.04),
    # Arithmetic-bound gradients of a 79.5k-parameter network, no prox,
    # personalization of all N clients and a full re-evaluation every round,
    # and a real file parsed at set-up.  Every client holds all ten classes:
    # with label_shard:3 and 5 of 20 clients sampled, the final-round global
    # accuracy swings between 0.12 and 0.88 from seed to seed.
    Workload(
        name="idx784_perfedavg_dnn",
        overrides={"partition": "label_shard:10", "method": "perfedavg_fo",
                   "model": "dnn", "T": 12, "N": 20, "S": 5, "R": 5,
                   "batch": 20, "alpha_m": 0.02, "alpha": 0.03,
                   "track_deviations": True},
        min_personalized_acc=0.5, min_global_acc=0.5, idx=True),
)}


def panel_seeds(seed: int) -> list[int]:
    """The input seeds one invocation with ``--seed seed`` runs, in order."""
    return [(seed * PANEL_SIZE + j) % NUM_REFERENCE_SEEDS for j in range(PANEL_SIZE)]
