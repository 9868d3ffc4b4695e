"""Personalized federated learning with Bregman-proximal local objectives."""

from .data import (Dataset, Partition, load_csv, load_idx, partition_dirichlet,
                   partition_label_shard, save_csv, synth_gaussian_mixture)
from .errors import (ConfigError, DegenerateInputError, DimensionError, DivergenceError,
                     DomainError, IdxFormatError, NumericalError, PartitionError)
from .fl import (ClientState, Evaluator, PriorStrategy, RunConfig, RunHistory, aggregate,
                 client_rng, compute_prior_mean, eval_rng, fedavg_local_round, finetune_trick,
                 init_rng, local_round, make_clients, perfedavg_local_round,
                 perfedavg_personalize, run_fedavg, run_perfedavg_fo, run_pfedbred,
                 sample_clients)
from .metrics import RoundMetrics, gce, loss_deviation, per_class_stats, savitzky_golay
from .mirror import (MIRROR_MAPS, SQUARED_NORM, MirrorMap, bregman_divergence,
                     bregman_divergence_conjugate, bregman_prox, conjugate_value,
                     envelope_gradient, envelope_value, get_mirror_map)
from .models import Dnn, LossOracle, Mclr, make_model

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Partition", "load_csv", "load_idx", "partition_dirichlet",
    "partition_label_shard", "save_csv", "synth_gaussian_mixture",
    "ConfigError", "DegenerateInputError", "DimensionError", "DivergenceError",
    "DomainError", "IdxFormatError", "NumericalError", "PartitionError",
    "ClientState", "Evaluator", "PriorStrategy", "RunConfig", "RunHistory", "aggregate",
    "client_rng", "compute_prior_mean", "eval_rng", "fedavg_local_round", "finetune_trick",
    "init_rng", "local_round", "make_clients", "perfedavg_local_round",
    "perfedavg_personalize", "run_fedavg", "run_perfedavg_fo", "run_pfedbred",
    "sample_clients",
    "RoundMetrics", "gce", "loss_deviation", "per_class_stats", "savitzky_golay",
    "MIRROR_MAPS", "SQUARED_NORM", "MirrorMap", "bregman_divergence",
    "bregman_divergence_conjugate", "bregman_prox", "conjugate_value",
    "envelope_gradient", "envelope_value", "get_mirror_map",
    "Dnn", "LossOracle", "Mclr", "make_model",
]
