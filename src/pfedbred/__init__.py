"""Personalized federated learning with Bregman-proximal local objectives.

``__all__`` is the public API.  The engine's parts, in ``pfedbred.fl`` and
``pfedbred.models``, are internal and may change in any release.
"""

from .data import (Dataset, Partition, load_csv, load_idx, partition_dirichlet,
                   partition_label_shard, save_csv, synth_gaussian_mixture)
from .errors import (ConfigError, DegenerateInputError, DimensionError, DivergenceError,
                     DomainError, IdxFormatError, NumericalError, PartitionError)
from .fl import PriorStrategy, RunConfig, RunHistory, run_fedavg, run_perfedavg_fo, run_pfedbred
from .metrics import RoundMetrics, gce, loss_deviation, per_class_stats, savitzky_golay
from .mirror import (MIRROR_MAPS, SQUARED_NORM, MirrorMap, bregman_divergence,
                     bregman_divergence_conjugate, bregman_prox, conjugate_value,
                     envelope_gradient, envelope_value, get_mirror_map)
from .models import Dnn, Mclr, make_model

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Partition", "load_csv", "load_idx", "partition_dirichlet",
    "partition_label_shard", "save_csv", "synth_gaussian_mixture",
    "ConfigError", "DegenerateInputError", "DimensionError", "DivergenceError",
    "DomainError", "IdxFormatError", "NumericalError", "PartitionError",
    "PriorStrategy", "RunConfig", "RunHistory", "run_fedavg", "run_perfedavg_fo", "run_pfedbred",
    "RoundMetrics", "gce", "loss_deviation", "per_class_stats", "savitzky_golay",
    "MIRROR_MAPS", "SQUARED_NORM", "MirrorMap", "bregman_divergence",
    "bregman_divergence_conjugate", "bregman_prox", "conjugate_value",
    "envelope_gradient", "envelope_value", "get_mirror_map",
    "Dnn", "Mclr", "make_model",
]
