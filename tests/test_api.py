"""The package's public API: the runners, the math and the data, not the engine's parts."""

import pytest

import pfedbred
from pfedbred import fl, models

PUBLIC = [
    "Dataset", "Partition", "load_csv", "load_idx", "partition_dirichlet",
    "partition_label_shard", "save_csv", "synth_gaussian_mixture",
    "ConfigError", "DegenerateInputError", "DimensionError", "DivergenceError",
    "DomainError", "IdxFormatError", "NumericalError", "PartitionError",
    "PriorStrategy", "RunConfig", "RunHistory", "run_fedavg", "run_perfedavg_fo",
    "run_pfedbred",
    "RoundMetrics", "gce", "loss_deviation", "per_class_stats", "savitzky_golay",
    "MIRROR_MAPS", "SQUARED_NORM", "MirrorMap", "bregman_divergence",
    "bregman_divergence_conjugate", "bregman_prox", "conjugate_value",
    "envelope_gradient", "envelope_value", "get_mirror_map",
    "Dnn", "Mclr", "make_model",
]

# the engine's parts: internal, and reachable only through their modules
INTERNAL = {
    "ClientState": fl, "Evaluator": fl, "make_clients": fl, "LossOracle": models,
    "local_round": fl, "fedavg_local_round": fl, "perfedavg_local_round": fl,
    "perfedavg_personalize": fl, "finetune_trick": fl, "aggregate": fl,
    "sample_clients": fl, "compute_prior_mean": fl, "init_rng": fl, "client_rng": fl,
    "eval_rng": fl,
}


def test_all_lists_exactly_the_public_api():
    assert len(PUBLIC) == len(set(PUBLIC)) == 40
    assert pfedbred.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(pfedbred, name) is not None


@pytest.mark.parametrize("name", sorted(INTERNAL))
def test_engine_parts_are_not_exported(name):
    assert not hasattr(pfedbred, name)
    assert getattr(INTERNAL[name], name).__doc__.startswith("Internal: ")
