"""Numpy GCN training substrate with crossbar-staleness semantics."""

from repro.gcn.losses import (
    accuracy,
    sigmoid,
    softmax,
)
from repro.gcn.checkpoint import (
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from repro.gcn.batched import (
    ReplicaSpec,
    infer,
    train_replicas,
    train_split_replicas,
)
from repro.gcn.model import GCN
from repro.gcn.sage import GraphSAGE
from repro.gcn.optim import Adam
from repro.gcn.trainer import (
    LinkPredictionTrainer,
    NodeClassificationTrainer,
    TrainingResult,
    make_trainer,
)

__all__ = [
    "accuracy",
    "sigmoid",
    "softmax",
    "GCN",
    "GraphSAGE",
    "load_checkpoint",
    "restore_model",
    "save_checkpoint",
    "Adam",
    "LinkPredictionTrainer",
    "NodeClassificationTrainer",
    "TrainingResult",
    "make_trainer",
    "ReplicaSpec",
    "infer",
    "train_replicas",
    "train_split_replicas",
]
