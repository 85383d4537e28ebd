"""Video-to-joint-embedding-space pipeline at desk scale: temporal fusion
heads over per-frame embeddings, dot-product classification against frozen
class prototypes, and exact text-to-video retrieval.
"""

from .analysis import Projection2D, cluster_separation, precision_at_k, project_2d
from .data import (
    ClassPrototypes,
    DatasetManifest,
    FrameSequence,
    ManifestRecord,
    SynthConfig,
    generate_synthetic,
    l2_normalize,
    load_prototypes,
    read_embeddings,
    sample_frames,
    write_embeddings,
)
from .heads import (
    HeadParams,
    HeadSpec,
    VideoEmbedding,
    classify_majority_vote,
    embed_sequence,
    fuse_max_pool,
    fuse_mid_frame,
    init_params,
)
from .optim import AdamState, adam_step, grad_check
from .retrieval import RankedResult, RetrievalIndex, brute_force_topk, build_index, query
from .tensor import GradTape, Tensor, backward, matmul, softmax_cross_entropy
from .train import TrainConfig, TrainHistory, evaluate, logits, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ClassPrototypes",
    "DatasetManifest",
    "FrameSequence",
    "GradTape",
    "HeadParams",
    "HeadSpec",
    "ManifestRecord",
    "Projection2D",
    "RankedResult",
    "RetrievalIndex",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "TrainHistory",
    "VideoEmbedding",
    "adam_step",
    "backward",
    "brute_force_topk",
    "build_index",
    "classify_majority_vote",
    "cluster_separation",
    "embed_sequence",
    "evaluate",
    "fuse_max_pool",
    "fuse_mid_frame",
    "generate_synthetic",
    "grad_check",
    "init_params",
    "l2_normalize",
    "load_prototypes",
    "logits",
    "matmul",
    "precision_at_k",
    "project_2d",
    "query",
    "read_embeddings",
    "sample_frames",
    "softmax_cross_entropy",
    "train",
    "write_embeddings",
]
