"""imualign: contrastive alignment of a trainable IMU encoder to frozen
video/text anchor embeddings, plus retrieval and activity-recognition
evaluation.
"""

__version__ = "0.1.0"

from .encoder import EncoderConfig, EncoderParams, encode_batch, init_params
from .errors import (CoverageError, DataError, FormatError, GraphError, ImuAlignError, NumericError,
                     ShapeMismatchError)
from .evaluate import (ClassifierHead, Pool, ProbeConfig, classification_metrics, eval_retrieval, fine_tune,
                       train_probe, zeroshot_classify)
from .signalio import (AnchorEmbedding, ImuStream, ParallelDataset, WindowSet, assemble_dataset,
                       load_anchor_embeddings, load_imu_stream, make_windows, resample, synth_dataset)
from .train import TrainConfig, fit, load_checkpoint, save_checkpoint

# the pipeline's entry points, sorted; every other name stays importable from its module
# (`imualign.<module>`), and the submodules are not exported
__all__ = [
    "AnchorEmbedding", "ClassifierHead", "CoverageError", "DataError", "EncoderConfig", "EncoderParams",
    "FormatError", "GraphError", "ImuAlignError", "ImuStream", "NumericError", "ParallelDataset", "Pool",
    "ProbeConfig", "ShapeMismatchError", "TrainConfig", "WindowSet", "assemble_dataset", "classification_metrics",
    "encode_batch", "eval_retrieval", "fine_tune", "fit", "init_params", "load_anchor_embeddings",
    "load_checkpoint", "load_imu_stream", "make_windows", "resample", "save_checkpoint", "synth_dataset",
    "train_probe", "zeroshot_classify",
]
