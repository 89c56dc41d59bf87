"""imualign: contrastive alignment of a trainable IMU encoder to frozen
video/text anchor embeddings, plus retrieval and activity-recognition
evaluation.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, backward, finite_difference_check
from .contrastive import (
    alignment_loss,
    info_nce,
    retrieval_distribution,
    similarity_matrix,
    symmetric_loss,
)
from .encoder import (
    EncoderConfig,
    EncoderParams,
    encode,
    encode_batch,
    init_params,
)
from .errors import (
    CoverageError,
    DataError,
    FormatError,
    GraphError,
    ImuAlignError,
    NumericError,
    ShapeMismatchError,
)
from .evaluate import (
    ClassifierHead,
    Pool,
    ProbeConfig,
    RetrievalResult,
    classification_metrics,
    eval_retrieval,
    fine_tune,
    mrr,
    rank_pool,
    recall_at_k,
    train_probe,
    zeroshot_classify,
)
from .signalio import (
    AnchorEmbedding,
    ImuStream,
    ImuWindow,
    ParallelDataset,
    WindowSet,
    assemble_dataset,
    load_anchor_embeddings,
    load_imu_stream,
    make_windows,
    resample,
    synth_dataset,
)
from .train import (
    AdagradState,
    TrainConfig,
    adagrad_step,
    fit,
    load_checkpoint,
    lr_at,
    make_batches,
    save_checkpoint,
    train_epoch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
