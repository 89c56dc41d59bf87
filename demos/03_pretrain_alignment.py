"""Contrastive pre-training of the IMU encoder against frozen anchors.

The encoder (GroupNorm -> conv stack -> max pool -> GroupNorm -> GRU ->
projection -> L2 normalize) is pulled toward the video anchors of its
windows with a symmetric InfoNCE loss over in-batch negatives, optimized
with Adagrad (batch 16, lr 0.01, eps 1e-8, inverse-time decay 0.1).
"""

import numpy as np

from imualign.encoder import EncoderConfig, encode_batch, init_params
from imualign.evaluate import eval_retrieval
from imualign.signalio import synth_dataset
from imualign.train import AdagradState, TrainConfig, lr_at, train_epoch

dataset = synth_dataset(seed=7, n_windows=32, n_classes=4, dim=32, n_samples=200, noise=0.05)

encoder_config = EncoderConfig(
    conv_channels=(16, 32), conv_kernels=(10, 5), conv_strides=(2, 2),
    gru_hidden=32, embed_dim=32,
)
train_config = TrainConfig(epochs=60, seed=0, mode="iv")

params = init_params(encoder_config, train_config.seed)
state = AdagradState()

print(f"{len(dataset)} windows, batch {train_config.batch_size}, "
      f"{train_config.epochs} epochs, mode {train_config.mode}")
print(f"{'epoch':>5} {'lr':>8} {'L_i2v':>8} {'L_v2i':>8} {'L_sym':>8}")
for epoch in range(train_config.epochs):
    report = train_epoch(dataset, params, state, train_config, encoder_config, epoch)
    if epoch % 10 == 0 or epoch == train_config.epochs - 1:
        lr = lr_at(epoch, train_config.learning_rate, train_config.decay)
        print(f"{epoch:5d} {lr:8.5f} {report['l_i2v']:8.4f} {report['l_v2i']:8.4f} {report['l_total']:8.4f}")

# how well does the trained encoder retrieve its own video anchors?
embeddings = dict(zip(
    [w.window_id for w in dataset.windows],
    encode_batch(dataset.windows, params, encoder_config),
))
anchors = {k: v.vector for k, v in dataset.video_anchors.items()}
metrics = eval_retrieval(embeddings, anchors, "imu2video")
print("\ntrain-set IMU->Video retrieval:", {k: metrics[k] for k in ("R@1", "R@10", "MRR")})
