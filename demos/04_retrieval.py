"""Cross-modal retrieval with a trained encoder.

Two tasks share one mechanism: rank a pool by inner product in the joint
space. Text->IMU uses text anchors as queries against the IMU-embedding
pool; IMU->Video uses IMU embeddings as queries against the video-anchor
pool. Because the encoder was trained only against video anchors, the
Text->IMU numbers demonstrate transitivity through the shared space.
"""

import numpy as np

from imualign.encoder import EncoderConfig, encode_batch, init_params
from imualign.evaluate import Pool, eval_retrieval
from imualign.signalio import synth_class_anchors, synth_dataset
from imualign.train import AdagradState, TrainConfig, train_epoch

dataset = synth_dataset(seed=7, n_windows=32, n_classes=4, dim=32, n_samples=200, noise=0.05)
encoder_config = EncoderConfig(
    conv_channels=(16, 32), conv_kernels=(10, 5), conv_strides=(2, 2),
    gru_hidden=32, embed_dim=32,
)
config = TrainConfig(epochs=60, seed=0, mode="iv")  # video-only training
params = init_params(encoder_config, config.seed)
state = AdagradState()
for epoch in range(config.epochs):
    train_epoch(dataset, params, state, config, encoder_config, epoch)

ids = [w.window_id for w in dataset.windows]
embeddings = dict(zip(ids, encode_batch(dataset.windows, params, encoder_config)))
video = {k: v.vector for k, v in dataset.video_anchors.items()}
text = {k: v.vector for k, v in dataset.text_anchors.items()}

for direction, anchors in (("imu2video", video), ("video2imu", video),
                           ("text2imu", text), ("imu2text", text)):
    m = eval_retrieval(embeddings, anchors, direction)
    print(f"{direction:>9}: R@1={m['R@1']:.3f}  R@10={m['R@10']:.3f}  MRR={m['MRR']:.3f}"
          + ("  (never trained on text)" if "text" in direction else ""))

# a free-form query: the class-name anchor for one activity, like asking
# for "jumping" clips. pool = all IMU embeddings.
name, query = list(synth_class_anchors(7, 4, 32).items())[2]
pool = Pool(embeddings)
order, scores = pool.rank(query)
print(f"\ntop 5 windows for class-name query {name!r}:")
for row in order[:5]:
    wid = pool.ids[row]
    print(f"  {wid}  score={scores[row]:.3f}  label={dataset.labels[wid]}")
