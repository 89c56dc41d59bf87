"""The three activity-recognition protocols on one pre-trained encoder.

zeroshot: nearest class-name anchor in the joint space, no labels used.
probe:    a linear head trained on frozen encoder outputs.
finetune: encoder and head trained jointly.

On an easy synthetic corpus all three can saturate; the point here is the
mechanism and the frozen-encoder contract, not the absolute numbers.
"""

from imualign.encoder import EncoderConfig, encode_batch, init_params
from imualign.evaluate import (
    ProbeConfig,
    classification_metrics,
    fine_tune,
    train_probe,
    zeroshot_classify,
)
from imualign.signalio import synth_class_anchors, synth_dataset
from imualign.train import AdagradState, TrainConfig, train_epoch

dataset = synth_dataset(seed=7, n_windows=32, n_classes=4, dim=32, n_samples=200, noise=0.05)
encoder_config = EncoderConfig(
    conv_channels=(16, 32), conv_kernels=(10, 5), conv_strides=(2, 2),
    gru_hidden=32, embed_dim=32,
)
config = TrainConfig(epochs=60, seed=0, mode="iv")
params = init_params(encoder_config, config.seed)
state = AdagradState()
for epoch in range(config.epochs):
    train_epoch(dataset, params, state, config, encoder_config, epoch)

golds = [dataset.labels[w.window_id] for w in dataset.windows]
embeddings = encode_batch(dataset.windows, params, encoder_config)
budget = ProbeConfig(epochs=80, learning_rate=0.1, seed=0)

# zeroshot: class names embedded as text anchors, nearest neighbor
class_anchors = list(synth_class_anchors(7, 4, 32).items())
zs_preds = [zeroshot_classify(e, class_anchors) for e in embeddings]
zs = classification_metrics(zs_preds, golds, dataset.class_names)

# probe: linear head on the frozen encoder
checksum_before = params.checksum()
head = train_probe(dataset, params, encoder_config, budget)
probe = classification_metrics(head.predict(embeddings), golds, dataset.class_names)
print("encoder untouched by probing:", params.checksum() == checksum_before)

# finetune: same budget, all parameters trainable
ft_params, ft_head = fine_tune(dataset, params, None, encoder_config, budget)
ft_emb = encode_batch(dataset.windows, ft_params, encoder_config)
ft = classification_metrics(ft_head.predict(ft_emb), golds, dataset.class_names)

print(f"\n{'protocol':>9} {'accuracy':>9} {'macro F1':>9}")
for name, metrics in (("zeroshot", zs), ("probe", probe), ("finetune", ft)):
    print(f"{name:>9} {metrics['accuracy']:9.3f} {metrics['macro_f1']:9.3f}")
