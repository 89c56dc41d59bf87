"""Every writer's output loads back, through its loader, to what was written:
the checkpoint, the window cache, the classifier head, the labels, the IMU
CSV and the anchor JSONL, each drawn at small sizes. One property draws the
writer, then the object it writes."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imualign import signalio
from imualign.autodiff import Tensor
from imualign.encoder import EncoderConfig, EncoderParams, param_shapes
from imualign.errors import DataError
from imualign.evaluate import ClassifierHead, load_head, save_head
from imualign.signalio import (
    AnchorEmbedding,
    ImuStream,
    WindowCache,
    WindowSet,
    load_anchor_embeddings,
    load_imu_stream,
    load_labels,
    load_window_cache,
    save_window_cache,
    write_anchor_embeddings,
    write_imu_stream,
    write_labels,
)
from imualign.train import MODES, TrainConfig, load_checkpoint, save_checkpoint

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SIZES = st.integers(1, 3)
_NAMES = st.text(min_size=1, max_size=4)


def _array(data, shape) -> np.ndarray:
    return data.draw(arrays(np.float64, shape, elements=_FINITE))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def _checkpoint(data, path: Path) -> None:
    n = data.draw(_SIZES)
    enc = EncoderConfig(*(tuple(data.draw(st.lists(_SIZES, min_size=n, max_size=n))) for _ in range(3)),
                        *(data.draw(_SIZES) for _ in range(4)))
    params = EncoderParams({name: Tensor(_array(data, shape), requires_grad=True)
                            for name, shape in param_shapes(enc).items()})
    train = data.draw(st.none() | st.builds(
        TrainConfig, batch_size=st.integers(2, 64), learning_rate=st.floats(1e-9, 10), adagrad_eps=st.floats(1e-12, 1),
        decay=st.floats(0, 10), epochs=st.integers(0, 10**6), seed=st.integers(0, 2**64),
        mode=st.sampled_from(list(MODES)), temperature=st.floats(1e-6, 10)))
    step = data.draw(st.integers(0, 2**63))
    save_checkpoint(path, params, None, enc, train, step)
    ck = load_checkpoint(path)
    assert (ck.encoder_config, ck.train_config, ck.step) == (enc, train, step)
    assert [(n, _bits(t.data)) for n, t in ck.params.named().items()] == [
        (n, _bits(t.data)) for n, t in params.named().items()]
    again = path.with_name("again.bin")
    save_checkpoint(again, ck.params, None, ck.encoder_config, ck.train_config, ck.step)
    assert again.read_bytes() == path.read_bytes()


def _window_cache(data, path: Path) -> None:
    ids = data.draw(st.lists(_NAMES, max_size=3, unique=True))
    n = len(ids)
    columns = [data.draw(st.lists(kind, min_size=n, max_size=n)) for kind in (_NAMES, _FINITE, _FINITE)]
    windows = WindowSet(ids, *columns, _array(data, (n, 6, data.draw(_SIZES))))
    cache = WindowCache(windows, *(data.draw(_FINITE) for _ in range(3)), data.draw(st.text(max_size=8)))
    save_window_cache(cache, path)
    got = load_window_cache(path)
    assert [getattr(got, k) for k in signalio._CACHE_FIELDS] == [getattr(cache, k) for k in signalio._CACHE_FIELDS]
    for key in signalio._COLUMNS:
        assert getattr(got.windows, key) == getattr(windows, key)
    assert _bits(got.windows.signals) == _bits(windows.signals) and got.windows.signals.shape == windows.signals.shape


def _head(data, path: Path) -> None:
    names = data.draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    head = ClassifierHead(_array(data, (len(names), data.draw(_SIZES))), _array(data, (len(names),)), names)
    save_head(path, head)
    got = load_head(path)
    assert got.class_names == names and got.weight.shape == head.weight.shape
    assert (_bits(got.weight), _bits(got.bias)) == (_bits(head.weight), _bits(head.bias))


def _labels(data, path: Path) -> None:
    classes = data.draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    labels = data.draw(st.dictionaries(_NAMES, st.sampled_from(classes), max_size=4))
    write_labels(labels, classes, path)
    assert load_labels(path) == (labels, classes)


def _imu_stream(data, path: Path) -> None:
    times = sorted(data.draw(st.lists(_FINITE, min_size=1, max_size=5, unique=True)))
    try:
        stream = ImuStream("s", 0.0, times, _array(data, (len(times), 6)))
    except DataError:  # a span or mean rate no float holds: no stream to write
        reject()
    write_imu_stream(stream, path)
    got = load_imu_stream(path)
    assert got.source_id == path.stem
    assert (_bits(got.timestamps), _bits(got.values)) == (_bits(stream.timestamps), _bits(stream.values))


def _anchors(data, path: Path) -> None:
    dim = data.draw(_SIZES)
    vectors = st.lists(_FINITE, min_size=dim, max_size=dim).filter(any)  # no norm scales a 0 vector
    anchors = {wid: AnchorEmbedding(wid, data.draw(st.sampled_from(["video", "text"])), data.draw(vectors))
               for wid in data.draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))}
    write_anchor_embeddings(anchors, path)
    got = load_anchor_embeddings(path)
    assert list(got) == sorted(anchors)
    for wid, a in anchors.items():  # the loader makes each row unit, by the one rule every loader uses
        assert (got[wid].window_id, got[wid].modality) == (wid, a.modality)
        assert _bits(got[wid].vector) == _bits(signalio._unit_rows([a.vector.tolist()])[0])


_WRITERS = {"checkpoint": _checkpoint, "window-cache": _window_cache, "head": _head, "labels": _labels,
            "imu-csv": _imu_stream, "anchors": _anchors}


@settings(max_examples=200, deadline=None)
@given(writer=st.sampled_from(sorted(_WRITERS)), data=st.data())
def test_each_writers_output_loads_back_to_what_was_written(writer, data):
    with tempfile.TemporaryDirectory() as tmp:
        _WRITERS[writer](data, Path(tmp) / f"{writer}.out")
