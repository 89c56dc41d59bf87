"""Workload sizes and fixed input properties shared by the generator and the runner."""

WORKLOADS = ("pretrain", "retrieve", "ingest", "classify")

# Sizes per workload. `full` is the measured workload; `reference` is the
# small pass that gives every other workload's end-to-end metrics a value
# (it runs for as long as the measured workload, each workload taking an
# equal share of that time); `tiny` is for the tests, whose runs do the
# fixed number of operations given as `counts`. The retrieval pools stay 2,000 and 10,000
# entries at every size but `tiny`: when fewer windows are encoded,
# distractor vectors fill the pools up. `rank_share` is the share of the
# run's seconds that retrieve's ranking phase runs for; in `full` the whole
# 2k pool is encoded first, which takes about as long again.
SIZES = {
    "full": {
        "pretrain": {"windows": 64, "epochs": 1, "classes": 8},
        "retrieve": {"windows": 2000, "imu_pool": 2000, "video_jsonl": 10000, "video_pool": 10000,
                     "encode_chunk": 50, "text_queries": 25, "video_queries": 10, "classes": 8,
                     "rank_share": 0.7},
        "ingest": {"streams": 32, "streams_per_op": 8, "stream_s": 75.0, "native_hz": 120.0},
        "classify": {"windows": 64, "classes": 8, "probe_epochs": 100, "finetune_epochs": 1},
    },
    "reference": {
        "pretrain": {"windows": 32, "epochs": 1, "classes": 8},
        "retrieve": {"windows": 32, "imu_pool": 2000, "video_jsonl": 32, "video_pool": 10000,
                     "encode_chunk": 8, "text_queries": 25, "video_queries": 10, "classes": 8,
                     "rank_share": 1.0},
        "ingest": {"streams": 4, "streams_per_op": 2, "stream_s": 60.0, "native_hz": 120.0},
        "classify": {"windows": 16, "classes": 4, "probe_epochs": 100, "finetune_epochs": 1},
    },
    "tiny": {
        "pretrain": {"windows": 16, "epochs": 1, "classes": 2, "counts": {"fit": 1}},
        "retrieve": {"windows": 8, "imu_pool": 40, "video_jsonl": 20, "video_pool": 100,
                     "encode_chunk": 4, "text_queries": 4, "video_queries": 2, "classes": 2,
                     "rank_share": 1.0,
                     "counts": {"rank": 1}},
        "ingest": {"streams": 2, "streams_per_op": 1, "stream_s": 3.0, "native_hz": 120.0,
                   "counts": {"ingest": 2}},
        "classify": {"windows": 16, "classes": 2, "probe_epochs": 5, "finetune_epochs": 1,
                     "counts": {"round": 1}},
    },
}

# (size of the measured workload, size of the reference pass, fewest
# operations per timed phase of the measured workload and of the reference
# pass)
RUN_SIZES = {"full": ("full", "reference", 5, 5), "tiny": ("tiny", "tiny", 1, 1)}

RATE_HZ = 200.0  # the encoder's sample rate; windows are 1 s = 200 samples
WINDOW_S = 1.0
ANCHOR_DIM = 512  # EncoderConfig().embed_dim
ANCHOR_NOISE = 0.5
TIMESTAMP_JITTER = 0.2  # each CSV sample interval is 1/native_hz * (1 +- 0.2)
