"""Flow-record intrusion detection with a from-scratch transformer encoder.

Pipeline: tabular flow records are encoded feature-by-feature into [0, 1]
scalars, lifted into learned token sequences ("sentences"), classified by
a causally masked transformer encoder trained with a small reverse-mode
autodiff engine, and scored with a full binary-metrics suite. Everything
runs on numpy float64; no deep-learning framework involved.

The usual round trip:

    from flowids import dataio, metrics, sentencing, training
    ds = dataio.synth(400, seed=7)
    result = training.train(ds, training.TrainConfig(model="transformer", lr=1e-3, epochs=2))
    x, y = sentencing.encode_batch(result.test.records, result.schema)
    rep = metrics.report(training.predict_scores(result.params, x), y)
    print(rep.table("encoder"))
"""

from . import dataio, metrics, model, sentencing, tensor, training
from .dataio import Dataset, FlowRecord, load_checkpoint, load_csv, save_checkpoint, synth
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    FlowidsError,
    IncompatibilityError,
    IntegrityError,
    MetricUndefinedError,
    NumericError,
    SchemaError,
    VersionError,
)
from .metrics import report
from .model import EncoderConfig, forward, init_fnn, init_params
from .sentencing import Schema, encode_batch, fit_schema
from .tensor import Tensor
from .training import TrainConfig, predict_scores, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DataError",
    "Dataset",
    "DimensionError",
    "EncoderConfig",
    "FlowRecord",
    "FlowidsError",
    "IncompatibilityError",
    "IntegrityError",
    "MetricUndefinedError",
    "NumericError",
    "Schema",
    "SchemaError",
    "Tensor",
    "TrainConfig",
    "VersionError",
    "dataio",
    "encode_batch",
    "fit_schema",
    "forward",
    "init_fnn",
    "init_params",
    "load_checkpoint",
    "load_csv",
    "metrics",
    "model",
    "predict_scores",
    "report",
    "save_checkpoint",
    "sentencing",
    "synth",
    "tensor",
    "train",
    "training",
]
