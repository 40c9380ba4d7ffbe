"""Training loop: fused cross-entropy loss, AdamW, epoch-level logging.

The loss is a custom taped primitive so the softmax and the log never meet
numerically (log-sum-exp keeps everything finite). The optimizer applies
decoupled weight decay: the decay term multiplies the raw weight and is not
part of the moment estimates.
"""

from __future__ import annotations

import contextvars
import csv
import math
import os
import threading
from dataclasses import asdict, astuple, dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from . import dataio
from .dataio import _as_float
from . import model as M
from . import tensor as T
from .errors import ConfigError, ContractError, DataError, NumericError
from .sentencing import Schema, encode_batch, fit_schema, profile_columns
from .tensor import Tensor

# Per-model defaults. The transformer settings mirror the reproduced
# training setup; the baseline MLP gets the usual quick recipe.
MODEL_DEFAULTS = {
    "transformer": {"lr": 2e-5, "epochs": 10},
    "fnn": {"lr": 1e-3, "epochs": 100},
}


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels.

    Forward and backward are fused: log-softmax via the max-shift trick,
    gradient (softmax - onehot) / batch.
    """
    labels = np.asarray(labels)
    z = logits.data
    if z.ndim != 2:
        raise ContractError(f"cross_entropy expects (batch, classes) logits, got {z.shape}")
    n, k = z.shape
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.dtype.kind not in "iu":  # signed or unsigned integers; bool is neither
        raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if n and not (0 <= np.minimum.reduce(labels) and np.maximum.reduce(labels) < k):  # look for the row only then
        i = int(np.flatnonzero((labels < 0) | (labels >= k))[0])
        raise DataError(f"label at row {i} is {labels[i]}, outside 0..{k - 1}")

    # the reduce ufuncs are what .max/.sum/.mean compute, without their overhead
    shifted = z - np.maximum.reduce(z, axis=1, keepdims=True)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    rows = np.arange(n)
    out = Tensor(np.asarray(-(np.add.reduce(logp[rows, labels]) / n)))

    def backward(g):
        grad = np.exp(logp)  # the softmax, built only when a backward pass reads it
        grad[rows, labels] -= 1.0
        return (grad * (float(g) / n),)

    return T.record(out, (logits,), backward)


class AdamW:
    """AdamW over a list of (name, Tensor) pairs; state keyed by name.

    Construction moves every parameter into one flat float64 buffer and
    rebinds each ``Tensor.data`` to a view of its slice, so a step is one
    elementwise update over the whole buffer, in place. It gathers the
    gradients into a preallocated flat vector and works in two preallocated
    scratch vectors, so a step allocates no array the size of the parameters.
    The optimizer owns that storage from then on: a parameter whose ``data``
    is later rebound is no longer updated. ``state[name]`` is the
    parameter's ``(m, v)`` pair, as views of the flat moment buffers.
    """

    def __init__(self, named_params, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
        if lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {lr}")
        self.params = list(named_params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names in optimizer")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._w = np.concatenate([t.data.reshape(-1) for _, t in self.params])
        self._m, self._v, self._g, self._a, self._b = (np.zeros_like(self._w) for _ in range(5))
        self._slices = []
        self.state = {}
        start = 0
        for name, t in self.params:
            sl = slice(start, start + t.data.size)
            start = sl.stop
            self._slices.append(sl)
            t.data = self._w[sl].reshape(t.data.shape)
            self.state[name] = (self._m[sl].reshape(t.data.shape), self._v[sl].reshape(t.data.shape))

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self) -> None:
        """Update every parameter that received a gradient this round.

        The update runs over the flat buffers in place, one IEEE operation
        per line, in the order that this expression evaluates them, with
        step counting from 1:
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            w = w - lr * (m / (1 - beta1**step) / (sqrt(v / (1 - beta2**step)) + eps) + weight_decay * w)
        """
        self.step_count += 1
        w, g, m, v, a, b = self._w, self._g, self._m, self._v, self._a, self._b
        beta1, beta2, step = self.beta1, self.beta2, self.step_count
        np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.reshape(-1) for _, t in self.params], out=g)
        # a parameter without a grad keeps its weight and its moments
        kept = [(sl, w[sl].copy(), m[sl].copy(), v[sl].copy())
                for sl, (_, t) in zip(self._slices, self.params) if t.grad is None]
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, 1.0 - beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, 1.0 - beta1**step, out=a)
        np.divide(v, 1.0 - beta2**step, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)
        np.multiply(w, self.weight_decay, out=b)
        np.add(a, b, out=a)
        np.multiply(a, self.lr, out=a)
        np.subtract(w, a, out=w)
        for sl, kw, km, kv in kept:
            w[sl], m[sl], v[sl] = kw, km, kv


# The TrainConfig fields that shape the model: a checkpoint keeps them in hyper, and the recipe as train_config.
SHAPE_FIELDS = ("model", "dim", "heads", "blocks", "mlp_dim", "fnn_hidden", "mask")
# Numeric TrainConfig fields (each entry, for the tuples) by type; bools are neither.
_INTEGER_FIELDS = ("epochs", "batch_size", "seed", "dim", "heads", "blocks", "mlp_dim", "fnn_hidden")
_REAL_FIELDS = ("lr", "beta1", "beta2", "eps", "weight_decay", "split_fractions")


@dataclass
class TrainConfig:
    """Everything that determines a training run, seeds included.

    epochs and lr default per model kind (see MODEL_DEFAULTS) when left as
    None; resolved() fills them in and validates each field's type and
    range. hyper() maps the fields that shape a model to its kind's hyper
    dict, whose size rules only the kind's shapes checks, at the input
    width: train() builds the model before it splits, and the CLI checks
    at the profile's width before it opens --data.
    """

    model: str = "transformer"
    epochs: int | None = None
    lr: float | None = None
    batch_size: int = 16
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0
    dim: int = 32
    heads: int = 4
    blocks: int = 2
    mlp_dim: int | None = None
    fnn_hidden: tuple[int, int] = (64, 64)
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    mask: bool = True

    def resolved(self) -> "TrainConfig":
        if not isinstance(self.model, str) or self.model not in MODEL_DEFAULTS:
            raise ConfigError(f"model must be one of {sorted(MODEL_DEFAULTS)}, got {self.model!r}")
        defaults = MODEL_DEFAULTS[self.model]
        cfg = replace(
            self,
            epochs=defaults["epochs"] if self.epochs is None else self.epochs,
            lr=defaults["lr"] if self.lr is None else self.lr,
        )
        for name in _INTEGER_FIELDS + _REAL_FIELDS:
            value, kind = getattr(cfg, name), Integral if name in _INTEGER_FIELDS else Real
            many = name in ("fnn_hidden", "split_fractions")
            if many and not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {value!r}")
            for at, item in enumerate(value) if many else [("", value)]:
                if (isinstance(item, bool) or not isinstance(item, kind)) and (name, item) != ("mlp_dim", None):
                    wanted = "an integer" if kind is Integral else "a number"
                    raise ConfigError(f"{name}{f'[{at}]' if many else ''} must be {wanted}, got {item!r}")
        if not isinstance(cfg.mask, bool):
            raise ConfigError(f"mask must be true or false, got {cfg.mask!r}")
        cfg = replace(cfg, fnn_hidden=tuple(cfg.fnn_hidden), split_fractions=tuple(cfg.split_fractions))
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        if cfg.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {cfg.epochs}")
        for name, ok, wanted in (  # nan fails every comparison, so it fails here too
            ("lr", 0 < _as_float(cfg.lr) < math.inf, "finite and > 0"),
            ("beta1", 0 <= _as_float(cfg.beta1) < 1, "in [0, 1)"),
            ("beta2", 0 <= _as_float(cfg.beta2) < 1, "in [0, 1)"),
            ("eps", 0 < _as_float(cfg.eps) < math.inf, "finite and > 0"),
            ("weight_decay", 0 <= _as_float(cfg.weight_decay) < math.inf, "finite and >= 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {wanted}, got {getattr(cfg, name)!r}")
        if cfg.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {cfg.batch_size}")
        dataio.checked_fractions(cfg.split_fractions)
        if len(cfg.fnn_hidden) != 2:
            raise ConfigError(f"fnn_hidden needs 2 entries, got {cfg.fnn_hidden}")
        return cfg

    def hyper(self, width: int) -> dict:
        """The hyper dict of the model this config trains on inputs of this width; mlp_dim None is 4 * dim."""
        if self.model == "fnn":
            return {"kind": self.model, "features": width, "hidden": list(self.fnn_hidden)}
        return {"kind": self.model, "dim": self.dim, "heads": self.heads, "blocks": self.blocks,
                "mlp_dim": 4 * self.dim if self.mlp_dim is None else self.mlp_dim, "tokens": width, "mask": self.mask}

    def to_dict(self) -> dict:
        """Every field by name, in field order; tuples become JSON lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    def recipe(self) -> dict:
        """to_dict without SHAPE_FIELDS: how the model was trained, which a checkpoint keeps as its train_config."""
        return {k: v for k, v in self.to_dict().items() if k not in SHAPE_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for name in ("fnn_hidden", "split_fractions"):
            if isinstance(kwargs.get(name), list):  # anything else is left for resolved() to reject
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


@dataclass
class EpochStats:
    """One training-log row. Its fields, in order, are the log's one statement of its columns: the
    header that write_log writes and the figures of the CLI's epoch line.

    train_loss and train_acc are running figures over the epoch's steps:
    each training row counts with the logits of the step that trained on
    it, computed before that step's update. val_loss and val_acc come from
    one pass over the validation split with the end-of-epoch parameters.
    """

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


def write_log(rows: list[EpochStats], path) -> None:
    """The training log as CSV: a header of EpochStats' field names, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in fields(EpochStats)])
        writer.writerows(astuple(row) for row in rows)


@dataclass
class TrainResult:
    params: M.ModelParams | M.FnnParams
    schema: Schema
    config: TrainConfig
    log: list[EpochStats]
    train: dataio.Dataset
    validation: dataio.Dataset
    test: dataio.Dataset


# Inference runs in chunks of at most CHUNK_ROWS rows, for either kind. At
# the default encoder (13 tokens, MLP width 128) a 512-row chunk's float64
# activations reach 6.8 MB, more than a core's 2 MiB L2, and temporaries
# that large go back to the OS and are page-faulted in again on every chunk.
# Each numpy or BLAS call of a transformer chunk hands the GIL between the
# scoring threads, so the handoffs per row fall as the chunk grows: 128 rows
# made fewer than 64 did (measured when attention ran head by head; a scoring
# forward now makes 35 tensor-op calls, not 103, see model.attention). softmax
# and layer_norm reuse their temporaries, so a helper thread's heap stays near
# one chunk's working set. 256 rows scored no faster and raised the
# benchmark's peak RSS by 6.5 MB (9%) over 128.
# A row's logits have the same bytes in any chunk (see tensor.product), so
# a call may cut its rows anywhere: it cuts them into equal chunks, as many
# as the threads can share evenly. A transformer's chunks are independent
# and their numpy and BLAS work releases the GIL, so they run on up to
# SCORING_THREADS threads, one per usable core: the caller's and helpers
# that the call starts and joins, at under 0.1 ms a helper against 10 ms or
# more for a threaded call's chunks. Two threads is the most that has been
# measured (time and peak RSS, on a 2-core host); more need measuring first.
CHUNK_ROWS = 128
SCORING_THREADS = 2


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def scoring_threads() -> int:
    """W for a transformer: the threads that score its chunks when it has more than one."""
    return min(usable_cores(), SCORING_THREADS)


def _batched_logits(params, x: np.ndarray) -> np.ndarray:
    """Raw logits for a whole matrix, computed off-tape in chunks.

    The n rows are cut into ceil(n / CHUNK_ROWS) chunks, a count that, when
    it is more than one, is first rounded up to a multiple of W, the
    threads the kind may use: scoring_threads() for a transformer, 1 for
    the FNN. Each chunk but the last has ceil(n / chunks) rows, so
    CHUNK_ROWS is a cap, and up to CHUNK_ROWS rows are one chunk on the
    calling thread. 400 rows on two threads are 4 chunks of 100.

    A transformer's chunks run on min(W, chunks) threads: the calling thread
    and helpers that the call starts and joins. Each thread claims the next
    unscored chunk when it is done with its last, so a thread that the
    machine slows down scores fewer chunks rather than holding the others
    up. A chunk computes the same bytes on any thread. Chunks are claimed in
    order, so every chunk before a failing one is scored; the error raised
    is the lowest failing chunk's, as on one thread, once every thread has
    stopped.
    """
    n = x.shape[0]
    out = np.empty((n, 2))
    workers = scoring_threads() if params.threaded_chunks else 1
    chunks = -(-n // CHUNK_ROWS)  # ceil, in integers
    if chunks > 1:
        chunks = -(-chunks // workers) * workers
    rows = -(-n // chunks) if n else 1
    starts = range(0, n or 1, rows)  # zero rows still check the width
    unclaimed, lock, failures = iter(starts), threading.Lock(), {}

    def score() -> None:
        while True:
            with lock:
                i = next(unclaimed, None)
            if i is None:
                return
            try:
                out[i : i + rows] = params.logits(x[i : i + rows]).data
            except BaseException as exc:  # SystemExit too: a helper it ended would leave its chunk unwritten
                failures[i] = exc  # the caller raises the lowest failing chunk's, once every thread has stopped
                return

    with T.no_grad():
        helpers = []
        try:
            for _ in range(min(workers, len(starts)) - 1):
                # each helper runs in a copy of the caller's context, so np.errstate holds there too
                helper = threading.Thread(target=contextvars.copy_context().run, args=(score,), name="flowids-score")
                helper.start()
                helpers.append(helper)
            score()
        finally:
            for helper in helpers:  # no helper may still run once grad recording is back on
                helper.join()
    if failures:
        raise failures[min(failures)]
    return out


def _scores(logits: np.ndarray) -> np.ndarray:
    """Softmax weight of class 1 for each row of raw (batch, 2) logits."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e[:, 1] / e.sum(axis=1)


def _accuracy(logits: np.ndarray, y: np.ndarray) -> float:
    """Share of rows whose class-1 score at threshold 0.5 matches the label."""
    return float(np.mean((_scores(logits) >= 0.5).astype(np.int64) == y))


def predict_scores(params, x: np.ndarray, *, mask: bool | None = None) -> np.ndarray:
    """P(attack) per row, i.e. the softmax weight of class 1, masked as the model was built.

    Zero rows give an empty vector.

    ``mask`` only keeps callers of the older signature working: it must agree
    with a transformer's ``mask``, the one in its hyper dict; the FNN has no
    attention and ignores it.
    """
    if mask is not None and isinstance(params, M.ModelParams) and mask != params.hyper()["mask"]:
        raise ContractError(f"mask={mask} asked of a model built with mask={params.hyper()['mask']}")
    return _scores(_batched_logits(params, x))


def evaluate(params, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(mean cross-entropy, accuracy at threshold 0.5) on held-out data; (nan, nan) on zero rows."""
    logits = _batched_logits(params, x)
    if not len(y):
        return math.nan, math.nan
    with T.no_grad():
        loss = cross_entropy(Tensor(logits), y).item()
    return loss, _accuracy(logits, y)


def train(dataset: dataio.Dataset, config: TrainConfig | None = None) -> TrainResult:
    """Build the model, split, fit the schema on the train part only, and optimize.

    Fully deterministic for a given (dataset, config): init, shuffling and
    splitting all derive from config.seed.
    """
    config = (config or TrainConfig()).resolved()
    # built first, at the profile's width, so a size that cannot build is refused before the split
    params = M.KINDS[config.model].init(config.hyper(len(profile_columns(dataset.profile)["features"])), config.seed)
    train_ds, val_ds, test_ds = dataio.split(dataset, config.split_fractions, config.seed)
    if not len(train_ds):
        raise ConfigError("training split is empty; dataset too small for the fractions")
    schema = fit_schema(train_ds.records, dataset.profile)
    x_train, y_train = encode_batch(train_ds.records, schema)
    x_val, y_val = encode_batch(val_ds.records, schema)

    opt = AdamW(
        params.named_parameters(),
        lr=config.lr,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
        weight_decay=config.weight_decay,
    )
    rng = np.random.default_rng(config.seed + 1)
    log = []
    n = len(y_train)
    train_logits = np.empty((n, 2))
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for step, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            T.clear_tape()
            logits = params.logits(x_train[idx])
            train_logits[idx] = logits.data
            loss = cross_entropy(logits, y_train[idx])
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {step}")
            T.backward(loss)
            opt.step()
            opt.zero_grad()  # so no step's gradients outlive it, nor sit in the returned params
            total += value * len(idx)
        T.clear_tape()
        # running figures over the epoch's steps (see EpochStats), so the
        # training split gets no second forward pass
        train_loss = total / n
        train_acc = _accuracy(train_logits, y_train)
        val_loss, val_acc = evaluate(params, x_val, y_val)
        log.append(EpochStats(epoch, train_loss, train_acc, val_loss, val_acc))
    return TrainResult(
        params=params,
        schema=schema,
        config=config,
        log=log,
        train=train_ds,
        validation=val_ds,
        test=test_ds,
    )
