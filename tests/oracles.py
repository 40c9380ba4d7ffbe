"""Independent straight-line transcriptions used as test oracles.

Everything here is written directly from the layer definitions with plain
numpy, no package internals, so agreement with the library is meaningful.
Softmax is deliberately the raw exp/sum form (test inputs are small enough
not to overflow).

The ``ref_*`` functions are different: they are reference implementations
that fix the library's bytes. Each is the expression the library used
before its kernels wrote into their own temporaries, one new array per
step, and the property tests require the library to produce the same
bytes while writing into nothing it did not allocate.
"""

import csv
import math
import statistics

import numpy as np

from flowids.dataio import NOISY_SLOAD_BASE, NOISY_SLOAD_SD


def dictreader_load(path, features, label, parse_cell):
    """A flow CSV read row by row with csv.DictReader, as load_csv documents its reading.

    ``features`` are (name, kind) pairs in profile order and ``label`` the label
    column. ``parse_cell(cell, kind)`` gives ``(value, reason)``: a cell's value,
    and why it is bad or None. A label is a number that must be 0 or 1: one that is missing, does
    not parse or is not finite reads ``label: missing cell``, ``label: cannot parse numeric cell
    'x'`` or ``label: non-finite value 'nan'``. Blank rows are skipped and not numbered, so the
    first record is row 2; a missing cell is None, and the last of a repeated
    header name wins, as DictReader reads them. A row is rejected with the first
    reason: its label's, then its columns' in profile order.

    Returns (rows, cells, labels, values, rejects): the source row, the cells by
    column, the int label and the values by non-nominal column of each kept row,
    and every rejected row's (row, reason)."""
    rows, labels, rejects = [], [], []
    cells = {name: [] for name, _ in features}
    values = {name: [] for name, kind in features if kind != "nominal"}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for row, record in enumerate(csv.DictReader(handle), start=2):
            try:
                number = float(record[label])
                if not math.isfinite(number):
                    reason = f"label: non-finite value {record[label]!r}"
                elif number not in (0.0, 1.0):
                    reason = f"label {record[label]!r} is not 0 or 1"
                else:
                    reason = None
            except TypeError:  # the row ended before its label
                reason = "label: missing cell"
            except ValueError:
                reason = f"label: cannot parse numeric cell {record[label]!r}"
            parsed = {}
            for name, kind in features:
                parsed[name], bad = parse_cell(record[name], kind)
                if reason is None and bad is not None:
                    reason = f"column {name!r}: {bad}"
            if reason is not None:
                rejects.append((row, reason))
                continue
            rows.append(row)
            labels.append(int(number))
            for name, kind in features:
                cells[name].append(record[name])
                if kind != "nominal":
                    values[name].append(parsed[name])
    return rows, cells, labels, values, rejects


def np_softmax(s, axis=-1):
    e = np.exp(s)
    return e / e.sum(axis=axis, keepdims=True)


def np_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def np_attention(z, w_q, w_k, w_v, w_out, mask=True):
    """Multi-head attention: per-head softmax(q k^T / sqrt(d)) v, concat, mix."""
    t = z.shape[-2]
    keep = np.tril(np.ones((t, t), dtype=bool))
    heads = []
    for qw, kw, vw in zip(w_q, w_k, w_v):
        q = z @ qw
        k = z @ kw
        v = z @ vw
        s = (q @ np.swapaxes(k, -1, -2)) / np.sqrt(qw.shape[-1])
        if mask:
            s = np.where(keep, s, -np.inf)
        heads.append(np_softmax(s) @ v)
    return np.concatenate(heads, axis=-1) @ w_out


def np_encoder_block(z, tensors, prefix, mask=True):
    """Pre-norm block over the tensors named prefix + their layout name ("attn.w_out",
    "mlp_w1", ...): LN, masked attention, residual; LN, MLP, residual; LN."""
    w = {name[len(prefix):]: t.data for name, t in tensors.items() if name.startswith(prefix)}
    heads = sum(name.endswith(".w_q") for name in w)
    a = np_attention(
        np_layer_norm(z, w["ln1_gamma"], w["ln1_beta"]),
        *([w[f"attn.head{k}.{m}"] for k in range(heads)] for m in ("w_q", "w_k", "w_v")),
        w["attn.w_out"],
        mask,
    )
    z = a + z
    h = np.maximum(np_layer_norm(z, w["ln2_gamma"], w["ln2_beta"]) @ w["mlp_w1"] + w["mlp_b1"], 0.0)
    z = h @ w["mlp_w2"] + w["mlp_b2"] + z
    return np_layer_norm(z, w["ln3_gamma"], w["ln3_beta"])


def np_model_logits(x, params, mask=True):
    """Whole pipeline over params.tensors by name: sentencing, block stack, flatten, linear head."""
    tensors = params.tensors
    w = {name: t.data for name, t in tensors.items()}
    z = x[..., None] * w["sentencing.embed"] + w["sentencing.bias"] + w["sentencing.position"]
    for i in range(sum(name.endswith(".attn.w_out") for name in w)):
        z = np_encoder_block(z, tensors, f"block{i}.", mask)
    flat = z.reshape(x.shape[0], -1)
    return flat @ w["head.w"] + w["head.b"]


def ref_softmax(x):
    """Softmax along the last axis with its sums as products with a ones
    column, as ``tensor.softmax`` computes it. Returns (y, back), back(g) -> dx."""
    ones = np.ones((x.shape[-1], 1))
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    y = e / (e @ ones)

    def back(g):
        return y * (g - (g * y) @ ones)

    return y, back


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    """Layer norm with its last-axis sums as products with I - 1/d and a
    column of 1/d, as ``tensor.layer_norm`` computes it. Returns (out, back),
    back(g) -> (dx, dgamma, dbeta)."""
    dim = x.shape[-1]
    centre, mean = np.eye(dim) - 1.0 / dim, np.full((dim, 1), 1.0 / dim)
    centred = x @ centre
    var = (centred * centred) @ mean
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv

    def back(g):
        g2 = g.reshape(-1, dim)
        ones = np.ones(len(g2))
        dgamma = ones @ (g * xhat).reshape(-1, dim)
        dbeta = ones @ g2
        dxhat = g * gamma
        dx = inv * (dxhat @ centre - xhat * ((dxhat * xhat) @ mean))
        return dx, dgamma, dbeta

    return gamma * xhat + beta, back


def ref_replay(tape, loss):
    """The gradient of every leaf key on ``tape``, replayed as ``tensor.backward``
    does, with a new array for every sum. Returns {key: gradient}; sets no ``.grad``."""
    on_tape = bool(tape) and loss.node >= tape[0][0]
    grads = {loss.node if on_tape else loss: np.ones_like(loss.data)}
    for node, keys, back in reversed(tape):
        g = grads.pop(node, None)
        if g is not None:
            for key, ig in zip(keys, back(g)):
                if ig is not None and key is not None:
                    grads[key] = grads[key] + ig if key in grads else ig
    return {key: g.copy() for key, g in grads.items()}


def np_fnn_logits(x, params):
    w = {name: t.data for name, t in params.tensors.items()}
    h = np.maximum(x @ w["w1"] + w["b1"], 0.0)
    h = np.maximum(h @ w["w2"] + w["b2"], 0.0)
    return h @ w["w3"] + w["b3"]


def np_init_arrays(h, seed):
    """Initial parameters by name, redrawn from the documented order.

    h is a hyper dict: a transformer's (dim, heads, blocks, mlp_dim and
    tokens, the token count) or an FNN's (features, the input feature count,
    and its two hidden widths). One generator seeded with seed draws each
    weight uniform in +-sqrt(6 / (fan_in + fan_out)) for its (fan_in,
    fan_out) shape: for the encoder the sentencing embedding, then per block
    every head's w_q, every head's w_k, every head's w_v, w_out, mlp_w1 and
    mlp_w2, then the head; for the FNN w1, w2, w3. Layer norm gains are one;
    biases and the positional table are zero.
    """
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    if h["kind"] == "fnn":
        f, (h1, h2) = h["features"], h["hidden"]
        return {
            "w1": glorot(f, h1), "b1": np.zeros(h1),
            "w2": glorot(h1, h2), "b2": np.zeros(h2),
            "w3": glorot(h2, 2), "b3": np.zeros(2),
        }
    tokens, d, m, heads = h["tokens"], h["dim"], h["mlp_dim"], h["heads"]
    out = {"sentencing.embed": glorot(tokens, d)}
    out["sentencing.bias"] = np.zeros((tokens, d))
    out["sentencing.position"] = np.zeros((tokens, d))
    for i in range(h["blocks"]):
        b = f"block{i}."
        for w in ("w_q", "w_k", "w_v"):
            for k in range(heads):
                out[f"{b}attn.head{k}.{w}"] = glorot(d, d // heads)
        out[b + "attn.w_out"] = glorot(d, d)
        out[b + "mlp_w1"], out[b + "mlp_b1"] = glorot(d, m), np.zeros(m)
        out[b + "mlp_w2"], out[b + "mlp_b2"] = glorot(m, d), np.zeros(d)
        for n in (1, 2, 3):
            out[f"{b}ln{n}_gamma"], out[f"{b}ln{n}_beta"] = np.ones(d), np.zeros(d)
    out["head.w"], out["head.b"] = glorot(tokens * d, 2), np.zeros(2)
    return out


def np_adamw(w, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
    """AdamW with bias correction and decoupled weight decay, one expression per quantity."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    w = w - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * w)
    return w, m, v


# --- synthetic-data transcriptions -----------------------------------------
# Written from the distributions that dataio.SYNTH_DISTS names and from the
# noisy generator's documented Sload classes, not from the generator's code.


def dist_mean_var(dist):
    """Mean and variance of one SYNTH_DISTS entry: ("uniform", lo, hi),
    ("normal", mu, sd), or ("randint", lo, hi) with hi excluded."""
    kind = dist[0]
    if kind == "uniform":
        _, lo, hi = dist
        return (lo + hi) / 2.0, (hi - lo) ** 2 / 12.0
    if kind == "normal":
        _, mu, sd = dist
        return mu, sd**2
    if kind == "randint":
        _, lo, hi = dist
        return (lo + hi - 1) / 2.0, ((hi - lo) ** 2 - 1) / 12.0
    raise ValueError(f"no mean/var for dist {dist!r}")


def noisy_sload_threshold(bayes_error):
    """The Bayes-optimal Sload cut of the noisy generator: its classes are
    normal with sd NOISY_SLOAD_SD, at NOISY_SLOAD_BASE and at NOISY_SLOAD_BASE
    + 2 sd z with z = Phi^-1(1 - bayes_error), and with equal priors and
    variances the optimal cut is their midpoint, NOISY_SLOAD_BASE + sd z."""
    return NOISY_SLOAD_BASE + NOISY_SLOAD_SD * statistics.NormalDist().inv_cdf(1.0 - bayes_error)


# --- metric transcriptions -------------------------------------------------
# Written straight from the defining formulas, zero-denominator cases -> 0.


def np_scalar_metrics(tp, tn, fp, fn):
    def ratio(num, den):
        return num / den if den != 0 else 0.0

    acc = ratio(tp + tn, tp + tn + fp + fn)
    prec = ratio(tp, tp + fp)
    rec = ratio(tp, tp + fn)
    f1 = ratio(2 * prec * rec, prec + rec)
    fnr = ratio(fn, fn + tp)
    mcc_den = np.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = ratio(tp * tn - fp * fn, mcc_den)
    return {
        "accuracy": acc,
        "precision": prec,
        "recall": rec,
        "f1": f1,
        "fnr": fnr,
        "mcc": mcc,
    }


def np_auc_pairwise(scores, truths):
    """AUC as the Mann-Whitney statistic: P(pos > neg) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    pos = scores[truths == 1]
    neg = scores[truths == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes")
    diff = pos[:, None] - neg[None, :]
    return (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / (len(pos) * len(neg))
