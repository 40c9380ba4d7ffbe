"""Independent straight-line transcriptions used as test oracles.

Everything here is written directly from the layer definitions with plain
numpy, no package internals, so agreement with the library is meaningful.
Softmax is deliberately the raw exp/sum form (test inputs are small enough
not to overflow).
"""

import numpy as np


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


def np_encoder_block(z, block, mask=True):
    """Pre-norm block: LN, masked attention, residual; LN, MLP, residual; LN."""
    a = np_attention(
        np_layer_norm(z, block.ln1_gamma.data, block.ln1_beta.data),
        [t.data for t in block.attn.w_q],
        [t.data for t in block.attn.w_k],
        [t.data for t in block.attn.w_v],
        block.attn.w_out.data,
        mask,
    )
    z = a + z
    h = np.maximum(
        np_layer_norm(z, block.ln2_gamma.data, block.ln2_beta.data) @ block.mlp_w1.data
        + block.mlp_b1.data,
        0.0,
    )
    z = h @ block.mlp_w2.data + block.mlp_b2.data + z
    return np_layer_norm(z, block.ln3_gamma.data, block.ln3_beta.data)


def np_model_logits(x, params, mask=True):
    """Whole pipeline: sentencing, block stack, flatten, linear head."""
    sent = params.sentencing
    z = x[..., None] * sent.embed.data + sent.bias.data + sent.position.data
    for block in params.blocks:
        z = np_encoder_block(z, block, mask)
    flat = z.reshape(x.shape[0], -1)
    return flat @ params.head_w.data + params.head_b.data


def np_fnn_logits(x, params):
    h = np.maximum(x @ params.w1.data + params.b1.data, 0.0)
    h = np.maximum(h @ params.w2.data + params.b2.data, 0.0)
    return h @ params.w3.data + params.b3.data


def np_adamw(w, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
    """AdamW with bias correction and decoupled weight decay, one expression per quantity."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    w = w - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * w)
    return w, m, v


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
