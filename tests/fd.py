"""Central finite-difference oracle used by the gradient tests, and the
scalar losses they differentiate.

``central_diff`` is deliberately independent of the tape: it only pokes at
raw ``Tensor.data`` buffers and re-evaluates a loss closure, so it can
contradict the analytic backward rules it is checking.
"""

import numpy as np

from flowids import tensor as T
from flowids.tensor import Tensor


def taped_sum(a):
    """The sum of every element of ``a`` as a scalar tensor: a test-local
    primitive, put on the tape through ``T.record`` as the package's own
    custom primitives are."""
    shape = a.data.shape
    return T.record(Tensor(a.data.sum()), (a,), lambda g: (np.full(shape, float(g)),))


def taped_mean(a):
    """The mean of every element of ``a``, as ``taped_sum`` scaled by 1/size."""
    return T.scale(taped_sum(a), 1.0 / a.data.size)


def central_diff(loss_fn, params, h=1e-5):
    """Numerical gradient of ``loss_fn()`` w.r.t. each tensor in ``params``.

    ``loss_fn`` must recompute the scalar loss from the tensors' current
    ``data`` buffers each call. Evaluations run with grad recording off.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with T.no_grad():
                up = float(loss_fn())
            flat[i] = orig - h
            with T.no_grad():
                down = float(loss_fn())
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-8):
    """Worst-case |a - n| / max(|a|, |n|, floor) over all entries.

    The floor keeps finite-difference roundoff noise on near-zero
    gradients from registering as a huge relative error.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
