"""Walk through the reverse-mode autodiff engine that powers training.

Every differentiable op records itself on a global tape. backward() replays
the tape in reverse and accumulates gradients into each leaf's .grad. We
add a primitive of our own through T.record, the entry point the package's
fused loss uses, then check the machinery against a derivative computed by
hand and against a central finite difference.
"""

import numpy as np

from flowids import tensor as T

print("=== a primitive of our own: the mean of every element ===")


def mean(a):
    """Forward: one scalar. Backward: each element gets g / n."""
    n, shape = a.data.size, a.data.shape
    return T.record(T.Tensor(a.data.mean()), (a,), lambda g: (np.full(shape, float(g) / n),))


print("mean([1, 2, 3, 6]) =", float(mean(T.Tensor([1.0, 2.0, 3.0, 6.0]))))

print()
print("=== a scalar chain rule, by hand and by tape ===")

# f(x) = mean(relu(x * 3)), so df/dx_i = 3/n where x_i > 0, else 0
x = T.Tensor(np.array([-2.0, -0.5, 1.0, 4.0]), requires_grad=True)
y = T.scale(x, 3.0)
z = T.relu(y)
loss = mean(z)
print("loss =", float(loss))

T.backward(loss)
print("tape gradient :", x.grad)
print("hand gradient :", np.where(x.data > 0, 3.0 / 4.0, 0.0))

T.clear_tape()

print()
print("=== gradients accumulate until you zero them ===")

x.grad = None
loss = mean(T.relu(T.scale(x, 3.0)))
T.backward(loss)
first = x.grad.copy()
T.backward(loss)  # same tape again: grads double, they do not reset
print("after one backward :", first)
print("after two backwards:", x.grad)
T.clear_tape()

print()
print("=== checking a matmul against finite differences ===")

rng = np.random.default_rng(0)
w = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
v = T.Tensor(rng.normal(size=(4, 3)), requires_grad=False)


def loss_value():
    return float(mean(T.relu(T.matmul(v, w))))


w.grad = None
T.clear_tape()
out = mean(T.relu(T.matmul(v, w)))
T.backward(out)
analytic = w.grad.copy()
T.clear_tape()

# central difference, one coordinate at a time
h = 1e-6
numeric = np.zeros_like(w.data)
with T.no_grad():
    for i in range(w.data.shape[0]):
        for j in range(w.data.shape[1]):
            keep = w.data[i, j]
            w.data[i, j] = keep + h
            up = loss_value()
            w.data[i, j] = keep - h
            down = loss_value()
            w.data[i, j] = keep
            numeric[i, j] = (up - down) / (2 * h)

print("max |analytic - numeric| =", np.max(np.abs(analytic - numeric)))

print()
print("=== no_grad() keeps evaluation off the tape ===")

T.clear_tape()
with T.no_grad():
    silent = mean(T.relu(T.matmul(v, w)))
print("ops recorded while in no_grad:", len(T.active_tape()))
print("value still computed fine    :", float(silent))
