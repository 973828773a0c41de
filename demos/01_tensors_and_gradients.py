"""A tour of the autodiff core: build expressions, differentiate, verify.

Run:  python3 demos/01_tensors_and_gradients.py
"""

import numpy as np

from maskdetect import SplitMix64, Tensor, conv2d, gradient_check, linear, relu

rng = SplitMix64(7)

# -- forward and backward on a tiny expression -------------------------------
#
# Every op records how to push gradients back to its inputs; calling
# .backward() on a scalar fills .grad on every leaf that needs one and
# releases the graph's inner nodes as it goes.

x = Tensor(rng.normal(shape=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(shape=(3, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)

y = relu(linear(x, w, b))
loss = (y * y).sum()
loss.backward()

print("loss          ", float(loss.data.item()))
print("x.grad shape  ", x.grad.shape)
print("w.grad norm   ", float(np.linalg.norm(w.grad)))

# -- the same gradients, checked numerically ---------------------------------
#
# A second backward through tensors that still hold gradients is refused
# (otherwise the two runs would silently accumulate), so the leaves are
# reset first.  gradient_check then perturbs each coordinate and compares
# the analytic gradient against a central finite difference; the return
# value is the worst relative error over all coordinates.

for leaf in (x, w, b):
    leaf.zero_grad()


def squared_response(t):
    out = relu(linear(t, w, b))
    return (out * out).sum()


err = gradient_check(squared_response, x)
print(f"finite-difference check on x: max rel err {err:.2e}")
assert err < 1e-6

# -- convolution gradients work the same way ---------------------------------

img = Tensor(rng.normal(shape=(1, 2, 8, 8)))
kern = Tensor(rng.normal(shape=(3, 2, 3, 3)))
kb = Tensor(np.zeros(3))


def conv_energy(t):
    out = conv2d(t, kern, kb, stride=1, padding=1)
    return (out * out).sum()


err = gradient_check(conv_energy, img)
print(f"finite-difference check on a conv input: max rel err {err:.2e}")
assert err < 1e-6

print("ok: analytic gradients agree with numeric ones")
