"""Minimal dense network with hand-written reverse-mode gradients.

Deliberately framework-free: a stack of affine layers with tanh hidden
activations and a linear output, run on one input row at a time, since
every learner call feeds a network its agent's one observation.
``backward`` returns exact analytic gradients for an arbitrary upstream
gradient on that row's output; the test suite pins them against central
finite differences.

Parameters and gradients are flat vectors, weights then bias per layer,
so the optimizers update a whole network with a few in-place array
operations on caller-owned buffers and allocate nothing network-sized.
"""

from __future__ import annotations

import math

import numpy as np


class Mlp:
    """Fully connected tanh network over one flat parameter vector.

    ``sizes`` lists layer widths input-first, e.g. ``(14, 256, 256, 3)``.
    ``params`` holds every parameter; ``weights`` and ``biases`` are views
    of it.  The network views a given ``params``, a contiguous float64
    vector such as a slice of a run's parameter block, or zeros of its own.
    Only with ``rng`` does it draw: the biases are zeroed and each weight
    matrix is drawn into place, one uniform per weight, from
    ``U(-sqrt(3) * s, sqrt(3) * s)`` with ``s = out_scale / sqrt(fan_in)``
    for the output layer and ``1 / sqrt(fan_in)`` for the others.  That is
    LeCun's variance ``s**2`` ("Efficient BackProp", 1998) at under a
    quarter of a normal draw's cost; a small ``out_scale`` keeps freshly
    initialized policy heads near-uniform.
    """

    def __init__(self, sizes, rng: np.random.Generator | None = None, out_scale: float = 1.0,
                 params: np.ndarray | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        self.sizes = tuple(int(s) for s in sizes)
        count = self.param_count(self.sizes)
        if params is None:
            params = np.zeros(count)
        elif not (params.shape == (count,) and params.dtype == np.float64
                  and params.flags.c_contiguous):
            raise ValueError(f"expected a contiguous float64 vector of {count} parameters")
        self.params = params
        layers = self.layers(params)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]
        if rng is None:
            return
        for b in self.biases:
            b.fill(0.0)
        for i, w in enumerate(self.weights):
            scale = 1.0 / np.sqrt(w.shape[0])
            if i == len(self.weights) - 1:
                scale *= out_scale
            # U(-bound, bound) has variance bound**2 / 3 = scale**2
            bound = np.sqrt(3.0) * scale
            rng.random(out=w)
            w -= 0.5
            w *= 2.0 * bound

    @staticmethod
    def param_count(sizes) -> int:
        """Length of the flat parameter vector of a network of ``sizes``."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))

    @property
    def num_params(self) -> int:
        return self.params.size

    def layers(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(W, b)`` views of a flat vector in the parameter layout."""
        if vec.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {vec.shape}")
        views = []
        offset = 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            w = vec[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += w.size
            views.append((w, vec[offset : offset + fan_out]))
            offset += fan_out
        return views

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Deterministic forward pass of one ``[sizes[0]]`` row."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass of one row: its output and, as the cache, its activations."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.sizes[0],):
            raise ValueError(f"input shape {x.shape} is not one row of width {self.sizes[0]}")
        activations = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = activations[-1] @ w + b
            activations.append(np.tanh(h) if i != last else h)
        return activations[-1], activations

    def backward(self, cache, upstream: np.ndarray, out: np.ndarray | None = None):
        """Gradient of ``upstream @ output`` w.r.t. ``params`` at the cached row.

        ``upstream`` is one ``[sizes[-1]]`` row.  Per layer the weight
        gradient is ``outer(input, g)`` and the bias gradient ``g``, written
        into ``out`` (a fresh vector when omitted) in the parameter layout,
        which is returned.
        """
        activations = cache
        g = np.asarray(upstream, dtype=np.float64)
        if g.shape != (self.sizes[-1],):
            raise ValueError(
                f"upstream shape {g.shape} is not one row of width {self.sizes[-1]}"
            )
        grad = np.empty(self.num_params) if out is None else out
        layers = self.layers(grad)
        last = len(layers) - 1
        for i in range(last, -1, -1):
            if i != last:
                g = g * (1.0 - activations[i + 1] ** 2)  # through tanh
            dw, db = layers[i]
            np.outer(activations[i], g, out=dw)
            db[:] = g
            if i > 0:
                g = g @ self.weights[i].T
        return grad


class _Optimizer:
    """Shared set-up: the network, its learning rate and its buffers.

    ``buffers`` is a ``(3, size)`` float array with ``size`` at least the
    network's parameter count: row 0 receives gradients (``grad``), rows 1
    and 2 are step scratch.  Optimizers of networks that are updated one at
    a time may share one array; each gets its own when it is omitted.
    """

    def __init__(self, net: Mlp, lr: float, buffers: np.ndarray | None = None):
        self.net = net
        self.lr = lr
        if buffers is None:
            buffers = np.empty((3, net.num_params))
        self.grad, self._scratch, self._scratch2 = buffers[:, : net.num_params]

    def descend(self, cache, upstream: np.ndarray) -> None:
        """One step along ``net.backward(cache, upstream)``, computed into ``grad``."""
        self.step(self.net.backward(cache, upstream, out=self.grad))


# Adam's moment decay rates and denominator guard, Kingma & Ba's defaults
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam(_Optimizer):
    """Adam (Kingma & Ba) over the flat parameter vector of one ``Mlp``.

    A step takes the efficient form of the paper's section 2:
    ``params -= alpha * (m / (sqrt(v) + eps_hat))`` with
    ``alpha = lr * sqrt(c2) / c1`` and ``eps_hat = eps * sqrt(c2)``, where
    ``c1``, ``c2`` are the bias corrections ``1 - beta**t``.  In exact
    arithmetic that is Algorithm 1's ``lr * (m / c1) / (sqrt(v / c2) + eps)``;
    in floating point it agrees to rounding and takes two fewer array passes.

    ``moments`` is a zeroed ``(2, size)`` float array whose rows become the
    first and second moment estimates ``m`` and ``v``; a run passes views of
    its optimizer-state block.  Each optimizer gets its own when omitted.
    """

    def __init__(self, net: Mlp, lr: float, buffers: np.ndarray | None = None,
                 moments: np.ndarray | None = None):
        super().__init__(net, lr, buffers)
        self.t = 0
        if moments is None:
            # np.zeros, as for a run's optimizer-state block: a freed block of
            # that size comes back from the malloc heap, already mapped, and
            # calloc clears it faster than np.full writes zeros.  Allocating
            # the 15 MB state of a 3x3 run (256 hidden units) and scaling its
            # moments once took 1.8 ms this way and 2.0 ms with np.full on a
            # 2-core Xeon; neither faults a page in after the first run.
            moments = np.zeros((2, net.num_params))
        if moments.shape != (2, net.num_params):
            raise ValueError(f"expected (2, {net.num_params}) moments, got {moments.shape}")
        self.m, self.v = moments

    def step(self, grad: np.ndarray) -> None:
        """Apply one descent step along ``grad`` (layout from ``Mlp.backward``)."""
        self.t += 1
        correct1 = 1.0 - _BETA1**self.t
        correct2 = 1.0 - _BETA2**self.t
        m, v, a, b = self.m, self.v, self._scratch, self._scratch2
        m *= _BETA1
        np.multiply(grad, 1.0 - _BETA1, out=a)
        m += a
        v *= _BETA2
        np.square(grad, out=a)
        a *= 1.0 - _BETA2
        v += a
        # params -= alpha * (m / (sqrt(v) + eps_hat)), bias corrections in scalars
        root2 = math.sqrt(correct2)
        np.sqrt(v, out=b)
        b += _EPS * root2
        np.divide(m, b, out=a)
        a *= self.lr * root2 / correct1
        self.net.params -= a


class Sgd(_Optimizer):
    """Plain gradient descent, the no-frills alternative to Adam."""

    def step(self, grad: np.ndarray) -> None:
        np.multiply(grad, self.lr, out=self._scratch)
        self.net.params -= self._scratch
