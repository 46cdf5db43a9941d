"""Minimal dense network with hand-written reverse-mode gradients.

Deliberately framework-free: a stack of affine layers with tanh hidden
activations and a linear output, run on one input row per network, since
every learner call feeds each agent's network its one observation.  The
networks of a ``[U, P]`` parameter block run as one, in one batched
``matmul`` per layer.  ``backward`` returns exact analytic gradients for an
arbitrary upstream gradient on each row's output; the test suite pins them
against central finite differences, and a block against its rows run one
network at a time, bit for bit.

Parameters and gradients are flat vectors, weights then bias per layer,
so the optimizers update a whole block with a few in-place array
operations per network on caller-owned buffers and allocate nothing
network-sized.
"""

from __future__ import annotations

import math

import numpy as np


class Mlp:
    """Fully connected tanh network over flat parameter vectors.

    ``sizes`` lists layer widths input-first, e.g. ``(14, 256, 256, 3)``.
    ``params`` holds every parameter; ``weights`` and ``biases`` are views
    of it.  The network views a given ``params``, a contiguous float64
    array whose last axis is one network's parameters (a vector, such as a
    row of a run's parameter block, or a whole ``[U, P]`` block, which
    makes it U networks), or zeros of its own, one vector.  Only with
    ``rng`` does it draw, and only into a vector: the biases are zeroed
    and each weight matrix is drawn into place, one uniform per weight,
    from ``U(-sqrt(3) * s, sqrt(3) * s)`` with
    ``s = out_scale / sqrt(fan_in)`` for the output layer and
    ``1 / sqrt(fan_in)`` for the others.  That is LeCun's variance ``s**2``
    ("Efficient BackProp", 1998) at under a quarter of a normal draw's
    cost; a small ``out_scale`` keeps freshly initialized policy heads
    near-uniform.
    """

    def __init__(self, sizes, rng: np.random.Generator | None = None, out_scale: float = 1.0,
                 params: np.ndarray | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        self.sizes = tuple(int(s) for s in sizes)
        count = self.param_count(self.sizes)
        if params is None:
            params = np.zeros(count)
        elif not (params.shape[-1:] == (count,) and params.dtype == np.float64
                  and params.flags.c_contiguous):
            raise ValueError(f"expected contiguous float64 vectors of {count} parameters")
        self.params = params
        layers = self.layers(params)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]
        if rng is None:
            return
        for b in self.biases:
            b.fill(0.0)
        for i, w in enumerate(self.weights):
            scale = 1.0 / np.sqrt(w.shape[-2])
            if i == len(self.weights) - 1:
                scale *= out_scale
            # U(-bound, bound) has variance bound**2 / 3 = scale**2
            bound = np.sqrt(3.0) * scale
            rng.random(out=w)
            w -= 0.5
            w *= 2.0 * bound

    @staticmethod
    def param_count(sizes) -> int:
        """Length of one network's flat parameter vector, for layers of ``sizes``."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))

    @property
    def num_params(self) -> int:
        """Parameters per network: the length of ``params``'s last axis."""
        return self.params.shape[-1]

    def layers(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(W, b)`` views, ``[..., in, out]`` and ``[..., out]``, of an
        array whose last axis is in the parameter layout."""
        if vec.shape[-1:] != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {vec.shape}")
        lead = vec.shape[:-1]
        views = []
        offset = 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            w = vec[..., offset : offset + fan_in * fan_out].reshape(lead + (fan_in, fan_out))
            offset += fan_in * fan_out
            views.append((w, vec[..., offset : offset + fan_out]))
            offset += fan_out
        return views

    def _row_shape(self, width: int) -> tuple[int, ...]:
        """One row of ``width`` per network."""
        return self.params.shape[:-1] + (width,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Deterministic forward pass of one ``[sizes[0]]`` row per network."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass of one row per network: the outputs and, as the cache,
        the activations.  A block's networks run as one batched ``matmul`` per
        layer, each row by the same product as a network of its own."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self._row_shape(self.sizes[0]):
            raise ValueError(
                f"input shape {x.shape} is not one row of width {self.sizes[0]} per network"
            )
        activations = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(activations[-1][..., None, :], w)[..., 0, :] + b
            activations.append(np.tanh(h) if i != last else h)
        return activations[-1], activations

    def backward(self, cache, upstream: np.ndarray, out: np.ndarray | None = None):
        """Gradient of ``upstream @ output`` w.r.t. ``params`` at the cached rows.

        ``upstream`` is one ``[sizes[-1]]`` row per network.  Per layer the
        weight gradient is ``outer(input, g)`` and the bias gradient ``g``,
        written into ``out`` (fresh when omitted), shaped like ``params``,
        which is returned.
        """
        activations = cache
        g = np.asarray(upstream, dtype=np.float64)
        if g.shape != self._row_shape(self.sizes[-1]):
            raise ValueError(
                f"upstream shape {g.shape} is not one row of width {self.sizes[-1]} per network"
            )
        grad = np.empty(self.params.shape) if out is None else out
        layers = self.layers(grad)
        last = len(layers) - 1
        for i in range(last, -1, -1):
            if i != last:
                g = g * (1.0 - activations[i + 1] ** 2)  # through tanh
            dw, db = layers[i]
            np.einsum("...i,...o->...io", activations[i], g, out=dw)
            db[...] = g
            if i > 0:
                g = np.matmul(g[..., None, :], np.swapaxes(self.weights[i], -1, -2))[..., 0, :]
        return grad


class _Optimizer:
    """Shared set-up: the networks, their learning rate and their buffers.

    ``buffers`` is a ``(rows + 2, size)`` float array, ``rows`` being the
    number of networks in ``net`` (1 for a vector) and ``size`` the
    parameters of one: the first ``rows`` rows, shaped like ``net.params``,
    receive gradients (``grad``), and the last two are one row of step
    scratch each, shared by every network, since a step walks the networks
    one row at a time.  A fresh array when omitted.
    """

    def __init__(self, net: Mlp, lr: float, buffers: np.ndarray | None = None):
        self.net = net
        self.lr = lr
        shape = (net.params.size // net.num_params + 2, net.num_params)
        if buffers is None:
            buffers = np.empty(shape)
        if buffers.shape != shape:
            raise ValueError(f"expected {shape} buffers, got {buffers.shape}")
        self.grad = buffers[:-2].reshape(net.params.shape)
        self._scratch, self._scratch2 = buffers[-2:]
        self._rows = self._row_views(net.params)

    def _row_views(self, *arrays: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Per network, its row of each of ``arrays``, all shaped like ``net.params``;
        built once, so that a step makes no view but the gradient's rows."""
        shape = (-1, self.net.num_params)
        return list(zip(*(array.reshape(shape) for array in arrays)))

    def descend(self, cache, upstream: np.ndarray) -> None:
        """One step along ``net.backward(cache, upstream)``, computed into ``grad``."""
        self.step(self.net.backward(cache, upstream, out=self.grad))


# Adam's moment decay rates and denominator guard, Kingma & Ba's defaults
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam(_Optimizer):
    """Adam (Kingma & Ba) over the flat parameter vectors of an ``Mlp``.

    A step takes the efficient form of the paper's section 2:
    ``params -= alpha * (m / (sqrt(v) + eps_hat))`` with
    ``alpha = lr * sqrt(c2) / c1`` and ``eps_hat = eps * sqrt(c2)``, where
    ``c1``, ``c2`` are the bias corrections ``1 - beta**t``.  In exact
    arithmetic that is Algorithm 1's ``lr * (m / c1) / (sqrt(v / c2) + eps)``;
    in floating point it agrees to rounding and takes two fewer array passes.
    A block's networks step together, one row at a time: each row's passes
    stay within the one scratch row, which took 1.08 ms against 1.52 ms for
    the same passes over the whole block at 3 x 71,174 parameters, and
    3.67 ms against 5.25 ms at 10 rows, on a 2-core Xeon.

    ``moments`` is a zeroed ``(2, *net.params.shape)`` float array whose
    halves become the first and second moment estimates ``m`` and ``v``; a
    run passes views of its optimizer-state block.  A fresh one when omitted.
    """

    def __init__(self, net: Mlp, lr: float, buffers: np.ndarray | None = None,
                 moments: np.ndarray | None = None):
        super().__init__(net, lr, buffers)
        self.t = 0
        shape = (2,) + net.params.shape
        if moments is None:
            # np.zeros, as for a run's optimizer-state block: a freed block of
            # that size comes back from the malloc heap, already mapped, and
            # calloc clears it faster than np.full writes zeros.  Allocating
            # the 15 MB state of a 3x3 run (256 hidden units) and scaling its
            # moments once took 1.8 ms this way and 2.0 ms with np.full on a
            # 2-core Xeon; neither faults a page in after the first run.
            moments = np.zeros(shape)
        if moments.shape != shape:
            raise ValueError(f"expected {shape} moments, got {moments.shape}")
        self.m, self.v = moments
        self._rows = self._row_views(net.params, self.m, self.v)

    def step(self, grad: np.ndarray) -> None:
        """Apply one descent step along ``grad`` (layout from ``Mlp.backward``)."""
        self.t += 1
        correct1 = 1.0 - _BETA1**self.t
        correct2 = 1.0 - _BETA2**self.t
        # params -= alpha * (m / (sqrt(v) + eps_hat)), bias corrections in scalars
        root2 = math.sqrt(correct2)
        alpha = self.lr * root2 / correct1
        eps_hat = _EPS * root2
        a, b = self._scratch, self._scratch2
        for (params, m, v), g in zip(self._rows, grad.reshape(-1, self.net.num_params)):
            m *= _BETA1
            np.multiply(g, 1.0 - _BETA1, out=a)
            m += a
            v *= _BETA2
            np.square(g, out=a)
            a *= 1.0 - _BETA2
            v += a
            np.sqrt(v, out=b)
            b += eps_hat
            np.divide(m, b, out=a)
            a *= alpha
            params -= a


class Sgd(_Optimizer):
    """Plain gradient descent, the no-frills alternative to Adam."""

    def step(self, grad: np.ndarray) -> None:
        for (params,), g in zip(self._rows, grad.reshape(-1, self.net.num_params)):
            np.multiply(g, self.lr, out=self._scratch)
            params -= self._scratch
