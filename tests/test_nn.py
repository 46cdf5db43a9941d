"""Network tests.  The finite-difference comparison is the load-bearing
check here; the acceptance suite runs it at full scale."""

import math
import tracemalloc

import numpy as np
import pytest

from meqc.nn import Adam, Mlp, Sgd


def reference_forward(net, xs):
    """A batch forward over the one-row network: the ``[n, sizes[-1]]``
    outputs of the rows of ``xs``, and each row's cache."""
    passes = [net.forward_cached(x) for x in xs]
    return np.array([y for y, _ in passes]), [cache for _, cache in passes]


def reference_backward(net, caches, upstreams):
    """A batch backward: the one-row gradients at each cached row, summed."""
    return sum(net.backward(cache, g) for cache, g in zip(caches, upstreams))


def finite_difference(net, xs, upstream, index, h=1e-6):
    """Central difference of sum(upstream * net(xs)) along one parameter."""
    flat = net.params.copy()
    bumped = flat.copy()
    bumped[index] += h
    net.params[:] = bumped
    plus = float(np.sum(upstream * reference_forward(net, xs)[0]))
    bumped[index] -= 2 * h
    net.params[:] = bumped
    minus = float(np.sum(upstream * reference_forward(net, xs)[0]))
    net.params[:] = flat
    return (plus - minus) / (2 * h)


def reference_adam(weights, biases, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """A per-layer Adam in the flat ``Adam``'s operation order, kept as its spec.

    Returns ``step(grads)``, which applies one update along per-layer
    ``[(dW, db), ...]`` gradients to ``weights``/``biases`` in place.  The
    bias corrections are folded into the scalars ``alpha`` and ``eps_hat``,
    Kingma & Ba's efficient form.
    """
    m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(weights, biases)]
    v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(weights, biases)]
    t = 0

    def step(grads):
        nonlocal t
        t += 1
        correct1 = 1.0 - beta1**t
        root2 = math.sqrt(1.0 - beta2**t)
        alpha = lr * root2 / correct1
        eps_hat = eps * root2
        for i, (dw, db) in enumerate(grads):
            mw, mb = m[i]
            vw, vb = v[i]
            mw *= beta1
            mw += (1.0 - beta1) * dw
            mb *= beta1
            mb += (1.0 - beta1) * db
            vw *= beta2
            vw += (1.0 - beta2) * dw**2
            vb *= beta2
            vb += (1.0 - beta2) * db**2
            weights[i] -= alpha * (mw / (np.sqrt(vw) + eps_hat))
            biases[i] -= alpha * (mb / (np.sqrt(vb) + eps_hat))

    return step


def reference_adam_textbook(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba's Algorithm 1 over a flat vector, bias-corrected moments and all.

    Returns ``step(grad)``, which updates ``params`` in place.  ``Adam``
    computes the same update in the efficient form, so the two agree to
    rounding only.
    """
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0

    def step(grad):
        nonlocal t
        t += 1
        m[:] = beta1 * m + (1.0 - beta1) * grad
        v[:] = beta2 * v + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        params[:] -= lr * m_hat / (np.sqrt(v_hat) + eps)

    return step


def reference_sgd(weights, biases, lr):
    """The per-layer gradient descent that the flat ``Sgd`` replaced."""

    def step(grads):
        for i, (dw, db) in enumerate(grads):
            weights[i] -= lr * dw
            biases[i] -= lr * db

    return step


class TestForward:
    def test_zero_weights_give_biases(self):
        net = Mlp((3, 2), np.random.default_rng(0))
        net.weights[0][:] = 0.0
        net.biases[0][:] = (0.5, -1.5)
        assert np.allclose(net.forward(np.ones(3)), [0.5, -1.5])

    def test_hand_computed_tiny_net(self):
        net = Mlp((2, 2, 1), np.random.default_rng(0))
        net.weights[0][:] = [[1.0, 2.0], [3.0, 4.0]]
        net.biases[0][:] = [0.5, -0.5]
        net.weights[1][:] = [[1.0], [-1.0]]
        net.biases[1][:] = [0.25]
        out = net.forward(np.array([0.1, 0.2]))
        expected = math.tanh(1.2) - math.tanh(0.5) + 0.25
        assert out[0] == pytest.approx(expected, rel=1e-14)
        assert out[0] == pytest.approx(0.6215374497521455, rel=1e-12)

    def test_bitwise_determinism(self):
        net = Mlp((4, 8, 2), np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=4)
        a = net.forward(x)
        b = net.forward(x)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        # a network runs on one row: a batch, even of one row, is refused
        net = Mlp((3, 2), np.random.default_rng(0))
        for x in (np.ones(4), np.ones(2), np.ones((1, 3)), np.ones((4, 3)), np.float64(1.0)):
            for run in (net.forward, net.forward_cached):
                with pytest.raises(ValueError, match="not one row of width 3"):
                    run(x)


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for sizes in ((2, 3, 1), (4, 8, 8, 3), (5, 2)):
            net = Mlp(sizes, rng)
            x = rng.normal(size=(4, sizes[0]))
            upstream = rng.normal(size=(4, sizes[-1]))
            _, caches = reference_forward(net, x)
            analytic = reference_backward(net, caches, upstream)
            idx = rng.choice(net.num_params, size=min(40, net.num_params), replace=False)
            for i in idx:
                numeric = finite_difference(net, x, upstream, int(i))
                denom = max(1e-8, abs(numeric) + abs(analytic[i]))
                assert abs(numeric - analytic[i]) / denom < 1e-4

    def test_zero_upstream_zero_grads(self):
        net = Mlp((3, 4, 2), np.random.default_rng(0))
        _, caches = reference_forward(net, np.ones((2, 3)))
        assert not reference_backward(net, caches, np.zeros((2, 2))).any()

    def test_linear_net_closed_form(self):
        # a single affine layer: grads equal the least-squares expressions
        net = Mlp((3, 2), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=(7, 2))
        pred, caches = reference_forward(net, x)
        residual = pred - y  # gradient of 0.5*||pred - y||^2
        (dw, db), = net.layers(reference_backward(net, caches, residual))
        assert np.allclose(dw, x.T @ residual, rtol=1e-12)
        assert np.allclose(db, residual.sum(axis=0), rtol=1e-12)

    def test_wrong_upstream_rejected(self):
        net = Mlp((3, 2), np.random.default_rng(0))
        _, cache = net.forward_cached(np.ones(3))
        for upstream in (np.ones(1), np.ones(3), np.ones((1, 2)), np.ones((4, 2))):
            with pytest.raises(ValueError, match="upstream .* not one row of width 2"):
                net.backward(cache, upstream)

    def test_out_receives_the_gradient(self):
        net = Mlp((4, 8, 3), np.random.default_rng(7))
        _, cache = net.forward_cached(np.linspace(-1.0, 1.0, 4))
        upstream = np.array([0.5, -1.0, 2.0])
        out = np.full(net.num_params, np.nan)
        assert net.backward(cache, upstream, out=out) is out
        assert np.array_equal(out, net.backward(cache, upstream))


class TestParams:
    def test_wrong_length_rejected(self):
        net = Mlp((2, 2), np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"{net.num_params} parameters"):
            Mlp((2, 2), params=np.zeros(net.num_params + 1))

    @pytest.mark.parametrize(
        "sizes,out_scale", [((14, 256, 256, 3), 0.01), ((3, 2), 1.0), ((5, 7, 1), 2.5)]
    )
    def test_in_place_init_matches_uniform_draw(self, sizes, out_scale):
        net_rng = np.random.default_rng(31)
        net = Mlp(sizes, net_rng, out_scale=out_scale)
        rng = np.random.default_rng(31)
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            scale = 1.0 / np.sqrt(fan_in)
            if i == len(sizes) - 2:
                scale *= out_scale
            bound = np.sqrt(3.0) * scale
            expected = (rng.random((fan_in, fan_out)) - 0.5) * (2.0 * bound)
            assert np.array_equal(net.weights[i], expected)
            assert not net.biases[i].any()
        # one uniform per weight, and nothing else drawn
        assert net_rng.bit_generator.state == rng.bit_generator.state

    def test_init_variance_is_lecun(self):
        # each layer's weights have variance s**2, s = out_scale / sqrt(fan_in)
        sizes, out_scale = (14, 256, 256, 3), 0.5
        net = Mlp(sizes, np.random.default_rng(32), out_scale=out_scale)
        for i, w in enumerate(net.weights):
            s2 = (out_scale if i == len(net.weights) - 1 else 1.0) ** 2 / sizes[i]
            assert np.var(w) == pytest.approx(s2, rel=0.05)
            assert np.abs(w).max() <= np.sqrt(3.0 * s2)

    def test_params_views_a_given_vector(self):
        source = Mlp((4, 6, 3), np.random.default_rng(9))
        source.params += 0.25  # biases too: a view must not zero them
        params = source.params.copy()
        net = Mlp((4, 6, 3), params=params)
        assert net.params is params
        assert params.tobytes() == source.params.tobytes()  # nothing drawn or zeroed
        for w, b in zip(net.weights, net.biases):
            assert w.base is params and b.base is params
        x = np.random.default_rng(11).normal(size=4)
        assert np.array_equal(net.forward(x), source.forward(x))
        _, cache = net.forward_cached(x)
        Adam(net, lr=0.01).step(net.backward(cache, np.ones(3)))
        assert not np.array_equal(params, source.params)  # the step wrote the given vector
        assert not np.allclose(net.forward(x), source.forward(x))

    def test_caller_owned_params(self):
        own = Mlp((4, 6, 3), np.random.default_rng(9), out_scale=0.5)
        block = np.full((2, own.num_params), 7.0)  # biases must come out zero
        net = Mlp((4, 6, 3), np.random.default_rng(9), out_scale=0.5, params=block[1])
        assert net.params.base is block
        assert block[1].tobytes() == own.params.tobytes()
        assert (block[0] == 7.0).all()
        for bad in (np.zeros(own.num_params + 1), np.zeros(own.num_params, dtype=np.float32),
                    np.zeros(2 * own.num_params)[::2]):
            with pytest.raises(ValueError, match="contiguous float64 vector"):
                Mlp((4, 6, 3), np.random.default_rng(9), params=bad)
            with pytest.raises(ValueError, match="contiguous float64 vector"):
                Mlp((4, 6, 3), params=bad)

    def test_adam_moments_in_caller_block(self):
        nets = [Mlp((3, 4, 2), np.random.default_rng(seed)) for seed in (12, 12)]
        state = np.zeros((2, nets[0].num_params + 5))
        opts = [Adam(nets[0], lr=0.01), Adam(nets[1], lr=0.01, moments=state[:, 5:])]
        assert opts[1].m.base is state and opts[1].v.base is state
        for _ in range(3):
            for net, opt in zip(nets, opts):
                _, cache = net.forward_cached(np.ones(3))
                opt.descend(cache, np.ones(2))
        assert nets[0].params.tobytes() == nets[1].params.tobytes()
        assert state[1, 5:].tobytes() == opts[0].v.tobytes() and not state[:, :5].any()
        with pytest.raises(ValueError, match="moments"):
            Adam(nets[0], lr=0.01, moments=state)


class TestOptimizers:
    def test_adam_zero_lr_is_identity(self):
        net = Mlp((3, 4, 2), np.random.default_rng(12))
        before = net.params.copy()
        opt = Adam(net, lr=0.0)
        _, caches = reference_forward(net, np.ones((2, 3)))
        opt.step(reference_backward(net, caches, np.ones((2, 2))))
        assert np.array_equal(net.params, before)

    def test_adam_descends_quadratic(self):
        net = Mlp((2, 1), np.random.default_rng(13))
        opt = Adam(net, lr=0.05)
        x = np.array([[1.0, -1.0], [0.5, 2.0]])
        target = np.array([[0.3], [-0.7]])

        def loss():
            return float(np.sum((reference_forward(net, x)[0] - target) ** 2))

        start = loss()
        for _ in range(200):
            pred, caches = reference_forward(net, x)
            opt.step(reference_backward(net, caches, 2.0 * (pred - target)))
        assert loss() < 1e-4 < start

    def test_sgd_matches_manual_update(self):
        net = Mlp((2, 2), np.random.default_rng(14))
        w_before = net.weights[0].copy()
        _, caches = reference_forward(net, np.ones((1, 2)))
        grads = reference_backward(net, caches, np.ones((1, 2)))
        Sgd(net, lr=0.1).step(grads)
        assert np.allclose(net.weights[0], w_before - 0.1 * net.layers(grads)[0][0], rtol=1e-14)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("rows", [None, 6], ids=["one-row", "batched"])
    @pytest.mark.parametrize("sizes", [(3, 2), (4, 8, 3), (14, 32, 32, 3)])
    def test_flat_optimizers_match_reference(self, optimizer, rows, sizes):
        net = Mlp(sizes, np.random.default_rng(20), out_scale=0.5)
        ref_weights = [w.copy() for w in net.weights]
        ref_biases = [b.copy() for b in net.biases]
        # buffers wider than the network, as when a run shares them
        buffers = np.empty((3, net.num_params + 7))
        if optimizer == "adam":
            opt = Adam(net, lr=0.01, buffers=buffers)
            ref_step = reference_adam(ref_weights, ref_biases, lr=0.01)
        else:
            opt = Sgd(net, lr=0.05, buffers=buffers)
            ref_step = reference_sgd(ref_weights, ref_biases, lr=0.05)
        start = net.params.copy()
        rng = np.random.default_rng(21)
        for _ in range(25):
            if rows is None:
                _, cache = net.forward_cached(rng.normal(size=sizes[0]))
                grad = net.backward(cache, rng.normal(size=sizes[-1]), out=opt.grad)
            else:  # a gradient summed over rows, as an update feeds its optimizers
                _, caches = reference_forward(net, rng.normal(size=(rows, sizes[0])))
                opt.grad[:] = reference_backward(net, caches, rng.normal(size=(rows, sizes[-1])))
                grad = opt.grad
            ref_step([(dw.copy(), db.copy()) for dw, db in net.layers(grad)])
            opt.step(grad)
            for (w, b), ref_w, ref_b in zip(net.layers(net.params), ref_weights, ref_biases):
                assert np.array_equal(w, ref_w) and np.array_equal(b, ref_b)
        assert not np.array_equal(net.params, start)

    def test_adam_matches_textbook_form(self):
        # 200 steps from zero moments, compared after every one, t = 1
        # included; gradients span ten decades, so eps matters for some.
        # A step moves a parameter by at most about lr, so the forms' rounding
        # is also bounded by 1e-12 * lr where a parameter passes near zero.
        lr = 0.01
        net = Mlp((14, 32, 32, 3), np.random.default_rng(22))
        opt = Adam(net, lr=lr)
        ref_params = net.params.copy()
        ref_step = reference_adam_textbook(ref_params, lr=lr)
        rng = np.random.default_rng(23)
        decades = rng.uniform(-10.0, 0.0, size=net.num_params)
        for _ in range(200):
            grad = rng.normal(size=net.num_params) * 10.0**decades
            ref_step(grad)
            opt.step(grad)
            np.testing.assert_allclose(net.params, ref_params, rtol=1e-12, atol=1e-12 * lr)

    @pytest.mark.parametrize("maker", [Adam, Sgd])
    def test_step_with_run_owned_buffers_allocates_nothing(self, maker):
        net = Mlp((14, 256, 256, 3), np.random.default_rng(0))
        opt = maker(net, 1e-3, buffers=np.empty((3, net.num_params)))
        _, cache = net.forward_cached(np.linspace(0.0, 1.0, 14))
        grad = net.backward(cache, np.ones(3), out=opt.grad)
        # numpy caches each ufunc's loop on its first call in the process
        # (about 256 B each); warm up so that only the step itself is measured
        opt.step(grad)
        tracemalloc.start()
        try:
            opt.step(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024
