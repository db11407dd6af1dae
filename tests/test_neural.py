import numpy as np
import pytest

from faultlab.errors import NonFiniteGradient, ShapeMismatch
from faultlab.neural import (
    AdamW,
    Attention,
    Conv1d,
    Dense,
    Denoiser,
    Embedding,
    GroupNorm,
    ResidualBlock,
    Tensor,
    avg_pool1d,
    sinusoidal_embedding,
)
from faultlab.neural.layers import Module
from gradcheck import grad_check
import tape_oracle as oracle
from tape_oracle import getitem, node, softmax


def _check(module_params, loss_fn, tol=1e-4, **kw):
    err = grad_check(loss_fn, module_params, **kw)
    assert err < tol, f"max relative gradient error {err:.3e}"


def test_dense_gradients():
    rng = np.random.default_rng(0)
    layer = Dense(rng, 5, 3)
    x = Tensor(rng.normal(size=(4, 5)))
    _check(layer.named_params(), lambda: (node(layer, x) * node(layer, x)).sum())


def test_conv1d_gradients():
    rng = np.random.default_rng(1)
    for kernel in (1, 3):
        conv = Conv1d(rng, 3, 4, kernel=kernel)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        params = dict(conv.named_params(), x=x)
        _check(params, lambda: (node(conv, x) * node(conv, x)).sum())


def test_groupnorm_gradients_and_identity():
    rng = np.random.default_rng(2)
    gn = GroupNorm(4, groups=2)
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    _check(dict(gn.named_params(), x=x), lambda: (node(gn, x) * node(gn, x)).sum())
    # unit scale, zero bias on already-normalized input reproduces the input
    z = rng.normal(size=(2, 4, 50))
    z = z.reshape(2, 2, -1)
    z = (z - z.mean(axis=2, keepdims=True)) / np.sqrt(z.var(axis=2, keepdims=True) + 1e-5)
    z = z.reshape(2, 4, 50)
    out, _ = gn(z)
    assert np.allclose(out, z, atol=1e-4)


def test_attention_gradients_and_softmax_rows():
    rng = np.random.default_rng(3)
    attn = Attention(rng, 4, groups=2)
    x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
    _check(dict(attn.named_params(), x=x),
           lambda: (node(attn, x) * node(attn, x)).sum(), limit_per_param=12,
           rng=np.random.default_rng(0))
    probs = softmax(Tensor(rng.normal(size=(3, 5, 5))))
    assert np.allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)


def test_residual_block_gradients_all_channel_cases():
    rng = np.random.default_rng(4)
    for c_in, c_out in ((4, 4), (2, 4), (6, 4)):
        block = ResidualBlock(rng, c_in, c_out, emb_dim=6, groups=2)
        x = Tensor(rng.normal(size=(2, c_in, 4)), requires_grad=True)
        emb = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        params = dict(block.named_params(), x=x, emb=emb)
        _check(params, lambda: (node(block, x, emb) * node(block, x, emb)).sum(),
               limit_per_param=10, rng=np.random.default_rng(1))


def test_embedding_gradients():
    rng = np.random.default_rng(5)
    emb = Embedding(rng, 3, 4)
    idx = np.array([0, 2, 2, 1])
    _check(emb.named_params(), lambda: (node(emb, idx) * node(emb, idx)).sum())


def test_pool_upsample_shape_law():
    # The tape's pooling and upsampling pass the finite-difference check, and
    # the library's array pooling equals the tape's; their backward inside
    # `Denoiser.backward` is held to the tape by tests/test_layer_nodes.py.
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    down = oracle.avg_pool1d(x)
    assert down.shape == (2, 3, 4)
    assert np.array_equal(avg_pool1d(x.data), down.data)
    up = oracle.upsample_nearest(down)
    assert up.shape == x.shape
    _check({"x": x}, lambda: (oracle.upsample_nearest(oracle.avg_pool1d(x)) * x).sum())
    with pytest.raises(ShapeMismatch):
        avg_pool1d(np.zeros((1, 2, 5)))


def test_sinusoidal_embedding_accepts_fractional_steps():
    a = sinusoidal_embedding(np.array([4.0]), 8)
    b = sinusoidal_embedding(np.array([4.5]), 8)
    assert a.shape == (1, 8)
    assert not np.allclose(a, b)


def test_composed_denoiser_gradients():
    model = Denoiser(seed=3, base=4, groups=2, emb_dim=8)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8))
    t = np.array([3, 17])
    c = np.array([1, 0])
    target = Tensor(rng.normal(size=(2, 1, 8)))

    def loss_fn():
        d = model(x, t, c) - target
        return (d * d).sum()

    _check(model.named_params(), loss_fn, limit_per_param=8,
           rng=np.random.default_rng(1))


def test_zero_initialized_head_predicts_zero():
    model = Denoiser(seed=0, base=4, groups=2, emb_dim=8)
    out = model.predict(np.random.default_rng(0).normal(size=(3, 8)),
                        np.array([1, 5, 9]), np.array([0, 1, 2]))
    assert np.all(out == 0.0)


def test_odd_width_rejected():
    model = Denoiser(seed=0, base=4, groups=2, emb_dim=8)
    with pytest.raises(ShapeMismatch):
        model.predict(np.zeros((1, 5)), [1], [1])
    with pytest.raises(ShapeMismatch):
        model.predict(np.zeros((1, 2)), [1], [1])


def test_class_conditioning_diverges_after_one_step():
    from faultlab.diffusion import TrainConfig, make_schedule, train_step

    model = Denoiser(seed=1, base=4, groups=2, emb_dim=8)
    x = np.random.default_rng(2).normal(size=(4, 8))
    t = np.full(4, 7)
    same_before = model.predict(x, t, np.full(4, 1)) - model.predict(x, t, None)
    assert np.all(same_before == 0.0)  # zero head hides the embeddings
    sched = make_schedule(50, 1e-4, 0.02)
    opt = AdamW(model.named_params(), lr=1e-2)
    train_step(model, opt, np.sign(x), np.array([0, 1, 0, 1]),
               TrainConfig(), sched, np.random.default_rng(0))
    diff = model.predict(x, t, np.full(4, 1)) - model.predict(x, t, None)
    assert np.max(np.abs(diff)) > 0.0


def test_seed_reproducibility():
    a = Denoiser(seed=9, base=4, groups=2, emb_dim=8)
    b = Denoiser(seed=9, base=4, groups=2, emb_dim=8)
    for k, p in a.named_params().items():
        assert np.array_equal(p.data, b.named_params()[k].data)
    c = Denoiser(seed=10, base=4, groups=2, emb_dim=8)
    assert any(
        not np.array_equal(p.data, c.named_params()[k].data)
        for k, p in a.named_params().items()
    )


def test_architecture_inventory():
    model = Denoiser(seed=0)

    def walk(mod):
        for value in vars(mod).values():
            if isinstance(value, Module):
                yield value
                yield from walk(value)

    mods = list(walk(model))
    assert sum(isinstance(m, Conv1d) for m in mods) == 13
    assert sum(isinstance(m, GroupNorm) for m in mods) == 10
    assert sum(isinstance(m, ResidualBlock) for m in mods) == 3
    assert sum(isinstance(m, Attention) for m in mods) == 3


def test_adamw_hand_oracle():
    # w=1, g=1, lr=3e-4, wd=0.01, betas (0.9, 0.999), eps 1e-8, step 1:
    #   m = 0.1, v = 0.001, m_hat = 1, v_hat = 1
    #   w' = 1 - lr * 1/(1 + 1e-8) - lr * 0.01 * 1
    w = Tensor(np.array([1.0]), requires_grad=True)
    w.grad = np.array([1.0])
    opt = AdamW({"w": w}, lr=3e-4, weight_decay=0.01)
    opt.step()
    expected = 1.0 - 3e-4 / (1.0 + 1e-8) - 3e-4 * 0.01
    assert w.data[0] == pytest.approx(expected, abs=1e-15)
    assert opt.step_count == 1


def test_adamw_zero_gradient_zero_decay_is_identity():
    w = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    w.grad = np.zeros(2)
    opt = AdamW({"w": w}, lr=1e-3, weight_decay=0.0)
    opt.step()
    assert np.array_equal(w.data, [2.0, -1.0])


def test_adamw_rejects_nan_gradient():
    w = Tensor(np.array([1.0]), requires_grad=True)
    w.grad = np.array([float("nan")])
    opt = AdamW({"w": w})
    with pytest.raises(NonFiniteGradient):
        opt.step()


class _ReferenceAdamW:
    """The per-parameter AdamW loop that the flat-buffer optimizer replaced."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = dict(params)
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.b1, self.b2 = betas
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        for name, p in self.params.items():
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m, v = self.m[name], self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            m_hat = m / (1.0 - self.b1 ** self.t)
            v_hat = v / (1.0 - self.b2 ** self.t)
            decay = self.lr * self.weight_decay * p.data
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps) - decay


def test_flat_adamw_is_bit_identical_to_per_parameter_loop():
    flat_model = Denoiser(seed=2, base=4, groups=2, emb_dim=8)
    ref_model = Denoiser(seed=2, base=4, groups=2, emb_dim=8)
    flat = AdamW(flat_model.named_params(), lr=1e-2, weight_decay=0.05)
    ref = _ReferenceAdamW(ref_model.named_params(), lr=1e-2, weight_decay=0.05)
    names = list(flat.params)
    skipped = names[len(names) // 2]
    rng = np.random.default_rng(0)
    for _ in range(5):
        for name in names:
            g = None if name == skipped else rng.normal(size=flat.params[name].shape)
            flat.params[name].grad = g
            ref.params[name].grad = g
        flat.step()
        ref.step()
        for name in names:
            assert np.array_equal(flat.params[name].data, ref.params[name].data), name
    # every parameter is a view into the one buffer the step updates
    assert all(np.shares_memory(p.data, flat.flat) for p in flat.params.values())


def test_adamw_names_the_parameter_with_a_nan_gradient():
    model = Denoiser(seed=0, base=4, groups=2, emb_dim=8)
    params = model.named_params()
    opt = AdamW(params)
    for p in params.values():
        p.grad = np.ones(p.shape)
    params["res_mid.conv1.w"].grad[0, 0, 1] = np.nan
    before = opt.flat.copy()
    with pytest.raises(NonFiniteGradient, match=r"'res_mid\.conv1\.w'"):
        opt.step()
    assert np.array_equal(opt.flat, before)   # no parameter was updated


def test_adamw_without_parameters_steps():
    opt = AdamW({})
    opt.step()
    assert opt.step_count == 1


@pytest.mark.parametrize("key", [
    (slice(None), slice(1, 3), slice(None, None, 2)),   # basic slices
    np.array([2, 0, 2, 2, 1]),                           # repeated rows
])
def test_getitem_backward_scatters_like_add_at(key):
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
    out = getitem(x, key)
    g = rng.normal(size=out.shape)
    out.backward(g)
    expected = np.zeros(x.shape)
    np.add.at(expected, key, g)
    assert np.array_equal(x.grad, expected)


def test_conv1d_matches_padded_window_im2col():
    rng = np.random.default_rng(8)
    for kernel in (1, 3, 5, 7):
        for shape in ((3, 2, 4), (2, 5, 1), (1, 3, 2), (4, 6, 8)):
            conv = Conv1d(rng, shape[1], 3, kernel=kernel)
            x = rng.normal(size=shape)
            pad = kernel // 2
            x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
            windows = np.lib.stride_tricks.sliding_window_view(x_pad, kernel, axis=2)
            patches = np.ascontiguousarray(windows.transpose(0, 2, 1, 3))
            patches = patches.reshape(shape[0] * shape[2], shape[1] * kernel)
            expected = (patches @ conv.w.data.reshape(3, -1).T).reshape(shape[0], shape[2], 3)
            expected = expected.transpose(0, 2, 1) + conv.b.data[None, :, None]
            assert np.array_equal(conv(x)[0], expected), (kernel, shape)
