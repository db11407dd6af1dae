"""The denoiser is one tape node, written once as an array forward and backward.

The oracle is `tape_oracle`: the same layers composed of primitive tape
ops, one node per op.  Forward values, gradients and trained parameters
must equal it bit for bit, not just closely.  A single layer reaches the
tape through `tape_oracle.node`, which records its forward and backward
as one node.
"""

import numpy as np
import pytest

from faultlab.diffusion import (
    P_UNCOND,
    apply_label_dropout,
    make_schedule,
    q_sample,
    train_step,
)
from faultlab.neural import (
    AdamW,
    Attention,
    Denoiser,
    Embedding,
    GroupNorm,
    ResidualBlock,
)
from gradcheck import grad_check
import tape_oracle as oracle
from tape_oracle import Tensor, node, ops

SHAPES = [(4, 2), (8, 2), (32, 8)]     # (base, groups)


def _perturbed(seed, base, groups):
    """A denoiser off its zero-initialized head, so every path carries signal."""
    model = Denoiser(seed=seed, base=base, groups=groups)
    rng = np.random.default_rng(seed + 100)
    for p in model.named_params().values():
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    return model


def _inputs(rng, batch, width):
    return (rng.normal(size=(batch, width)), rng.integers(1, 1000, size=batch),
            rng.integers(0, 3, size=batch))


@pytest.mark.parametrize("base, groups", SHAPES)
def test_array_forward_equals_tape_forward(base, groups):
    model = _perturbed(1, base, groups)
    rng = np.random.default_rng(base)
    for width in (4, 6, 8, 16):
        for batch in (1, 2, 7, 42, 84):
            x, t, c = _inputs(rng, batch, width)
            tape = oracle.denoiser(model, x, t, c).data
            assert np.array_equal(model(x, t, c).data, tape), (width, batch)
            assert np.array_equal(model.predict(x, t, c), tape.reshape(batch, width)), \
                (width, batch)
    x, t, _ = _inputs(rng, 3, 8)
    assert np.array_equal(model.predict(x, t, None),
                          oracle.denoiser(model, x, t, None).data.reshape(3, 8))


def _grads(params, loss):
    for p in params.values():
        p.grad = None
    loss().backward()
    return {k: p.grad.copy() for k, p in params.items()}


def _assert_same_grads(params, node_loss, tape_loss):
    node, tape = _grads(params, node_loss), _grads(params, tape_loss)
    for name in params:
        assert np.array_equal(node[name], tape[name]), name


def _square(out):
    return (out * out).sum()


def test_layer_node_gradients_equal_tape():
    rng = np.random.default_rng(4)
    gn = GroupNorm(8, groups=2)
    gn.gamma.data = rng.normal(size=gn.gamma.shape)
    x = Tensor(rng.normal(size=(5, 8, 6)), requires_grad=True)
    params = dict(gn.named_params(), x=x)
    _assert_same_grads(params, lambda: _square(node(gn, x)),
                       lambda: _square(oracle.groupnorm(gn, x)))

    attn = Attention(rng, 8, groups=2)
    _assert_same_grads(dict(attn.named_params(), x=x), lambda: _square(node(attn, x)),
                       lambda: _square(oracle.attention(attn, x)))

    emb = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    for c_in, c_out in ((8, 8), (4, 8), (12, 8)):
        block = ResidualBlock(rng, c_in, c_out, emb_dim=6, groups=2)
        xb = Tensor(rng.normal(size=(5, c_in, 6)), requires_grad=True)
        _assert_same_grads(dict(block.named_params(), x=xb, emb=emb),
                           lambda: _square(node(block, xb, emb)),
                           lambda: _square(oracle.resblock(block, xb, emb)))

    table = Embedding(rng, 3, 4)
    idx = np.array([0, 2, 2, 1, 2])
    _assert_same_grads(table.named_params(), lambda: _square(node(table, idx)),
                       lambda: _square(oracle.embedding(table, idx)))


@pytest.mark.parametrize("base, groups", SHAPES)
def test_denoiser_gradients_equal_tape(base, groups):
    model = _perturbed(2, base, groups)
    rng = np.random.default_rng(7)
    x, t, c = _inputs(rng, 6, 8)
    x = Tensor(x, requires_grad=True)       # the stem hands on x's gradient too
    target = Tensor(rng.normal(size=(6, 1, 8)))

    def loss(net):
        return lambda: _square(net(x, t, c) - target)

    _assert_same_grads(dict(model.named_params(), x=x), loss(model),
                       loss(oracle.TapeDenoiser(model)))


def test_trained_parameters_equal_tape_after_60_steps():
    rows = np.sign(np.random.default_rng(9).normal(size=(42, 4)))
    labels = np.arange(42) % 2
    sched = make_schedule(1000, 1e-4, 0.02)
    flats = []
    for tape in (False, True):
        model = Denoiser(seed=3)
        opt = AdamW(model.named_params(), lr=3e-3)
        net = oracle.TapeDenoiser(model) if tape else model
        rng = np.random.default_rng(0)
        for _ in range(60):
            train_step(net, opt, rows, labels, sched, rng)
        flats.append(opt.flat)
    assert np.array_equal(flats[0], flats[1])
    assert np.array_equal(np.signbit(flats[0]), np.signbit(flats[1]))


def _tape_train_step(model, opt, batch_x, labels, sched, rng):
    """`train_step` as it was when the loss was built from tape ops, one node
    per op, on the library network's node."""
    n, width = batch_x.shape
    t = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal((n, width))
    cond = apply_label_dropout(labels, P_UNCOND, rng)
    x_t = q_sample(batch_x, t, eps, sched)
    diff = ops(model(x_t, t, cond)).reshape(n, width) - Tensor(eps)
    loss = (diff * diff).sum(axis=1).mean()
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


def test_written_out_loss_equals_tape_loss_after_60_steps():
    rows = np.sign(np.random.default_rng(9).normal(size=(42, 4)))
    labels = np.arange(42) % 2
    sched = make_schedule(1000, 1e-4, 0.02)
    flats, losses = [], []
    for step in (train_step, _tape_train_step):
        model = Denoiser(seed=3)
        opt = AdamW(model.named_params(), lr=3e-3)
        rng = np.random.default_rng(0)
        losses.append([step(model, opt, rows, labels, sched, rng)
                       for _ in range(60)])
        flats.append(opt.flat)
    assert np.array_equal(flats[0], flats[1])
    assert losses[0] == losses[1]


def test_denoiser_glue_nodes_pass_finite_difference_check():
    # A non-zero head, so gradient reaches every layer, and an input that
    # takes gradient, so the stem passes one on through the network's node.
    rng = np.random.default_rng(5)
    model = Denoiser(seed=6, base=4, groups=2, emb_dim=8)
    model.out_proj.w.data = rng.normal(size=model.out_proj.w.shape)
    x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    target = Tensor(rng.normal(size=(2, 1, 8)))
    err = grad_check(lambda: _square(model(x, np.array([4, 9]), np.array([1, 2])) - target),
                     dict(model.named_params(), x=x), limit_per_param=6,
                     rng=np.random.default_rng(0))
    assert err < 1e-4, err
