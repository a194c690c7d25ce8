"""Training at the non-padding positions only.

``SequenceRecommender.training_loss`` computes the output, the logits and
the cross-entropy at the positions the mask keeps (``output_at``).  The
oracle runs the full ``(B, T)`` grid, ``all_item_logits(sequence_output(...))``
and the cross-entropy with the padding mask, with every kernel replaced by
its composed reference (the ``composed_kernels`` fixture).  In float64, without dropout or Gumbel noise, both
must give the same loss and gradients up to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ISRec, ISRecConfig
from repro.data.batching import next_item_batches
from repro.models import SASRec
from repro.tensor import Tensor, use_dtype
from repro.utils import set_seed
from tests.composed import cross_entropy_composed

ISREC_CONFIGS = {
    "default": {},
    "mlp_hidden": {"mlp_hidden": 12},
    "shared_mlp": {"shared_mlp": True},
    "learned_graph": {"graph_mode": "learned"},
}


def _isrec(dataset, **overrides):
    config = ISRecConfig(dim=16, dropout=0.0, gumbel_noise=False, **overrides)
    return ISRec.from_dataset(dataset, max_len=12, config=config)


def _sasrec(dataset):
    return SASRec(dataset.num_items, dim=16, max_len=12, dropout=0.0)


def _batch(split):
    return next(next_item_batches(split.train_sequences(), 12, 32,
                                  np.random.default_rng(0)))


def _loss_and_grads(model, loss_fn):
    model.zero_grad()
    loss = loss_fn()
    loss.backward()
    return float(loss.data), {name: p.grad for name, p in model.named_parameters()}


def _full_grid_loss(model, batch):
    _users, inputs, targets, mask = batch
    logits = model.all_item_logits(model.sequence_output(inputs))
    return cross_entropy_composed(logits, targets, mask)


def _assert_matches_full_grid(model, batch, request):
    model.train()
    loss, grads = _loss_and_grads(model, lambda: model.training_loss(batch))
    request.getfixturevalue("composed_kernels")
    full_loss, full_grads = _loss_and_grads(
        model, lambda: _full_grid_loss(model, batch))
    assert abs(loss - full_loss) <= 1e-12
    largest = max(float(np.abs(g).max()) for g in full_grads.values()
                  if g is not None)
    for name, expected in full_grads.items():
        grad = grads[name]
        if expected is None:
            assert grad is None, name
            continue
        assert grad.dtype == np.float64, name
        if name.endswith("attention.key.bias"):
            # Adding a constant to every key shifts all of a query's scores
            # equally, so this gradient is exactly zero and both paths hold
            # only rounding noise: compare with the model's scale instead.
            for noise in (grad, expected):
                assert np.abs(noise).max() <= 1e-12 * largest, name
            continue
        np.testing.assert_allclose(
            grad, expected, rtol=0, atol=1e-12 * float(np.abs(expected).max()),
            err_msg=name)


@pytest.mark.parametrize("name", sorted(ISREC_CONFIGS))
def test_isrec_matches_full_grid_float64(name, tiny_dataset, tiny_split,
                                         request):
    with use_dtype(np.float64):
        set_seed(2024)
        model = _isrec(tiny_dataset, **ISREC_CONFIGS[name])
    batch = _batch(tiny_split)
    assert (batch[3] == 0).any(), "the batch must contain padding"
    _assert_matches_full_grid(model, batch, request)


def test_sasrec_matches_full_grid_float64(tiny_dataset, tiny_split, request):
    with use_dtype(np.float64):
        set_seed(2024)
        model = _sasrec(tiny_dataset)
    _assert_matches_full_grid(model, _batch(tiny_split), request)


def test_isrec_runs_the_head_at_selected_rows_only(tiny_dataset, tiny_split):
    model = _isrec(tiny_dataset)
    users, inputs, targets, mask = _batch(tiny_split)
    seen = []
    forward = model.transition.forward
    model.transition.forward = lambda states, intention: (
        seen.append(states.shape) or forward(states, intention))
    model.training_loss((users, inputs, targets, mask))
    assert seen == [(int((mask > 0).sum()), 16)]


@pytest.mark.parametrize("make", [_isrec, _sasrec], ids=["ISRec", "SASRec"])
def test_all_padding_batch_raises(make, tiny_dataset, tiny_split):
    model = make(tiny_dataset)
    users, inputs, targets, mask = _batch(tiny_split)
    with pytest.raises(ValueError, match="excludes every position"):
        model.training_loss((users, inputs, targets, np.zeros_like(mask)))


def test_getitem_with_repeated_ids_accumulates():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[2, 0, 2], [2, 3, 0]])
    (table[ids] * Tensor(np.arange(18.0).reshape(2, 3, 3))).sum().backward()
    expected = np.zeros((4, 3))
    np.add.at(expected, ids, np.arange(18.0).reshape(2, 3, 3))
    np.testing.assert_array_equal(table.grad, expected)
    assert expected[2].tolist() == [15.0, 18.0, 21.0]
