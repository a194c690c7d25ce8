"""Multi-layer perceptrons, including the per-concept bank used by ISRec."""

from __future__ import annotations

from typing import Sequence

from repro.nn.activation import ReLU
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear, LinearBank
from repro.nn.module import Module, ModuleList
from repro.tensor import fused
from repro.tensor.tensor import Tensor


class MLP(Module):
    """A stack of ``Linear -> ReLU (-> Dropout)`` blocks with a linear head.

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``[64, 32, 16]``
        builds ``Linear(64, 32) -> ReLU -> Linear(32, 16)``.
    dropout:
        Dropout probability applied after every hidden activation.
    """

    def __init__(self, dims: Sequence[int], dropout: float = 0.0):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        self.dims = list(dims)
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out))
            if i < len(dims) - 2:
                layers.append(ReLU())
                if dropout > 0:
                    layers.append(Dropout(dropout))
        self.layers = ModuleList(layers)

    def forward(self, x: Tensor) -> Tensor:
        """Apply the layer stack."""
        for layer in self.layers:
            x = layer(x)
        return x


class ConceptMLPBank(Module):
    """``K`` independent two-layer MLPs sharing an input (Eq. 8) or reading
    per-concept slices (Eq. 11).

    :meth:`forward` maps ``(..., in)`` to ``(..., K, hidden)`` then to
    ``(..., K, out)``; :meth:`decode` maps ``(..., K, in)`` slices and a
    ``(..., K)`` mask to their masked sum ``(..., out)`` (Eq. 11).
    """

    def __init__(self, num_banks: int, in_features: int, out_features: int,
                 hidden: int | None = None):
        super().__init__()
        self.num_banks = num_banks
        self.hidden = hidden
        if hidden is None:
            self.first = LinearBank(num_banks, in_features, out_features)
            self.second = None
        else:
            self.first = LinearBank(num_banks, in_features, hidden)
            self.second = LinearBank(num_banks, hidden, out_features)

    def forward(self, x: Tensor) -> Tensor:
        """Broadcast mode: every bank reads the same ``(..., in)`` input."""
        out = self.first(x)
        if self.second is not None:
            out = self.second.forward_per_bank(out.relu())
        return out

    def decode(self, z: Tensor, mask: Tensor) -> Tensor:
        """``sum_k mask_k MLP_k(z_k)``: bank ``k`` reads ``z[..., k, :]``.

        The last layer and the masked sum run as one GEMM
        (:func:`repro.tensor.fused.intent_decode`), so the ``(..., K, out)``
        per-bank outputs are never built.
        """
        head = self.first
        if self.second is not None:
            z, head = self.first.forward_per_bank(z).relu(), self.second
        return fused.intent_decode(z, mask, head.weight, head.bias)
