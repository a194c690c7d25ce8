"""Intent decoder (§3.6): Eq. (11)-(12).

The reverse of the feature construction: each concept's own MLP maps its
intent feature back to the sequence space; active concepts are summed into
the next sequence representation ``x_{t+1}``, which scores items through
the item embedding.
"""

from __future__ import annotations

from repro.nn.mlp import ConceptMLPBank
from repro.nn.module import Module
from repro.tensor.tensor import Tensor


class IntentDecoder(Module):
    """``x_{t+1} = sum_k m_{t+1,k} MLP'_k(z_{t+1,k})`` (Eq. 11)."""

    def __init__(self, num_concepts: int, intent_dim: int, dim: int,
                 mlp_hidden: int | None = None, shared_mlp: bool = False):
        super().__init__()
        # `shared_mlp` mirrors the ablation in the transition module: a
        # single reverse MLP broadcast over concepts instead of MLP'_k.
        self.decoder_bank = ConceptMLPBank(1 if shared_mlp else num_concepts,
                                           intent_dim, dim, hidden=mlp_hidden)

    def forward(self, next_features: Tensor, next_intention: Tensor) -> Tensor:
        """Map ``(B, T, K, d')`` features + ``(B, T, K)`` mask to ``(B, T, d)``."""
        return self.decoder_bank.decode(next_features, next_intention)
