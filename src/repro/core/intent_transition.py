"""Structured intent transition (§3.5): Eq. (7)-(10).

Builds the personalised intent feature matrix ``Z_t`` (per-concept MLPs of
the sequence state, masked by the intention vector, Eq. 8), propagates it
over the concept graph with a GCN (Eq. 9-10), and derives the next
intention vector ``m_{t+1}`` by keeping the ``lambda`` concepts with the
largest feature norms (the operator ``g``), via a straight-through top-k so
training stays end-to-end differentiable.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph import GCN, LearnedAdjacencyGCN
from repro.nn.mlp import ConceptMLPBank
from repro.nn.module import Module
from repro.tensor import fused
from repro.tensor.tensor import Tensor


class StructuredIntentTransition(Module):
    """Per-concept feature construction + GCN message passing.

    Parameters
    ----------
    adjacency:
        ``(K, K)`` concept relation matrix (the intention graph).
    dim:
        Sequence representation dimensionality ``d``.
    intent_dim:
        Intent feature dimensionality ``d'``.
    num_intents:
        ``lambda`` — active concepts kept after the transition.
    gcn_layers:
        Depth of the message-passing function ``F`` (Eq. 9).
    use_gnn:
        Ablation switch: when ``False`` the transition is the identity
        (``Z_{t+1} = Z_t``), the "w/o GNN" variant of Table 5.
    """

    def __init__(self, adjacency: np.ndarray, dim: int, intent_dim: int,
                 num_intents: int, gcn_layers: int = 2, use_gnn: bool = True,
                 mlp_hidden: int | None = None, tau: float = 1.0,
                 shared_mlp: bool = False, graph_mode: str = "fixed"):
        super().__init__()
        adjacency = np.asarray(adjacency, dtype=np.float32)
        self.num_concepts = adjacency.shape[0]
        self.intent_dim = intent_dim
        self.num_intents = num_intents
        self.use_gnn = use_gnn
        self.tau = tau
        # `shared_mlp` is an ablation: one MLP serves every concept instead
        # of the per-concept MLP_k of Eq. (8) (broadcast over the K axis).
        self.feature_bank = ConceptMLPBank(1 if shared_mlp else self.num_concepts,
                                           dim, intent_dim, hidden=mlp_hidden)
        if not use_gnn:
            self.gcn = None
        elif graph_mode == "fixed":
            self.gcn = GCN(adjacency, intent_dim, num_layers=gcn_layers)
        elif graph_mode == "learned":
            # §3.5 extension: learn the concept relations end-to-end,
            # initialised from the available graph.
            self.gcn = LearnedAdjacencyGCN(self.num_concepts, intent_dim,
                                           num_layers=gcn_layers,
                                           init_adjacency=adjacency)
        else:
            raise ValueError(
                f"graph_mode must be 'fixed' or 'learned', got {graph_mode!r}"
            )

    def intent_features(self, states: Tensor, intention: Tensor) -> Tensor:
        """Eq. (7-8): ``z_{t,k} = m_{t,k} * MLP_k(x_t)``, shape ``(B, T, K, d')``."""
        features = self.feature_bank(states)
        return features * intention.reshape(*intention.shape, 1)

    def transition(self, intent_features: Tensor) -> Tensor:
        """Eq. (9): ``Z_{t+1} = F(Z_t, A)`` (identity when ``use_gnn=False``)."""
        if self.gcn is None:
            return intent_features
        return self.gcn(intent_features)

    def next_intention(self, next_features: Tensor) -> Tensor:
        """Top-``lambda`` concepts by feature norm (§3.5, operator ``g``).

        Straight-through: the forward pass is the exact hard multi-hot; the
        gradient flows through a softmax over the norms.  Norm, ``1/tau``
        scale, softmax and the straight-through output are one tape node
        (:func:`repro.tensor.fused.norm_top_k`).
        """
        return fused.norm_top_k(next_features, self.num_intents, self.tau)

    def forward(self, states: Tensor, intention: Tensor) -> tuple[Tensor, Tensor]:
        """Full module: returns ``(Z_{t+1}, m_{t+1})``."""
        current = self.intent_features(states, intention)
        upcoming = self.transition(current)
        next_intention = self.next_intention(upcoming)
        return upcoming, next_intention
