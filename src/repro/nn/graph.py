"""Graph convolution layers for the structured intent transition (Eq. 9-10).

The GCN follows Kipf & Welling (2017): ``H' = sigma(D^-1/2 (A + I) D^-1/2 H W)``.
The normalised adjacency is precomputed once from a constant graph.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.tensor.tensor import Tensor, default_dtype


def normalized_adjacency(adjacency: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """Symmetric normalisation ``D^-1/2 (A + I) D^-1/2`` of Eq. (10).

    Computed in :func:`default_dtype`, so a float64 model convolves with a
    float64 adjacency.
    """
    dtype = default_dtype()
    a = np.asarray(adjacency, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if add_self_loops:
        a = a + np.eye(a.shape[0], dtype=dtype)
    degree = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    return (a * inv_sqrt[:, None]) * inv_sqrt[None, :]


class GCNLayer(Module):
    """One graph convolution over a fixed node set.

    Input may be ``(num_nodes, in)`` or batched ``(..., num_nodes, in)``;
    the (constant) normalised adjacency left-multiplies the node features.
    """

    def __init__(self, adjacency: np.ndarray, in_features: int, out_features: int,
                 activation: bool = True):
        super().__init__()
        self.adjacency = Tensor(normalized_adjacency(adjacency))
        self.weight = Parameter(init.xavier_uniform((in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,)))
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        """Propagate node features over the normalised adjacency."""
        propagated = self.adjacency @ (x @ self.weight) + self.bias
        return propagated.relu() if self.activation else propagated


class LearnedAdjacencyGCN(Module):
    """GCN over a *learned* relation graph.

    The paper notes (§3.5) that ISRec "can also be extended to other
    available concept relations or learning the relation".  This layer
    realises that extension: edge logits are trainable, the dense adjacency
    is ``sigmoid`` of the symmetrised logits (diagonal removed), and the
    symmetric normalisation of Eq. (10) is recomputed differentiably on
    every forward pass so relations co-train with the rest of the model.

    Parameters
    ----------
    num_nodes:
        Number of graph nodes (concepts).
    dim:
        Feature dimensionality (input == output, as in :class:`GCN`).
    num_layers:
        Stacked propagation layers.
    init_adjacency:
        Optional ``(num_nodes, num_nodes)`` 0/1 prior (e.g. the ConceptNet
        graph); edges start near probability 0.85, non-edges near 0.15.
        Without it all logits start at 0 (probability 0.5).
    """

    def __init__(self, num_nodes: int, dim: int, num_layers: int = 2,
                 init_adjacency: np.ndarray | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("LearnedAdjacencyGCN needs at least one layer")
        self.num_nodes = num_nodes
        if init_adjacency is not None:
            prior = np.asarray(init_adjacency, dtype=np.float32)
            if prior.shape != (num_nodes, num_nodes):
                raise ValueError(
                    f"init_adjacency must be ({num_nodes}, {num_nodes}), got {prior.shape}"
                )
            logits = np.where(prior > 0, 1.75, -1.75).astype(default_dtype())
        else:
            logits = init.zeros((num_nodes, num_nodes))
        self.edge_logits = Parameter(logits)
        self.weights = ModuleList([
            _GCNWeight(dim, dim, activation=(i < num_layers - 1))
            for i in range(num_layers)
        ])
        self._diag_mask = 1.0 - np.eye(num_nodes, dtype=default_dtype())

    def adjacency(self) -> Tensor:
        """Differentiable dense adjacency in ``[0, 1]`` (zero diagonal)."""
        symmetric = (self.edge_logits + self.edge_logits.T) * 0.5
        return symmetric.sigmoid() * Tensor(self._diag_mask)

    def _normalized(self) -> Tensor:
        dense = self.adjacency() + Tensor(np.eye(self.num_nodes,
                                                 dtype=self.edge_logits.dtype))
        degree = dense.sum(axis=1)
        inv_sqrt = (degree + 1e-8) ** -0.5
        return dense * inv_sqrt.reshape(-1, 1) * inv_sqrt.reshape(1, -1)

    def forward(self, x: Tensor) -> Tensor:
        """Propagate with the current (learned) adjacency."""
        normalized = self._normalized()
        for layer in self.weights:
            x = layer(normalized, x)
        return x


class _GCNWeight(Module):
    """One propagation layer whose adjacency is supplied at call time."""

    def __init__(self, in_features: int, out_features: int, activation: bool):
        super().__init__()
        self.weight = Parameter(init.xavier_uniform((in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,)))
        self.activation = activation

    def forward(self, adjacency: Tensor, x: Tensor) -> Tensor:
        """One propagation with a caller-supplied adjacency."""
        propagated = adjacency @ (x @ self.weight) + self.bias
        return propagated.relu() if self.activation else propagated


class GCN(Module):
    """A stack of :class:`GCNLayer` with a linear final layer.

    Used as the message-passing function ``F`` in Eq. (9):
    ``Z_{t+1} = GCN(Z_t, A)``.
    """

    def __init__(self, adjacency: np.ndarray, dim: int, num_layers: int = 2):
        super().__init__()
        if num_layers < 1:
            raise ValueError("GCN needs at least one layer")
        self.layers = ModuleList([
            GCNLayer(adjacency, dim, dim, activation=(i < num_layers - 1))
            for i in range(num_layers)
        ])

    def forward(self, x: Tensor) -> Tensor:
        """Apply every GCN layer in order (Eq. 9)."""
        for layer in self.layers:
            x = layer(x)
        return x
