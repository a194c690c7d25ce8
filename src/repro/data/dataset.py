"""Interaction dataset container and the statistics of Tables 3-4."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.concepts import ConceptSpace
from repro.data.graphs import (
    GraphStatistics,
    ItemKnowledgeGraph,
    graph_statistics,
)


@dataclass
class DatasetStatistics:
    """The per-dataset columns of Table 3."""

    name: str
    num_users: int
    num_items: int
    num_interactions: int
    avg_length: float
    density: float

    def as_row(self) -> list:
        """Cells in Table 3 column order."""
        return [
            self.name,
            self.num_users,
            self.num_items,
            self.num_interactions,
            round(self.avg_length, 2),
            f"{100 * self.density:.2f}%",
        ]


@dataclass
class ConceptStatistics:
    """The per-dataset columns of Table 4."""

    name: str
    num_concepts: int
    num_edges: int
    avg_concepts_per_item: float

    def as_row(self) -> list:
        """Cells in Table 4 column order."""
        return [self.name, self.num_concepts, self.num_edges,
                round(self.avg_concepts_per_item, 2)]


@dataclass
class InteractionDataset:
    """Chronological user-item interactions with concept annotations.

    Conventions
    -----------
    - Items are **1-indexed**; id 0 is reserved for sequence padding.
    - ``sequences[u]`` is the chronologically ordered item-id array of user
      ``u`` (users are 0-indexed).
    - ``item_concepts`` has ``num_items + 1`` rows; row 0 (padding) is all
      zeros.  Columns align with ``concept_space.names``.
    - ``session_ids`` (optional) aligns positionally with ``sequences``:
      ``session_ids[u][t]`` is the session of user ``u``'s ``t``-th
      interaction.  Per user the ids start at 0 and are non-decreasing with
      unit steps, so sessions partition the stream into contiguous runs.
    - ``knowledge_graph`` (optional) carries structural side information
      over the *filtered* id space: KG item entities are the dataset's
      1-indexed item ids (``docs/graph-workloads.md``).
    """

    name: str
    sequences: list[np.ndarray]
    num_items: int
    item_concepts: np.ndarray
    concept_space: ConceptSpace
    item_titles: list[str] = field(default_factory=list, repr=False)
    session_ids: list[np.ndarray] | None = field(default=None, repr=False)
    knowledge_graph: ItemKnowledgeGraph | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.item_concepts.shape[0] != self.num_items + 1:
            raise ValueError(
                f"item_concepts must have num_items+1={self.num_items + 1} rows, "
                f"got {self.item_concepts.shape[0]}"
            )
        if np.any(self.item_concepts[0] != 0):
            raise ValueError("padding row 0 of item_concepts must be all zeros")
        for u, seq in enumerate(self.sequences):
            if len(seq) and (seq.min() < 1 or seq.max() > self.num_items):
                raise ValueError(f"user {u} has item ids outside [1, {self.num_items}]")
        if self.session_ids is not None:
            if len(self.session_ids) != len(self.sequences):
                raise ValueError(
                    f"session_ids covers {len(self.session_ids)} users, "
                    f"sequences has {len(self.sequences)}")
            for u, (seq, sessions) in enumerate(zip(self.sequences,
                                                    self.session_ids)):
                if len(sessions) != len(seq):
                    raise ValueError(
                        f"user {u}: {len(sessions)} session ids for "
                        f"{len(seq)} interactions")
                if len(sessions) == 0:
                    continue
                steps = np.diff(sessions)
                if sessions[0] != 0 or ((steps != 0) & (steps != 1)).any():
                    raise ValueError(
                        f"user {u}: session ids must start at 0 and increase "
                        f"in unit steps (contiguous sessions)")
        if (self.knowledge_graph is not None
                and self.knowledge_graph.num_items != self.num_items):
            raise ValueError(
                f"knowledge_graph covers {self.knowledge_graph.num_items} "
                f"items, dataset has {self.num_items}")

    @property
    def num_users(self) -> int:
        """Number of users."""
        return len(self.sequences)

    @property
    def num_concepts(self) -> int:
        """Number of concepts ``K``."""
        return self.concept_space.num_concepts

    @property
    def num_interactions(self) -> int:
        """Total number of user-item interactions."""
        return int(sum(len(seq) for seq in self.sequences))

    @property
    def has_sessions(self) -> bool:
        """Whether the dataset carries per-interaction session annotations."""
        return self.session_ids is not None

    @property
    def num_sessions(self) -> int:
        """Total number of sessions across all users (0 without annotations)."""
        if self.session_ids is None:
            return 0
        return int(sum(int(sessions[-1]) + 1 for sessions in self.session_ids
                       if len(sessions)))

    @property
    def has_knowledge_graph(self) -> bool:
        """Whether the dataset carries an item knowledge graph."""
        return self.knowledge_graph is not None

    def graph_statistics(self) -> GraphStatistics:
        """Summary of the structural side information (zeros when absent)."""
        return graph_statistics(self.knowledge_graph)

    def avg_session_length(self) -> float:
        """Mean interactions per session (0.0 without annotations)."""
        sessions = self.num_sessions
        return self.num_interactions / sessions if sessions else 0.0

    def item_popularity(self) -> np.ndarray:
        """Interaction count per item id (index 0 = padding, always 0)."""
        counts = np.zeros(self.num_items + 1, dtype=np.int64)
        for seq in self.sequences:
            np.add.at(counts, seq, 1)
        counts[0] = 0
        return counts

    def statistics(self) -> DatasetStatistics:
        """Compute the Table 3 row for this dataset."""
        interactions = self.num_interactions
        users = self.num_users
        items = self.num_items
        return DatasetStatistics(
            name=self.name,
            num_users=users,
            num_items=items,
            num_interactions=interactions,
            avg_length=interactions / max(users, 1),
            density=interactions / max(users * items, 1),
        )

    def concept_statistics(self) -> ConceptStatistics:
        """Compute the Table 4 row for this dataset."""
        per_item = self.item_concepts[1:].sum(axis=1)
        annotated = per_item[per_item > 0]
        avg = float(annotated.mean()) if len(annotated) else 0.0
        return ConceptStatistics(
            name=self.name,
            num_concepts=self.num_concepts,
            num_edges=self.concept_space.num_edges,
            avg_concepts_per_item=avg,
        )

    def concepts_of_item(self, item: int) -> list[str]:
        """Concept names attached to ``item`` (for explanations, Fig. 2)."""
        if not 1 <= item <= self.num_items:
            raise IndexError(f"item id {item} out of range [1, {self.num_items}]")
        indices = np.flatnonzero(self.item_concepts[item])
        return [self.concept_space.names[i] for i in indices]

    def title_of_item(self, item: int) -> str:
        """Human-readable item title (falls back to ``item#<id>``)."""
        if self.item_titles and 1 <= item <= self.num_items:
            return self.item_titles[item - 1]
        return f"item#{item}"
