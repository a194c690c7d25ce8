"""Structural side information: the item knowledge graph.

:class:`ItemKnowledgeGraph` carries the graph layer the simulator can emit
on top of the interaction stream (``docs/graph-workloads.md``):
entity/relation triples layered on the concept graph.  Entities share one
1-indexed id space: ids ``1..num_items`` are catalog items, ids
``num_items+1..num_entities`` are attribute entities (the dataset's
concepts).  Id 0 is reserved for padding, mirroring the item-id convention.

The container validates its invariants on construction, so a dataset that
carries one (``InteractionDataset.knowledge_graph``) can only reference live
entities — the property the 5-core filtering in :mod:`repro.data.synthetic`
must preserve and the graph test-suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GraphStatistics:
    """Headline numbers of one dataset's structural side information."""

    num_entities: int
    num_relations: int
    num_triples: int
    triples_per_item: float


@dataclass
class ItemKnowledgeGraph:
    """Entity/relation triples over items and attribute entities.

    ``triples[k] = (head, relation, tail)`` with 1-indexed entity ids and
    0-indexed relation ids.  Heads and tails may be items *or* attribute
    entities (concept-concept links are first-class triples).
    """

    triples: np.ndarray
    num_items: int
    num_entities: int
    num_relations: int
    relation_names: list[str] = field(default_factory=list)
    entity_names: list[str] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.triples = np.asarray(self.triples, dtype=np.int64)
        if self.triples.size == 0:
            self.triples = self.triples.reshape(0, 3)
        if self.triples.ndim != 2 or self.triples.shape[1] != 3:
            raise ValueError(
                f"triples must be (N, 3) [head, relation, tail], "
                f"got shape {self.triples.shape}")
        if self.num_entities < self.num_items:
            raise ValueError(
                f"num_entities ({self.num_entities}) cannot be smaller than "
                f"num_items ({self.num_items})")
        if self.num_relations < 1:
            raise ValueError("num_relations must be at least 1")
        if len(self.triples):
            entities = self.triples[:, [0, 2]]
            if entities.min() < 1 or entities.max() > self.num_entities:
                raise ValueError(
                    f"triple entities must lie in [1, {self.num_entities}]")
            relations = self.triples[:, 1]
            if relations.min() < 0 or relations.max() >= self.num_relations:
                raise ValueError(
                    f"triple relations must lie in [0, {self.num_relations})")
        if self.relation_names and len(self.relation_names) != self.num_relations:
            raise ValueError(
                f"{len(self.relation_names)} relation names for "
                f"{self.num_relations} relations")

    @property
    def num_triples(self) -> int:
        """Number of stored triples."""
        return len(self.triples)

    @property
    def num_attribute_entities(self) -> int:
        """Entities that are not catalog items (concept-derived attributes)."""
        return self.num_entities - self.num_items

    def is_item(self, entity: np.ndarray | int) -> np.ndarray | bool:
        """Whether 1-indexed entity id(s) refer to catalog items."""
        entity = np.asarray(entity)
        result = (entity >= 1) & (entity <= self.num_items)
        return bool(result) if result.ndim == 0 else result

    def entity_degree(self) -> np.ndarray:
        """Triple count per entity id (index 0 = padding, always 0)."""
        degree = np.zeros(self.num_entities + 1, dtype=np.int64)
        if len(self.triples):
            np.add.at(degree, self.triples[:, 0], 1)
            np.add.at(degree, self.triples[:, 2], 1)
        degree[0] = 0
        return degree

    def triples_of_item(self, item: int) -> np.ndarray:
        """All triples whose head or tail is the given item id."""
        if not 1 <= item <= self.num_items:
            raise IndexError(f"item id {item} out of range [1, {self.num_items}]")
        mask = (self.triples[:, 0] == item) | (self.triples[:, 2] == item)
        return self.triples[mask]


def graph_statistics(knowledge_graph: ItemKnowledgeGraph | None) -> GraphStatistics:
    """Summarise a dataset's (possibly absent) item knowledge graph."""
    if knowledge_graph is None:
        return GraphStatistics(num_entities=0, num_relations=0,
                               num_triples=0, triples_per_item=0.0)
    num_triples = knowledge_graph.num_triples
    per_item = (num_triples / knowledge_graph.num_items
                if knowledge_graph.num_items else 0.0)
    return GraphStatistics(num_entities=knowledge_graph.num_entities,
                           num_relations=knowledge_graph.num_relations,
                           num_triples=num_triples,
                           triples_per_item=per_item)
