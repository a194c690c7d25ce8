"""Persist generated datasets to disk (``.npz``) and load them back.

Regenerating a profile is deterministic but not instant; persisting lets a
benchmark suite or a downstream user pin an exact dataset file.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import numpy as np

from repro.data.concepts import ConceptSpace
from repro.data.dataset import InteractionDataset
from repro.data.graphs import ItemKnowledgeGraph

_FORMAT_VERSION = 1


def save_dataset(dataset: InteractionDataset, path: str | Path) -> Path:
    """Write ``dataset`` to an ``.npz`` archive; returns the path written."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    lengths = np.asarray([len(seq) for seq in dataset.sequences], dtype=np.int64)
    flat = (np.concatenate(dataset.sequences)
            if dataset.sequences else np.empty(0, dtype=np.int64))
    meta_payload = {
        "version": _FORMAT_VERSION,
        "name": dataset.name,
        "num_items": dataset.num_items,
        "concept_names": dataset.concept_space.names,
        "community_names": dataset.concept_space.community_names,
        "item_titles": dataset.item_titles,
    }
    if dataset.knowledge_graph is not None:
        kg = dataset.knowledge_graph
        meta_payload["knowledge_graph"] = {
            "num_entities": kg.num_entities,
            "num_relations": kg.num_relations,
            "relation_names": list(kg.relation_names),
            "entity_names": list(kg.entity_names),
        }
    meta = json.dumps(meta_payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = dict(
        meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
        sequence_lengths=lengths,
        interactions=flat,
        item_concepts=dataset.item_concepts,
        concept_adjacency=dataset.concept_space.adjacency,
        community_of=dataset.concept_space.community_of,
    )
    if dataset.session_ids is not None:
        # Optional key: files written without sessions stay loadable and
        # pre-session files simply lack it.
        arrays["session_ids_flat"] = (
            np.concatenate(dataset.session_ids)
            if dataset.session_ids else np.empty(0, dtype=np.int64))
    # Same optional-key pattern for the structural side information.
    if dataset.knowledge_graph is not None:
        arrays["kg_triples"] = dataset.knowledge_graph.triples
    np.savez(path, **arrays)
    return path


def load_dataset_file(path: str | Path) -> InteractionDataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    path = Path(path)
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset file version {meta.get('version')!r}"
            )
        lengths = archive["sequence_lengths"]
        flat = archive["interactions"]
        item_concepts = archive["item_concepts"]
        adjacency = archive["concept_adjacency"]
        community_of = archive["community_of"]
        sessions_flat = (archive["session_ids_flat"]
                         if "session_ids_flat" in archive else None)
        kg_triples = (archive["kg_triples"].copy()
                      if "kg_triples" in archive else None)

    sequences: list[np.ndarray] = []
    session_ids: list[np.ndarray] | None = (
        [] if sessions_flat is not None else None)
    cursor = 0
    for length in lengths:
        sequences.append(flat[cursor:cursor + int(length)].copy())
        if session_ids is not None:
            session_ids.append(sessions_flat[cursor:cursor + int(length)].copy())
        cursor += int(length)

    graph = nx.Graph()
    for index, name in enumerate(meta["concept_names"]):
        graph.add_node(index, name=name, community=int(community_of[index]))
    rows, cols = np.nonzero(np.triu(adjacency))
    graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    space = ConceptSpace(
        names=list(meta["concept_names"]),
        community_of=community_of,
        community_names=list(meta["community_names"]),
        adjacency=adjacency.astype(np.float32),
        graph=graph,
    )
    knowledge_graph = None
    if kg_triples is not None:
        kg_meta = meta.get("knowledge_graph", {})
        knowledge_graph = ItemKnowledgeGraph(
            triples=kg_triples,
            num_items=int(meta["num_items"]),
            num_entities=int(kg_meta["num_entities"]),
            num_relations=int(kg_meta["num_relations"]),
            relation_names=list(kg_meta.get("relation_names", [])),
            entity_names=list(kg_meta.get("entity_names", [])),
        )
    return InteractionDataset(
        name=meta["name"],
        sequences=sequences,
        num_items=int(meta["num_items"]),
        item_concepts=item_concepts.astype(np.float32),
        concept_space=space,
        item_titles=list(meta["item_titles"]),
        session_ids=session_ids,
        knowledge_graph=knowledge_graph,
    )
