"""KG emission: simulator invariants, dataset plumbing, persistence."""

import numpy as np
import pytest

from repro.data import (
    graph_profiles,
    load_dataset,
    load_dataset_file,
    save_dataset,
)
from repro.data.concepts import build_concept_space
from repro.data.dataset import InteractionDataset
from repro.data.graphs import ItemKnowledgeGraph
from repro.data.registry import default_max_len
from repro.data.synthetic import (
    IntentDrivenSimulator,
    SimulatorConfig,
    generate_dataset,
)


def graph_config(**overrides):
    defaults = dict(
        name="graphs", domain="beauty", num_users=80, num_items=60,
        num_concepts=24, avg_length=10.0, max_length=40, concepts_per_item=4.0,
        true_lambda=2, intent_match_weight=8.0, popularity_weight=0.3,
        noise_scale=0.5, transition_prob=0.3, seed=11,
        kg_relations=5, kg_triples_per_item=3.0, kg_noise=0.05,
    )
    defaults.update(overrides)
    return SimulatorConfig(**defaults)


class TestConfigValidation:
    def test_kg_relations_floor(self):
        with pytest.raises(ValueError):
            graph_config(kg_relations=0)

    def test_kg_triples_per_item_positive(self):
        with pytest.raises(ValueError):
            graph_config(kg_triples_per_item=0.0)

    def test_kg_noise_probability_range(self):
        with pytest.raises(ValueError):
            graph_config(kg_noise=1.5)


class TestSimulatorInvariants:
    @pytest.fixture(scope="class")
    def simulator(self):
        simulator = IntentDrivenSimulator(graph_config())
        simulator.dataset = simulator.generate()
        return simulator

    def test_dataset_carries_graphs(self, simulator):
        dataset = simulator.dataset
        assert dataset.has_knowledge_graph
        assert dataset.knowledge_graph.num_triples > 0

    def test_entity_space_layout(self, simulator):
        kg = simulator.dataset.knowledge_graph
        assert kg.num_items == simulator.dataset.num_items
        assert kg.num_entities == (simulator.dataset.num_items
                                   + simulator.dataset.concept_space.num_concepts)
        assert kg.num_attribute_entities == \
            simulator.dataset.concept_space.num_concepts

    def test_triples_reference_only_live_entities(self):
        """After 5-core filtering every surviving triple must point at a
        live (remapped) entity — the dataclass validates bounds, but this
        pins the stronger property that every *dropped* raw entity's
        triples were dropped with it."""
        # A sparse world (many items, few interactions) so 5-core drops some.
        simulator = IntentDrivenSimulator(graph_config(
            num_users=50, num_items=150, avg_length=6.0, seed=3))
        simulator.dataset = simulator.generate()
        truth = simulator.ground_truth
        kg = simulator.dataset.knowledge_graph
        raw_items = simulator.config.num_items
        item_map = simulator._item_map
        # Raw items that the 5-core dropped (item_map == 0).
        dropped = set(np.flatnonzero(item_map[1:] == 0) + 1)
        assert dropped, "test world should drop at least one item"
        # Surviving triple count = raw triples whose endpoints all live.
        item_alive = item_map[1:] != 0
        concept_alive = truth.concept_index_map >= 0

        def alive(raw_entity):
            if raw_entity <= raw_items:
                return item_alive[raw_entity - 1]
            return concept_alive[raw_entity - raw_items - 1]

        survivors = sum(
            1 for head, _, tail in truth.kg_triples_raw
            if alive(head) and alive(tail))
        # Remapping can merge duplicates, so <=; but nothing extra appears.
        assert 0 < kg.num_triples <= survivors

    def test_entity_degrees_cover_noise_free_items(self, simulator):
        """The attribute layer gives (almost) every item at least one
        triple; sanity-check overall connectivity."""
        degree = simulator.dataset.knowledge_graph.entity_degree()
        assert degree[0] == 0
        items = degree[1:simulator.dataset.num_items + 1]
        assert (items > 0).mean() > 0.8

    def test_bit_reproducible_per_seed(self):
        first = generate_dataset(graph_config())
        second = generate_dataset(graph_config())
        np.testing.assert_array_equal(first.knowledge_graph.triples,
                                      second.knowledge_graph.triples)

    def test_legacy_generation_bit_identical(self):
        """KG emission must not perturb the interaction stream: the sampler
        draws from a dedicated RNG stream, so a graph-bearing world's
        sequences equal the legacy (graph-off) world's exactly."""
        legacy = generate_dataset(graph_config(kg_relations=None))
        graphed = generate_dataset(graph_config())
        assert legacy.knowledge_graph is None
        assert not legacy.has_knowledge_graph
        assert len(legacy.sequences) == len(graphed.sequences)
        for a, b in zip(legacy.sequences, graphed.sequences):
            np.testing.assert_array_equal(a, b)


class TestGraphContainers:
    def test_triples_shape_rejected(self):
        with pytest.raises(ValueError, match="head, relation, tail"):
            ItemKnowledgeGraph(triples=np.zeros((2, 2), dtype=np.int64),
                               num_items=3, num_entities=5, num_relations=2)

    def test_entity_bounds_rejected(self):
        with pytest.raises(ValueError, match="entities"):
            ItemKnowledgeGraph(triples=np.array([[1, 0, 9]]),
                               num_items=3, num_entities=5, num_relations=2)

    def test_relation_bounds_rejected(self):
        with pytest.raises(ValueError, match="relations"):
            ItemKnowledgeGraph(triples=np.array([[1, 4, 2]]),
                               num_items=3, num_entities=5, num_relations=2)

    def test_relation_name_count_rejected(self):
        with pytest.raises(ValueError, match="relation names"):
            ItemKnowledgeGraph(triples=np.array([[1, 0, 2]]),
                               num_items=3, num_entities=5, num_relations=2,
                               relation_names=["only_one"])

    def test_is_item_split(self):
        kg = ItemKnowledgeGraph(triples=np.array([[1, 0, 4]]),
                                num_items=3, num_entities=5, num_relations=1)
        assert kg.is_item(2)
        assert not kg.is_item(4)
        np.testing.assert_array_equal(
            kg.is_item(np.array([1, 3, 4, 5])), [True, True, False, False])

    def test_triples_of_item(self):
        kg = ItemKnowledgeGraph(
            triples=np.array([[1, 0, 4], [2, 0, 4], [1, 0, 5]]),
            num_items=3, num_entities=5, num_relations=1)
        assert len(kg.triples_of_item(1)) == 2
        with pytest.raises(IndexError):
            kg.triples_of_item(4)


class TestDatasetValidation:
    def _dataset(self, **extra):
        space = build_concept_space("beauty", 5, np.random.default_rng(0))
        return InteractionDataset(
            name="unit", sequences=[np.array([1, 2, 3], dtype=np.int64)],
            num_items=3, item_concepts=np.zeros((4, 5), dtype=np.float32),
            concept_space=space, **extra)

    def test_kg_item_count_mismatch_rejected(self):
        kg = ItemKnowledgeGraph(triples=np.empty((0, 3), dtype=np.int64),
                                num_items=9, num_entities=9, num_relations=1)
        with pytest.raises(ValueError, match="knowledge_graph"):
            self._dataset(knowledge_graph=kg)

    def test_statistics_without_graphs(self):
        stats = self._dataset().graph_statistics()
        assert stats.num_triples == 0
        assert stats.num_entities == 0
        assert stats.triples_per_item == 0.0

    def test_statistics_with_graphs(self):
        kg = ItemKnowledgeGraph(triples=np.array([[1, 0, 4], [2, 0, 5]]),
                                num_items=3, num_entities=5, num_relations=1)
        dataset = self._dataset(knowledge_graph=kg)
        stats = dataset.graph_statistics()
        assert stats.num_triples == 2
        assert stats.triples_per_item == pytest.approx(2 / 3)


class TestPersistenceAndRegistry:
    def test_io_round_trip_preserves_graphs(self, tmp_path):
        dataset = generate_dataset(graph_config())
        path = tmp_path / "graphs.npz"
        save_dataset(dataset, path)
        loaded = load_dataset_file(path)
        assert loaded.has_knowledge_graph
        np.testing.assert_array_equal(loaded.knowledge_graph.triples,
                                      dataset.knowledge_graph.triples)
        kg, back = dataset.knowledge_graph, loaded.knowledge_graph
        assert back.num_entities == kg.num_entities
        assert back.num_relations == kg.num_relations
        assert back.relation_names == kg.relation_names
        assert back.entity_names == kg.entity_names

    def test_io_round_trip_without_graphs(self, tmp_path, tiny_dataset):
        path = tmp_path / "plain.npz"
        save_dataset(tiny_dataset, path)
        loaded = load_dataset_file(path)
        assert loaded.knowledge_graph is None

    def test_graph_profiles_cover_every_base(self):
        names = graph_profiles()
        assert "beauty-kg" in names
        assert "ml-1m-kg-dense" in names
        assert all(name.endswith(("-kg", "-kg-dense")) for name in names)

    def test_registry_loads_graph_variant(self):
        plain = load_dataset("beauty", scale=0.3)
        graphed = load_dataset("beauty-kg", scale=0.3)
        assert plain.knowledge_graph is None
        assert graphed.has_knowledge_graph
        # Separately cached worlds; graph emission leaves sequences alone.
        assert graphed is load_dataset("beauty-kg", scale=0.3)
        assert len(plain.sequences) == len(graphed.sequences)
        for a, b in zip(plain.sequences, graphed.sequences):
            np.testing.assert_array_equal(a, b)

    def test_dense_variant_is_denser(self):
        base = load_dataset("beauty-kg", scale=0.3)
        dense = load_dataset("beauty-kg-dense", scale=0.3)
        assert dense.knowledge_graph.num_triples > \
            base.knowledge_graph.num_triples

    def test_unknown_suffix_rejected(self):
        with pytest.raises(KeyError, match="graph variant"):
            load_dataset("beauty-kg-bogus")

    def test_default_max_len_resolves_suffix(self):
        assert default_max_len("ml-1m-kg") == default_max_len("ml-1m")
        assert default_max_len("beauty-kg-dense") == default_max_len("beauty")
