"""Dataset persistence round-trips."""

import json

import numpy as np
import pytest

from repro.data.io import load_dataset_file, save_dataset


class TestDatasetIO:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        assert path.suffix == ".npz"
        loaded = load_dataset_file(path)

        assert loaded.name == tiny_dataset.name
        assert loaded.num_items == tiny_dataset.num_items
        assert loaded.num_users == tiny_dataset.num_users
        for a, b in zip(loaded.sequences, tiny_dataset.sequences):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.item_concepts,
                                      tiny_dataset.item_concepts)
        assert loaded.knowledge_graph is None
        np.testing.assert_array_equal(loaded.concept_space.adjacency,
                                      tiny_dataset.concept_space.adjacency)
        assert loaded.concept_space.names == tiny_dataset.concept_space.names
        assert loaded.item_titles == tiny_dataset.item_titles

    def test_loaded_graph_matches(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        loaded = load_dataset_file(path)
        assert (loaded.concept_space.graph.number_of_edges()
                == tiny_dataset.concept_space.graph.number_of_edges())

    def test_statistics_preserved(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        loaded = load_dataset_file(path)
        assert loaded.statistics() == tiny_dataset.statistics()
        assert loaded.concept_statistics() == tiny_dataset.concept_statistics()

    def test_archive_with_social_graph_keys_still_loads(self, tiny_dataset,
                                                        tmp_path):
        """Archives of the same format version once also carried a user
        social graph; the loader ignores it."""
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["social_graph"] = {"num_users": tiny_dataset.num_users}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
        arrays["social_edges"] = np.array([[0, 1], [1, 2]], dtype=np.int64)
        np.savez(path, **arrays)

        loaded = load_dataset_file(path)
        assert loaded.num_users == tiny_dataset.num_users
        for a, b in zip(loaded.sequences, tiny_dataset.sequences, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.item_concepts,
                                      tiny_dataset.item_concepts)
        assert loaded.knowledge_graph is None

    def test_version_check(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["version"] = 999
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError):
            load_dataset_file(path)
