"""Int8 quantized serving: codecs, engine accuracy, artifact round-trip.

Three layers of guarantees:

- the per-channel codec round-trips within its theoretical step size;
- a :class:`~repro.serve.QuantizedEngine` agrees with the exact engine's
  top-10 on at least 80% of items per request (in practice overlap is
  ~99%; the floor leaves room for tie shuffles);
- a quantized artifact survives the full production path: transparent
  ``load_artifact`` decode, ``engine_for_artifact`` dispatch, and a
  canary-validated :meth:`~repro.serve.ServingCluster.swap` onto a live
  cluster.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ISRecConfig
from repro.core.isrec import ISRec
from repro.serve import (
    ClusterConfig,
    QuantizedEngine,
    RecommendationEngine,
    ServingCluster,
    dequantize,
    engine_for_artifact,
    export_artifact,
    load_artifact,
    quantize_per_channel,
    read_quantization,
)
from repro.utils import set_seed

#: Minimum per-request fraction of the exact top-10 a quantized engine
#: must reproduce (documented in docs/performance.md).
MIN_TOPK_OVERLAP = 0.8


@pytest.fixture(scope="module")
def quantized_artifact(tiny_dataset, tmp_path_factory):
    """The conftest model frozen with ``quantize="int8"``."""
    set_seed(99)
    model = ISRec.from_dataset(tiny_dataset, max_len=12,
                               config=ISRecConfig(dim=16))
    return export_artifact(
        model, tmp_path_factory.mktemp("quantized") / "isrec_q8.npz",
        quantize="int8")


class TestCodec:
    def test_round_trip_within_step(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(50, 16)).astype(np.float32)
        q, scales = quantize_per_channel(weights)
        assert q.dtype == np.int8
        assert scales.shape == (50,)
        decoded = dequantize(q, scales)
        # Symmetric rounding error is bounded by half a quantization step
        # (plus float32 round-off in the encode/decode arithmetic).
        error = np.abs(decoded - weights)
        bound = scales[:, None] * 0.5 * (1 + 1e-4) + 1e-7
        assert np.all(error < bound), float((error / bound).max())

    def test_zero_channel_exact(self):
        weights = np.zeros((3, 4), dtype=np.float32)
        weights[1] = 1.0
        q, scales = quantize_per_channel(weights)
        assert np.all(dequantize(q, scales)[0] == 0.0)
        assert np.all(dequantize(q, scales)[2] == 0.0)

    def test_outlier_row_does_not_crush_others(self):
        weights = np.ones((2, 8), dtype=np.float32) * 0.01
        weights[1] *= 1000.0  # per-tensor scaling would zero row 0
        q, scales = quantize_per_channel(weights)
        decoded = dequantize(q, scales)
        np.testing.assert_allclose(decoded[0], weights[0], rtol=0.01)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            quantize_per_channel(np.float32(3.0))


class TestQuantizedEngine:
    def test_topk_overlap_vs_exact(self, frozen_model, quantized_artifact,
                                   tiny_split):
        exact = RecommendationEngine(frozen_model, cache_size=64)
        quant = engine_for_artifact(quantized_artifact, cache_size=64)
        assert isinstance(quant, QuantizedEngine)
        overlaps = []
        for user in range(tiny_split.num_users):
            history = np.asarray(tiny_split.test_input(user))
            exact.set_history(user, history)
            quant.set_history(user, history)
            top_exact = {item for item, _score in exact.recommend(user, k=10)}
            top_quant = {item for item, _score in quant.recommend(user, k=10)}
            assert len(top_quant) == len(top_exact)
            overlaps.append(len(top_exact & top_quant) / max(len(top_exact), 1))
        assert min(overlaps) >= MIN_TOPK_OVERLAP, overlaps

    def test_scores_descending_and_finite(self, quantized_artifact):
        engine = engine_for_artifact(quantized_artifact)
        engine.set_history(0, [1, 2, 3])
        results = engine.recommend(0, k=10)
        scores = [score for _item, score in results]
        assert scores == sorted(scores, reverse=True)
        assert all(np.isfinite(score) for score in scores)
        assert all(item != 0 for item, _score in results)

    def test_filter_seen(self, quantized_artifact):
        engine = engine_for_artifact(quantized_artifact)
        engine.set_history(5, [1, 2, 3])
        items = {item for item, _score in engine.recommend(5, k=10)}
        assert not items & {1, 2, 3}

    def test_state_cache_is_half_precision(self, quantized_artifact):
        engine = engine_for_artifact(quantized_artifact)
        engine.set_history(7, [4, 5])
        engine.recommend(7, k=5)
        assert engine._states[7].dtype == np.float16

    def test_quantization_info(self, quantized_artifact):
        engine = engine_for_artifact(quantized_artifact)
        info = engine.quantization_info()
        assert info["scheme"] == "int8"
        assert info["compression"] > 3.0

    def test_float_table_rejected(self, frozen_model):
        weights = frozen_model.item_embedding.weight.data
        with pytest.raises(TypeError, match="int8"):
            QuantizedEngine(frozen_model, weights, np.ones(len(weights)))


class TestArtifactRoundTrip:
    def test_quantized_artifact_smaller(self, artifact_path, quantized_artifact):
        # ISRec artifacts carry unquantized constants (concept matrix,
        # adjacency), so the whole-file win is smaller than the 4x table win.
        assert quantized_artifact.stat().st_size < artifact_path.stat().st_size * 0.75

    def test_load_artifact_transparent_decode(self, frozen_model,
                                              quantized_artifact):
        decoded = load_artifact(quantized_artifact)
        exact = frozen_model.item_embedding.weight.data
        got = decoded.item_embedding.weight.data
        assert got.dtype == np.float32
        scale = float(np.abs(exact).max())
        np.testing.assert_allclose(got, exact, atol=scale / 127.0)

    def test_read_quantization_payloads(self, quantized_artifact, artifact_path):
        payloads = read_quantization(quantized_artifact)
        assert any(name.endswith("item_embedding.weight") for name in payloads)
        q, scales = next(iter(payloads.values()))
        assert q.dtype == np.int8
        assert scales.dtype == np.float32
        assert read_quantization(artifact_path) == {}

    def test_unknown_scheme_rejected(self, frozen_model, tmp_path):
        with pytest.raises(ValueError, match="unknown quantization scheme"):
            export_artifact(frozen_model, tmp_path / "bad.npz", quantize="int4")

    def test_plain_artifact_gets_plain_engine(self, artifact_path):
        engine = engine_for_artifact(artifact_path)
        assert type(engine) is RecommendationEngine


class TestClusterSwap:
    def test_swap_to_quantized_artifact(self, artifact_path, quantized_artifact,
                                        tiny_split):
        config = ClusterConfig(world=2, default_deadline_s=15.0)
        with ServingCluster(artifact_path, config) as cluster:
            for user in range(tiny_split.num_users):
                cluster.set_history(user,
                                    np.asarray(tiny_split.test_input(user)))
            before = cluster.recommend(1, k=10)
            report = cluster.swap(quantized_artifact)
            assert report["workers"] == 2
            after = cluster.recommend(1, k=10)
            assert not after.degraded
            top_before = {item for item, _score in before.items}
            top_after = {item for item, _score in after.items}
            overlap = len(top_before & top_after) / max(len(top_before), 1)
            assert overlap >= MIN_TOPK_OVERLAP

    def test_boot_directly_from_quantized_artifact(self, quantized_artifact):
        config = ClusterConfig(world=1, default_deadline_s=15.0)
        with ServingCluster(quantized_artifact, config) as cluster:
            cluster.set_history(3, [1, 2, 3])
            response = cluster.recommend(3, k=5)
            assert len(response.items) == 5
            assert not response.degraded
