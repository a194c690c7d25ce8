"""Recommender interfaces shared by ISRec and every baseline.

Two layers of abstraction:

- :class:`Recommender` — the minimal protocol the evaluator needs:
  ``fit(dataset, split)`` and ``score(users, inputs, candidates)``.
- :class:`SequenceRecommender` — shared machinery for neural next-item
  models (SASRec, GRU4Rec, Caser, ISRec, ...): next-item cross-entropy
  training over the real positions (Eq. 13), candidate scoring through the item
  embedding (Eq. 12), and a `fit` that wires the generic
  :class:`~repro.train.Trainer` with validation-HR@10 early stopping.
"""

from __future__ import annotations

import abc
import copy
import functools

import numpy as np

from repro import obs
from repro.data.batching import next_item_batches
from repro.data.dataset import InteractionDataset
from repro.data.preprocessing import LeaveOneOutSplit
from repro.eval.evaluator import RankingEvaluator
from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor import fused
from repro.tensor.tensor import Tensor, no_grad
from repro.train.trainer import TrainConfig, Trainer, TrainingHistory


def validation_evaluator(dataset: InteractionDataset, split: LeaveOneOutSplit,
                         seed: int, num_negatives: int = 100) -> RankingEvaluator:
    """Evaluator for fit-time early stopping.

    Mirrors the paper's protocol (100 popularity-sampled negatives) but
    clamps the negative count to what the item universe can supply, so tiny
    datasets (tests, demos) remain trainable.
    """
    max_seen = max(len(set(seq.tolist())) for seq in split.full_sequences)
    available = max(dataset.num_items - max_seen, 1)
    return RankingEvaluator(split, dataset.num_items,
                            num_negatives=min(num_negatives, available),
                            seed=seed, popularity=dataset.item_popularity())


#: ``rows`` selector of the final position for :meth:`SequenceRecommender.output_at`.
LAST_POSITION = (slice(None), -1)


@functools.lru_cache(maxsize=16)
def _padding_suppression(ndim: int, vocabulary: int, dtype_name: str) -> Tensor:
    """Constant ``(1, ..., V)`` tensor adding ``-1e9`` to the padding column.

    Cached so every training step reuses one buffer instead of rebuilding a
    vocabulary-sized constant per batch.
    """
    suppress = np.zeros((1,) * (ndim - 1) + (vocabulary,),
                        dtype=np.dtype(dtype_name))
    suppress[..., 0] = -1e9
    suppress.setflags(write=False)
    return Tensor(suppress)


class Recommender(abc.ABC):
    """Protocol for anything the :class:`RankingEvaluator` can evaluate."""

    name: str = "recommender"
    max_len: int = 20

    @abc.abstractmethod
    def fit(self, dataset: InteractionDataset, split: LeaveOneOutSplit,
            train_config: TrainConfig | None = None) -> TrainingHistory | None:
        """Train on ``split.train_sequences()`` of ``dataset``."""

    @abc.abstractmethod
    def score(self, users: np.ndarray, inputs: np.ndarray,
              candidates: np.ndarray) -> np.ndarray:
        """Score ``(batch, C)`` candidate items given left-padded histories."""


class SequenceRecommender(Module, Recommender):
    """Base class for neural next-item models trained with Eq. (13).

    Sub-classes implement :meth:`sequence_output` mapping padded item-id
    inputs ``(batch, T)`` to hidden states ``(batch, T, dim)``; everything
    else — training loss, batching, fitting, candidate scoring — is shared.

    The item embedding table used for scoring must be exposed as
    ``self.item_embedding`` (an :class:`~repro.nn.Embedding` with
    ``num_items + 1`` rows; row 0 is padding and is never recommended).
    """

    #: Seed offset decorrelating the auxiliary-loss RNG stream from the
    #: trainer's batch-order RNG (both derive from ``TrainConfig.seed``).
    CONTRASTIVE_SEED_OFFSET = 0x1C5EC

    def __init__(self, num_items: int, dim: int, max_len: int):
        super().__init__()
        if num_items <= 0 or dim <= 0 or max_len <= 0:
            raise ValueError("num_items, dim, and max_len must be positive")
        self.num_items = num_items
        self.dim = dim
        self.max_len = max_len
        self._train_sequences: list[np.ndarray] | None = None
        self._train_batch_size = 64
        self._contrastive_weight = 0.0
        self._contrastive_temperature = 0.2
        self._contrastive_rng: np.random.Generator | None = None

    # ------------------------------------------------------------------
    # To implement in sub-classes
    # ------------------------------------------------------------------
    def sequence_output(self, inputs: np.ndarray) -> Tensor:
        """Hidden state at every position, ``(batch, T, dim)``."""
        raise NotImplementedError

    def output_at(self, inputs: np.ndarray, rows) -> Tensor:
        """Hidden state at the positions ``rows`` selects from ``(batch, T)``.

        ``rows`` is a boolean ``(batch, T)`` mask (the training loss reads
        the non-padding positions, ``(n, dim)``) or ``LAST_POSITION``
        (``(batch, dim)``).  The default indexes :meth:`sequence_output`; a
        model whose per-position work after the encoder is costly (ISRec's
        intent head) overrides it to do that work at ``rows`` alone.
        """
        return self.sequence_output(inputs)[rows]

    def last_output(self, inputs: np.ndarray) -> Tensor:
        """Hidden state at the final position, ``(batch, dim)``.

        Scoring, serving and the contrastive anchors read only this row.
        """
        return self.output_at(inputs, LAST_POSITION)

    # ------------------------------------------------------------------
    # Serving export protocol (repro.serve)
    # ------------------------------------------------------------------
    def export_config(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(config, constants)`` sufficient to rebuild this architecture.

        ``config`` must be JSON-serializable constructor settings;
        ``constants`` holds non-trainable arrays the constructor needs
        (e.g. the item-concept matrix).  Together with the ``state_dict``
        this is everything :mod:`repro.serve` freezes into an inference
        artifact.  Sub-classes that want to be servable override this and
        :meth:`from_export_config`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the serving export "
            f"protocol (export_config/from_export_config)")

    @classmethod
    def from_export_config(cls, config: dict,
                           constants: dict[str, np.ndarray]) -> "SequenceRecommender":
        """Rebuild an untrained instance from :meth:`export_config` output."""
        raise NotImplementedError(
            f"{cls.__name__} does not implement the serving export protocol "
            f"(export_config/from_export_config)")

    # ------------------------------------------------------------------
    # Training protocol consumed by the Trainer
    # ------------------------------------------------------------------
    def training_batches(self, rng: np.random.Generator):
        """Yield training batches for one epoch (Trainer protocol)."""
        if self._train_sequences is None:
            raise RuntimeError("call fit() first (training sequences not set)")
        return next_item_batches(self._train_sequences, self.max_len,
                                 self._train_batch_size, rng)

    def all_item_logits(self, states: Tensor) -> Tensor:
        """Scores over the full vocabulary, padding column suppressed."""
        logits = states @ self.item_embedding.weight.T
        vocabulary = self.item_embedding.weight.shape[0]
        suppress = _padding_suppression(logits.ndim, vocabulary,
                                        logits.data.dtype.name)
        return logits + suppress

    def training_loss(self, batch) -> Tensor:
        """Next-item cross-entropy over the real positions (Eq. 13).

        Padding positions weigh 0 in Eq. (13), so the output, the ``(n, V)``
        logits and the loss are computed at the ``n`` non-padding positions
        only (:meth:`output_at`); the mean is the same as over the full
        ``(B, T)`` grid.  The padding-column ban of ``all_item_logits`` is
        folded into the cross-entropy kernel (``suppress_index=0``): one
        logsumexp forward and one ``softmax - one_hot`` backward over the
        raw logits.
        """
        _users, inputs, targets, mask = batch
        rows = np.asarray(mask) > 0
        if not rows.any():
            raise ValueError("cross_entropy mask excludes every position")
        states = self.output_at(inputs, rows)
        logits = states @ self.item_embedding.weight.T
        loss = fused.cross_entropy(logits, np.asarray(targets)[rows],
                                   suppress_index=0)
        if self._contrastive_weight > 0.0:
            loss = loss + self.contrastive_loss(inputs) * self._contrastive_weight
        return loss

    # ------------------------------------------------------------------
    # Intent-contrastive auxiliary objective (docs/training-objectives.md)
    # ------------------------------------------------------------------
    def configure_contrastive(self, config: TrainConfig) -> None:
        """Arm (or disarm) the contrastive auxiliary loss for a fit.

        Called by :meth:`fit`; exposed so tests and custom training loops
        can enable the objective without the full fit plumbing.  The
        auxiliary RNG is seeded from ``config.seed`` plus a fixed offset so
        its stream never aliases the trainer's batch-order stream.
        """
        self._contrastive_weight = float(config.contrastive_weight)
        self._contrastive_temperature = float(config.contrastive_temperature)
        self._contrastive_rng = (
            np.random.default_rng(self.CONTRASTIVE_SEED_OFFSET + config.seed)
            if self._contrastive_weight > 0.0 else None)

    def aux_rng_state(self):
        """Auxiliary-loss RNG state for checkpoints (``None`` when disarmed)."""
        if self._contrastive_rng is None:
            return None
        return copy.deepcopy(self._contrastive_rng.bit_generator.state)

    def set_aux_rng_state(self, state) -> None:
        """Restore the auxiliary-loss RNG stream from a checkpoint."""
        if state is None:
            return
        if self._contrastive_rng is None:
            self._contrastive_rng = np.random.default_rng(0)
        self._contrastive_rng.bit_generator.state = copy.deepcopy(state)

    def contrastive_loss(self, inputs: np.ndarray) -> Tensor:
        """Intent-contrastive InfoNCE over two prefix crops of each history.

        Two independent crops of the same user's history share the latent
        intent that generated it (the ICSRec cross-subsequence argument), so
        their final-position intent representations form a positive pair and
        every other sequence in the batch supplies in-batch negatives.
        """
        if self._contrastive_rng is None:
            raise RuntimeError(
                "contrastive loss is disarmed; call fit() (or "
                "configure_contrastive) with contrastive_weight > 0 first")
        anchors = self.last_output(self._crop_view(inputs))
        positives = self.last_output(self._crop_view(inputs))
        return F.info_nce(anchors, positives,
                          temperature=self._contrastive_temperature)

    def _crop_view(self, inputs: np.ndarray,
                   min_keep_fraction: float = 0.6) -> np.ndarray:
        """One prefix-crop view of a left-padded batch, re-padded left.

        Keeps the first ``c`` real items of each row with ``c`` drawn
        uniformly from ``[ceil(f * n), n]`` — prefixes, so the crop never
        leaks the items the next-item loss is predicting at the tail.
        """
        rng = self._contrastive_rng
        inputs = np.asarray(inputs)
        width = inputs.shape[1]
        lengths = np.maximum((inputs > 0).sum(axis=1), 1)
        low = np.maximum(
            np.ceil(lengths * min_keep_fraction).astype(np.int64), 1)
        keep = rng.integers(low, lengths + 1)
        view = np.zeros_like(inputs)
        for row in range(inputs.shape[0]):
            start = width - int(lengths[row])
            kept = int(keep[row])
            view[row, width - kept:] = inputs[row, start:start + kept]
        return view

    # ------------------------------------------------------------------
    # Recommender protocol
    # ------------------------------------------------------------------
    def fit(self, dataset: InteractionDataset, split: LeaveOneOutSplit,
            train_config: TrainConfig | None = None) -> TrainingHistory:
        """Train with validation-HR@10 early stopping."""
        config = train_config or TrainConfig()
        self._train_sequences = split.train_sequences()
        self._train_batch_size = config.batch_size
        self.configure_contrastive(config)
        evaluator = validation_evaluator(dataset, split, config.seed)
        validate = lambda: evaluator.evaluate(self, stage="valid").hr10
        # With a checkpoint directory configured, fitting is crash-safe by
        # default: an interrupted run picks up from its newest valid epoch
        # checkpoint (an empty/missing directory just starts fresh).
        resume = config.checkpoint_dir if config.checkpoint_dir else None
        if config.num_workers > 1:
            # Deferred import: repro.parallel depends on repro.train.
            from repro.parallel.trainer import DataParallelTrainer
            trainer = DataParallelTrainer(self, config, validate=validate)
        else:
            trainer = Trainer(self, config, validate=validate)
        obs.emit("fit_start", model=self.name, epochs=config.epochs,
                 batch_size=config.batch_size, workers=config.num_workers,
                 num_sequences=len(self._train_sequences))
        with obs.profile("fit"), obs.timer("fit_seconds") as fit_timer:
            history = trainer.fit(resume_from=resume)
        obs.emit("fit_end", model=self.name, epochs_run=history.epochs_run,
                 best_epoch=history.best_epoch,
                 stopped_early=history.stopped_early,
                 seconds=round(fit_timer.elapsed, 6))
        return history

    def score(self, users: np.ndarray, inputs: np.ndarray,
              candidates: np.ndarray) -> np.ndarray:
        """Score candidates as dot products with the final state (Eq. 12)."""
        with no_grad():
            last = self.last_output(inputs)  # (batch, dim)
            embeddings = self.item_embedding(candidates)  # (batch, C, dim)
            scores = (embeddings @ last.reshape(last.shape[0], last.shape[1], 1))
        return scores.data[:, :, 0].astype(np.float64)
