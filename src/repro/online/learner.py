"""Incremental fine-tuning from the serving event stream, with gated rollout.

:class:`OnlineLearner` closes the train → serve → observe loop
(``docs/online-learning.md``): it drains the
:class:`~repro.online.EventLog` the serving tier feeds, folds fresh
interactions into its own history store, runs a bounded number of
optimisation steps per *round* on the standard fused
``training_loss`` path (next-item cross-entropy over the touched users'
updated histories), and periodically exports a checksummed
``inference_artifact`` that is rolled into the live
:class:`~repro.serve.ServingCluster` through the canary-first
:meth:`~repro.serve.ServingCluster.swap` — but only after the candidate
survives :class:`~repro.online.ShadowEvaluator` gating
(:class:`~repro.online.ShadowRegression` otherwise).

Crash safety reuses the PR-1 checkpoint machinery verbatim: every round
boundary writes a full-fidelity :class:`~repro.train.TrainState` (weights,
Adam moments, both RNG streams) whose ``extras`` additionally carry the
event-stream cursor and the learner's history store, so a learner killed
mid-round resumes bit-exactly — it re-drains the same events from the
still-buffered ring and replays the identical round.  Divergence recovery
is the Trainer's too: a non-finite loss or gradient norm rolls the round
back, halves the learning rate, and retries, bounded by
``divergence_retries`` before raising
:class:`~repro.train.TrainingDiverged`.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.data.batching import next_item_batches
from repro.online.events import EventLog
from repro.online.shadow import ShadowEvaluator, ShadowRegression
from repro.optim import Adam
from repro.optim.optimizer import clip_grad_norm, grad_norm
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.engine import RecommendationEngine
from repro.train.checkpoint import CheckpointManager, TrainState, load_train_state
from repro.train.trainer import TrainingDiverged, TrainingHistory
from repro.utils.seeding import get_rng


@dataclass
class OnlineConfig:
    """Tuning knobs of the online loop (see ``docs/online-learning.md``).

    ``steps_per_round`` bounds the optimisation work one round may do
    (freshness beats convergence online); ``min_events`` skips the
    fine-tune when too few fresh events arrived (the cursor still
    advances); ``export_every`` controls how many rounds
    :meth:`OnlineLearner.run` fine-tunes between publish attempts
    (``0`` = never publish automatically); ``quantize="int8"`` exports
    int8 artifacts that roll through the cluster unchanged.
    """

    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0
    clip_norm: float | None = 5.0
    steps_per_round: int = 8
    min_events: int = 1
    export_every: int = 1
    shadow_tolerance: float = 0.05
    shadow_k: int = 10
    quantize: str | None = None
    divergence_retries: int = 3
    checkpoint_dir: str | None = None
    keep_checkpoints: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.batch_size <= 0 or self.steps_per_round <= 0:
            raise ValueError("batch_size and steps_per_round must be positive")
        if self.min_events < 1:
            raise ValueError(f"min_events must be >= 1, got {self.min_events}")
        if self.export_every < 0:
            raise ValueError(
                f"export_every must be >= 0 (0 disables), got {self.export_every}")
        if self.shadow_tolerance < 0 or self.shadow_k < 1:
            raise ValueError("shadow_tolerance must be >= 0 and shadow_k >= 1")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(
                f"clip_norm must be positive or None to disable clipping, "
                f"got {self.clip_norm!r}")
        if self.divergence_retries < 0:
            raise ValueError("divergence_retries must be >= 0")
        if self.keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")


class OnlineLearner:
    """Drain serving events, fine-tune incrementally, publish behind a gate.

    Parameters
    ----------
    model:
        A live :class:`~repro.models.base.SequenceRecommender` — typically
        ``load_artifact(cluster.artifact_path)`` so fine-tuning starts from
        exactly the weights being served.
    events:
        The :class:`~repro.online.EventLog` the serving tier appends to
        (``cluster.events`` for a :class:`~repro.serve.ServingCluster`).
    config:
        An :class:`OnlineConfig`; defaults are drift-chasing-shaped.
    base_histories:
        Optional ``{user: [items]}`` seed for the learner's history store
        (e.g. the training split), so the first fine-tune round sees full
        histories rather than only post-deployment events.
    cluster:
        The live :class:`~repro.serve.ServingCluster` that
        :meth:`publish` rolls candidates into.  Optional: a learner
        without a cluster can still drain, fine-tune, and export.
    shadow:
        A :class:`~repro.online.ShadowEvaluator` gating every publish.
        Optional: without it, :meth:`publish` promotes unconditionally.
    """

    def __init__(self, model, events: EventLog,
                 config: OnlineConfig | None = None,
                 base_histories: dict[int, list[int]] | None = None,
                 cluster=None, shadow: ShadowEvaluator | None = None):
        self.model = model
        self.events = events
        self.config = config or OnlineConfig()
        self.cluster = cluster
        self.shadow = shadow
        self.optimizer = Adam(model.parameters(), lr=self.config.lr,
                              weight_decay=self.config.weight_decay)
        self.history = TrainingHistory()
        self.rounds = 0
        self.cursor = 0
        self.recoveries_used = 0
        self._rng = np.random.default_rng(self.config.seed)
        self._histories: dict[int, list[int]] = {
            int(user): [int(item) for item in items]
            for user, items in (base_histories or {}).items()}
        self._manager = (CheckpointManager(self.config.checkpoint_dir,
                                           keep=self.config.keep_checkpoints)
                         if self.config.checkpoint_dir is not None else None)

    # ------------------------------------------------------------------
    # Event consumption
    # ------------------------------------------------------------------
    def histories(self) -> dict[int, list[int]]:
        """Copy of the learner's per-user history store."""
        return {user: list(items) for user, items in self._histories.items()}

    def drain(self) -> tuple[list, int]:
        """Fold every fresh event into the history store.

        Returns ``(events, dropped)``; ``dropped`` counts ring-evicted
        events this consumer was too slow for (also surfaced through the
        ``online.events.dropped`` counter — the loop keeps going, but the
        histories silently miss those interactions).
        """
        events, dropped = self.events.read_since(self.cursor)
        for event in events:
            self._histories.setdefault(event.user, []).append(event.item)
        if events:
            self.cursor = events[-1].seq
        if obs.telemetry_enabled():
            obs.counter("online.events.consumed").inc(len(events))
            if dropped:
                obs.counter("online.events.dropped").inc(dropped)
            obs.gauge("online.cursor").set(self.cursor)
        return events, dropped

    # ------------------------------------------------------------------
    # Fine-tuning
    # ------------------------------------------------------------------
    def _round_batches(self, users: list[int], rng):
        sequences = [np.asarray(self._histories[user], dtype=np.int64)
                     for user in users]
        user_ids = np.asarray(users, dtype=np.int64)
        for batch_users, inputs, targets, mask in next_item_batches(
                sequences, self.model.max_len, self.config.batch_size, rng):
            yield user_ids[batch_users], inputs, targets, mask

    def _run_steps(self, users: list[int], rng) -> tuple[float | None, int, str | None]:
        """Up to ``steps_per_round`` optimisation steps over ``users``.

        Returns ``(mean_loss, steps, divergence_reason)``.
        """
        config = self.config
        self.model.train()
        total_loss, steps = 0.0, 0
        try:
            for batch in self._round_batches(users, rng):
                if steps >= config.steps_per_round:
                    break
                step_start = time.perf_counter()
                self.optimizer.zero_grad()
                loss = self.model.training_loss(batch)
                value = float(loss.data)
                if not np.isfinite(value):
                    return None, steps, f"non-finite training loss ({value})"
                loss.backward()
                if config.clip_norm is not None:
                    norm = clip_grad_norm(self.optimizer.parameters,
                                          config.clip_norm)
                else:
                    norm = grad_norm(self.optimizer.parameters)
                if not np.isfinite(norm):
                    return None, steps, f"non-finite gradient norm ({norm})"
                self.optimizer.step()
                total_loss += value
                steps += 1
                if obs.telemetry_enabled():
                    obs.counter("online.steps").inc()
                    obs.histogram("online.step_time_s").observe(
                        time.perf_counter() - step_start)
                    obs.histogram("online.loss").observe(value)
        finally:
            self.model.eval()
        if steps == 0:
            return None, 0, None
        return total_loss / steps, steps, None

    def fine_tune_round(self) -> dict:
        """One loop iteration: drain, fine-tune touched users, checkpoint.

        Mirrors the Trainer's divergence protocol: a non-finite loss or
        gradient rolls model/optimizer/RNG back to the round start, halves
        the learning rate, and retries the identical round, bounded by
        ``divergence_retries`` across the learner's lifetime before
        raising :class:`~repro.train.TrainingDiverged`.  Every completed
        round (even an empty one) checkpoints, so the event cursor on disk
        never runs ahead of the weights.
        """
        config = self.config
        events, dropped = self.drain()
        touched = sorted({event.user for event in events
                          if len(self._histories.get(event.user, [])) >= 2})
        summary = {"round": self.rounds + 1, "events": len(events),
                   "dropped": dropped, "touched_users": len(touched),
                   "steps": 0, "mean_loss": None, "lr": self.optimizer.lr}
        if len(events) >= config.min_events and touched:
            while True:
                snapshot = self._capture_snapshot()
                mean_loss, steps, divergence = self._run_steps(
                    touched, self._rng)
                if divergence is None:
                    summary["steps"] = steps
                    summary["mean_loss"] = mean_loss
                    if mean_loss is not None:
                        self.history.losses.append(mean_loss)
                    break
                if self.recoveries_used >= config.divergence_retries:
                    raise TrainingDiverged(
                        f"online fine-tune diverged at round "
                        f"{self.rounds + 1}: {divergence}; gave up after "
                        f"{self.recoveries_used} rollback/LR-halving retries "
                        f"(lr {self.optimizer.lr:g})",
                        epoch=self.rounds + 1, lr=self.optimizer.lr,
                        retries=self.recoveries_used)
                self.recoveries_used += 1
                self._restore_snapshot(snapshot)
                lr_before = self.optimizer.lr
                self.optimizer.lr = lr_before / 2.0
                self.history.divergence_recoveries.append({
                    "epoch": int(self.rounds + 1), "reason": divergence,
                    "lr_before": float(lr_before),
                    "lr_after": float(self.optimizer.lr),
                })
                obs.emit("online_divergence_recovery", round=self.rounds + 1,
                         reason=divergence, lr_before=float(lr_before),
                         lr_after=float(self.optimizer.lr),
                         retries_used=self.recoveries_used)
        self.rounds += 1
        summary["lr"] = self.optimizer.lr
        self._checkpoint()
        obs.emit("online_round", **{key: value for key, value
                                    in summary.items()})
        if obs.telemetry_enabled():
            obs.gauge("online.rounds").set(self.rounds)
        return summary

    # ------------------------------------------------------------------
    # Export and gated publication
    # ------------------------------------------------------------------
    def export(self, path: str | Path) -> Path:
        """Freeze the current weights into a checksummed artifact."""
        return export_artifact(
            self.model, path,
            extra_meta={"online_rounds": int(self.rounds),
                        "event_cursor": int(self.cursor)},
            quantize=self.config.quantize)

    def publish(self, path: str | Path | None = None) -> dict:
        """Export a candidate and roll it into the cluster, shadow-gated.

        The candidate is refused — :class:`~repro.online.ShadowRegression`
        propagates and the cluster keeps the incumbent — when the shadow
        evaluation's HR@k delta falls below ``-shadow_tolerance``.  Every
        decision is emitted as an ``online.swap_decision`` telemetry
        event; the drift gauges ``online.drift.hr_delta`` /
        ``online.drift.ndcg_delta`` track the latest shadow comparison.
        """
        if self.cluster is None:
            raise ValueError("publish() requires a cluster")
        if path is None:
            if self._manager is None:
                raise ValueError(
                    "publish() needs an explicit path when checkpoint_dir "
                    "is unset")
            path = self._manager.directory / \
                f"candidate-round{self.rounds:05d}.npz"
        path = self.export(path)
        report = None
        if self.shadow is not None:
            incumbent = RecommendationEngine(
                load_artifact(self.cluster.artifact_path))
            candidate = RecommendationEngine(load_artifact(path))
            try:
                report = self.shadow.gate(incumbent, candidate,
                                          self.config.shadow_tolerance)
            except ShadowRegression as error:
                self._note_shadow(error.report)
                obs.emit("online.swap_decision", decision="refused",
                         path=str(path), round=self.rounds,
                         **error.report.to_dict())
                if obs.telemetry_enabled():
                    obs.counter("online.swaps.refused").inc()
                raise
            self._note_shadow(report)
        swap = self.cluster.swap(path)
        obs.emit("online.swap_decision", decision="promoted", path=str(path),
                 round=self.rounds,
                 **(report.to_dict() if report is not None else {}))
        if obs.telemetry_enabled():
            obs.counter("online.swaps.promoted").inc()
        return {"path": str(path), "swap": swap,
                "shadow": report.to_dict() if report is not None else None}

    @staticmethod
    def _note_shadow(report) -> None:
        if obs.telemetry_enabled():
            obs.gauge("online.drift.hr_delta").set(report.hr_delta)
            obs.gauge("online.drift.ndcg_delta").set(report.ndcg_delta)

    def run(self, rounds: int) -> dict:
        """Drive ``rounds`` loop iterations, publishing every ``export_every``.

        A refused candidate does not stop the loop — the refusal is
        recorded and fine-tuning continues (the next rounds may recover).
        Returns a summary with per-round records and publish outcomes.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        records, publishes, refusals = [], [], 0
        for index in range(rounds):
            records.append(self.fine_tune_round())
            every = self.config.export_every
            if self.cluster is not None and every and (index + 1) % every == 0:
                try:
                    publishes.append(self.publish())
                except ShadowRegression as error:
                    refusals += 1
                    publishes.append({"refused": True,
                                      "shadow": error.report.to_dict()})
        return {"rounds": records, "publishes": publishes,
                "refusals": refusals}

    # ------------------------------------------------------------------
    # Checkpointing and bit-exact resume
    # ------------------------------------------------------------------
    def _capture_snapshot(self) -> dict:
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "rng": copy.deepcopy(self._rng.bit_generator.state),
            "global_rng": copy.deepcopy(get_rng().bit_generator.state),
        }

    def _restore_snapshot(self, snapshot: dict) -> None:
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optimizer"])
        self._rng.bit_generator.state = copy.deepcopy(snapshot["rng"])
        get_rng().bit_generator.state = copy.deepcopy(snapshot["global_rng"])

    def _checkpoint(self) -> Path | None:
        if self._manager is None:
            return None
        state = TrainState(
            epoch=self.rounds,
            model_state=self.model.state_dict(),
            optimizer_state=self.optimizer.state_dict(),
            history=self.history,
            trainer_rng=copy.deepcopy(self._rng.bit_generator.state),
            global_rng=copy.deepcopy(get_rng().bit_generator.state),
            recoveries_used=self.recoveries_used,
            model_class=type(self.model).__name__,
            extras={
                "online": True,
                "event_cursor": int(self.cursor),
                "rounds": int(self.rounds),
                "histories": {str(user): [int(item) for item in items]
                              for user, items in self._histories.items()},
            },
        )
        path = self._manager.save(state)
        obs.emit("online_checkpoint", round=self.rounds, path=str(path),
                 cursor=self.cursor)
        return path

    def resume(self, resume_from: str | Path | None = None) -> bool:
        """Restore the newest valid checkpoint; returns whether one loaded.

        ``resume_from`` may be a checkpoint file or directory; by default
        the configured ``checkpoint_dir`` rotation is searched (corrupt
        newest files fall back to older ones).  Restores weights, Adam
        moments, both RNG streams, the history store, and the event-stream
        cursor — the next :meth:`fine_tune_round` re-drains exactly the
        events the crashed round saw, replaying it bit-exactly.
        """
        state: TrainState | None = None
        if resume_from is not None:
            path = Path(resume_from)
            if path.is_file():
                state = load_train_state(path)
            else:
                found = CheckpointManager(
                    path, keep=self.config.keep_checkpoints).load_latest()
                state = found[0] if found else None
        elif self._manager is not None:
            found = self._manager.load_latest()
            state = found[0] if found else None
        else:
            raise ValueError(
                "resume() needs resume_from or config.checkpoint_dir")
        if state is None:
            return False
        if not state.extras.get("online"):
            raise ValueError(
                "checkpoint was not written by an OnlineLearner "
                f"(extras={sorted(state.extras)})")
        self.model.load_state_dict(state.model_state)
        self.optimizer.load_state_dict(state.optimizer_state)
        if state.trainer_rng is not None:
            self._rng.bit_generator.state = state.trainer_rng
        if state.global_rng is not None:
            get_rng().bit_generator.state = state.global_rng
        self.history = state.history
        self.recoveries_used = state.recoveries_used
        self.cursor = int(state.extras["event_cursor"])
        self.rounds = int(state.extras["rounds"])
        self._histories = {int(user): [int(item) for item in items]
                           for user, items in
                           state.extras["histories"].items()}
        obs.emit("online_resume", round=self.rounds, cursor=self.cursor)
        return True
