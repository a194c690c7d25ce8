"""The benchmark's three workloads over ISRec.

Every workload runs the same pipeline on its own inputs, so each reports
all nine end-to-end metrics:

1. **Set-up**, repeated ``setup_repeats`` times (the median is
   ``setup_s``): generate the profile's dataset, build ISRec from the seed,
   sample the evaluation negatives and, for the serving workloads, export
   the untrained model and start a one-worker ``ServingCluster`` over it.
2. **Training**: ``model.fit`` for a fixed number of epochs, no early stop;
   the seed also orders the batches.
3. **Evaluation**: timed ``RankingEvaluator`` passes over the test split.
4. **Serving** (``serve-hot`` / ``serve-fresh``): hot-swap the trained
   artifact into the cluster, load every user's history, warm up, then one
   waiting caller sends Zipf traffic for ``--seconds``.

``train`` puts its time in steps 2-3 (``qps``/``p50_ms``/``p90_ms`` describe
optimisation steps there).  On the serving workloads steps 2-3 only build
the served model; their time is in step 4.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks, tracing
from perfbench.tracing import PARENT, WORKER
from repro.data import default_max_len, load_dataset, split_leave_one_out
from repro.eval import RankingEvaluator
from repro.experiments import ExperimentConfig, build_model
from repro.serve import (
    ClusterConfig, RecommendationEngine, ServeError, ServingCluster,
    export_artifact, load_artifact,
)
from repro.train import TrainConfig
from repro.utils import set_seed


#: Model and training settings shared by every workload (the experiment
#: defaults of ``repro.experiments``), and the size of a served answer.
DIM, BATCH_SIZE, LR, NUM_NEGATIVES, K = 48, 64, 3e-3, 100, 10
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Plan:
    """Sizes of one workload; the smoke tests shrink them."""

    profile: str
    scale: float
    epochs: int
    serve: str | None = None          # None, "hot" or "fresh"
    setup_repeats: int = 3
    min_eval_passes: int = 3
    fresh_warmup: int = 200
    parity_users: int = 32
    replay_repeats: int = 5
    block_s: float = 0.5


WORKLOADS: dict[str, Plan] = {
    "train": Plan("ml-1m", 4.0, epochs=2),
    "serve-hot": Plan("beauty", 2.0, epochs=1, serve="hot",
                      min_eval_passes=2),
    "serve-fresh": Plan("beauty", 2.0, epochs=1, serve="fresh",
                        min_eval_passes=2),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_seq_per_s": "1/s",
    "eval_users_per_s": "1/s",
    "final_loss": "nats",
    "test_hr10": "ratio",
    "qps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
}

PER_LAYER_UNITS = {
    "core.encoder.fwd_ms": "ms",
    "core.extractor.fwd_ms": "ms",
    "core.transition.fwd_ms": "ms",
    "core.decoder.fwd_ms": "ms",
    "core.encoder.fwdbwd_ms": "ms",
    "core.transition.fwdbwd_ms": "ms",
    "core.decoder.fwdbwd_ms": "ms",
    "models.loss_head.fwd_ms": "ms",
    "tensor.backward_ms": "ms",
    "train.clip_ms": "ms",
    "optim.step_ms": "ms",
    "data.batch_ms": "ms",
    "train.step_ms": "ms",
    "tensor.allocs_per_step": "count",
    "tensor.graph_nodes_per_step": "count",
    "eval.score_ms": "ms",
    "serve.worker.recommend_ms": "ms",
    "serve.worker.forward_ms": "ms",
    "serve.worker.topk_ms": "ms",
    "serve.router_ms": "ms",
    "serve.observe_ms": "ms",
    "serve.worker.history_ms": "ms",
    "serve.forwards_per_request": "count",
    "serve.shed": "count",
    "serve.deadline_exceeded": "count",
    "serve.degraded": "count",
    "serve.retries": "count",
    "serve.p99_ms": "ms",
    "data.generate_s": "s",
    "serve.artifact.export_s": "s",
    "serve.startup_s": "s",
    "trace.overhead_pct": "%",
    "trace.sum_error_pct": "%",
}

#: Largest share by which measured parts may miss their traced total.
STEP_SUM_TOLERANCE = 0.05
FORWARD_SUM_TOLERANCE = 0.05
SERVE_FORWARD_SUM_TOLERANCE = 0.10

_MODULES = ("encoder", "extractor", "transition", "decoder")


@dataclass
class Result:
    """What one run measured and whether its outputs were correct."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    outcomes: checks.Outcomes
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        plan: Plan | None = None) -> Result:
    """Run workload ``name`` once; ``plan`` overrides its sizes (tests)."""
    plan = plan or WORKLOADS[name]
    with contextlib.ExitStack() as stack:
        recorder = None
        if trace:
            recorder = tracing.Recorder()
            stack.callback(recorder.close)
            stack.enter_context(tracing.installed(recorder))
        return _Run(plan, seed, seconds, recorder, Path(workdir)).execute()


class _Run:
    def __init__(self, plan: Plan, seed: int, seconds: float,
                 recorder: tracing.Recorder | None, workdir: Path):
        self.plan = plan
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.workdir = workdir
        self.outcomes = checks.Outcomes()
        self.problems = self.outcomes.problems
        self.e2e: dict[str, float] = {}
        self.layer = {name: 0.0 for name in PER_LAYER_UNITS}
        self.sum_errors: list[float] = []
        self.captured: dict[str, list] | None = None
        self.cluster: ServingCluster | None = None

    # ------------------------------------------------------------------
    def execute(self) -> Result:
        try:
            self.setup()
            self.fit()
            self.evaluate()
            if self.plan.serve is not None:
                self.serve()
        finally:
            if self.cluster is not None:
                self.cluster.close()
        self.e2e["peak_rss_mb"] = peak_rss_mb()
        if self.recorder is not None:
            self.replay()
            self.layer["trace.sum_error_pct"] = 100.0 * max(
                self.sum_errors, default=0.0)
        return Result(self.e2e, self.layer, self.outcomes, self.problems)

    # ------------------------------------------------------------------
    # 1. Set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        phases: dict[str, list[float]] = {
            "setup": [], "generate": [], "export": [], "startup": []}
        for _ in range(self.plan.setup_repeats):
            if self.cluster is not None:
                self.cluster.close()
                self.cluster = None
            gc.collect()
            self._build(phases)
        self.e2e["setup_s"] = statistics.median(phases["setup"])
        self.layer["data.generate_s"] = statistics.median(phases["generate"])
        if self.plan.serve is not None:
            self.layer["serve.artifact.export_s"] = statistics.median(
                phases["export"])
            self.layer["serve.startup_s"] = statistics.median(
                phases["startup"])

    def _build(self, phases: dict[str, list[float]]) -> None:
        plan, seed = self.plan, self.seed
        start = time.perf_counter()
        dataset = load_dataset(plan.profile, scale=plan.scale, cache=False)
        generated = time.perf_counter()
        split = split_leave_one_out(dataset.sequences)
        set_seed(seed)
        model = build_model("ISRec", dataset, default_max_len(plan.profile),
                            ExperimentConfig(dim=DIM, seed=seed))
        longest = max(len(set(seq.tolist())) for seq in split.full_sequences)
        evaluator = RankingEvaluator(
            split, dataset.num_items,
            num_negatives=min(NUM_NEGATIVES,
                              max(dataset.num_items - longest, 1)),
            seed=0, popularity=dataset.item_popularity())
        evaluator.candidates("test")
        if plan.serve is not None:
            exporting = time.perf_counter()
            artifact = export_artifact(model, self.workdir / "untrained.npz")
            starting = time.perf_counter()
            self.cluster = ServingCluster(artifact, ClusterConfig(
                world=1, cache_size=dataset.num_users, seed=seed))
            phases["export"].append(starting - exporting)
            phases["startup"].append(time.perf_counter() - starting)
        phases["setup"].append(time.perf_counter() - start)
        phases["generate"].append(generated - start)
        self.dataset, self.split = dataset, split
        self.model, self.evaluator = model, evaluator

    # ------------------------------------------------------------------
    # 2. Training
    # ------------------------------------------------------------------
    def fit(self) -> None:
        plan, model, recorder = self.plan, self.model, self.recorder
        clock = tracing.StepClock(recorder)
        batches = model.training_batches
        model.training_batches = lambda rng: clock.wrap(batches(rng))
        config = TrainConfig(epochs=plan.epochs, batch_size=BATCH_SIZE,
                             lr=LR, eval_every=plan.epochs,
                             patience=plan.epochs, seed=self.seed)
        gc.collect()
        try:
            history = model.fit(self.dataset, self.split, config)
        finally:
            del model.training_batches
        self.outcomes.record_ok(len(clock.step_s))
        final_loss = history.losses[-1]
        if not np.isfinite(final_loss):
            self.problems.append(f"final training loss is {final_loss}")
        if history.epochs_run != plan.epochs:
            self.problems.append(f"fit ran {history.epochs_run} epochs, "
                                 f"expected {plan.epochs}")
        iterations = np.add(clock.batch_s, clock.step_s)
        self.e2e["final_loss"] = float(final_loss)
        self.e2e["train_seq_per_s"] = sum(clock.sequences) / iterations.sum()
        if plan.serve is None:
            self.e2e["qps"] = len(iterations) / iterations.sum()
            self.e2e["p50_ms"] = checks.percentile_ms(iterations[1:], 50)
            self.e2e["p90_ms"] = checks.percentile_ms(iterations[1:], 90)
        if recorder is not None:
            self._fit_layers(clock)
            recorder.reset()

    def _fit_layers(self, clock: tracing.StepClock) -> None:
        recorder, layer = self.recorder, self.layer
        steps = len(clock.step_s)

        def per_step(slot: str) -> float:
            return recorder.seconds(PARENT, slot) / steps

        modules = {name: per_step(f"core.{name}") for name in _MODULES}
        if self.plan.serve is None:
            for name, seconds in modules.items():
                layer[f"core.{name}.fwd_ms"] = 1e3 * seconds
        forward = per_step("model.sequence_output")
        loss = per_step("model.training_loss")
        parts = {"training_loss": loss,
                 "backward": per_step("tensor.backward"),
                 "clip": per_step("train.clip"),
                 "optimizer": per_step("optim.step")}
        step = statistics.fmean(clock.step_s)
        layer["models.loss_head.fwd_ms"] = 1e3 * (loss - forward)
        layer["tensor.backward_ms"] = 1e3 * parts["backward"]
        layer["train.clip_ms"] = 1e3 * parts["clip"]
        layer["optim.step_ms"] = 1e3 * parts["optimizer"]
        layer["data.batch_ms"] = 1e3 * statistics.fmean(clock.batch_s)
        layer["train.step_ms"] = 1e3 * step
        layer["tensor.allocs_per_step"] = statistics.median(clock.allocs)
        layer["tensor.graph_nodes_per_step"] = statistics.median(
            clock.graph_nodes)
        self._check_sum("train step", step, parts, STEP_SUM_TOLERANCE)
        self._check_sum("train forward", forward, modules,
                        FORWARD_SUM_TOLERANCE)
        self.captured = clock.captured

    # ------------------------------------------------------------------
    # 3. Evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> None:
        """Timed test passes; the fit's closing validation pass, which runs
        the same scoring code on same-shaped inputs, is their warm-up."""
        recorder = self.recorder
        window = self.seconds if self.plan.serve is None else 0.0
        gc.collect()
        plain, traced, reports = [], [], []
        deadline = time.perf_counter() + window
        while (len(plain) < self.plan.min_eval_passes
               or time.perf_counter() < deadline):
            tracing_pass = recorder is not None and len(plain) > len(traced)
            if recorder is not None:
                recorder.enabled = tracing_pass
            start = time.perf_counter()
            reports.append(self.evaluator.evaluate(self.model, stage="test"))
            (traced if tracing_pass else plain).append(
                time.perf_counter() - start)
        if recorder is not None:
            recorder.enabled = False
        if any(report.as_dict() != reports[0].as_dict() for report in reports):
            self.problems.append("evaluation passes disagree")
        self.outcomes.record_ok(len(reports))
        users = self.split.num_users
        self.e2e["eval_users_per_s"] = users / statistics.median(plain)
        self.e2e["test_hr10"] = float(reports[0].hr10)
        if recorder is not None:
            calls = recorder.count(PARENT, "eval.score")
            self.layer["eval.score_ms"] = 1e3 * recorder.seconds(
                PARENT, "eval.score") / calls
            if self.plan.serve is None:
                self.layer["trace.overhead_pct"] = overhead_pct(traced, plain)
            recorder.reset()

    # ------------------------------------------------------------------
    # 4. Serving
    # ------------------------------------------------------------------
    def serve(self) -> None:
        plan, cluster, recorder = self.plan, self.cluster, self.recorder
        fresh = plan.serve == "fresh"
        artifact = export_artifact(self.model, self.workdir / "trained.npz")
        cluster.swap(artifact)
        histories = {user: [int(item) for item in self.split.test_input(user)]
                     for user in range(self.split.num_users)}
        for user, items in histories.items():
            cluster.set_history(user, items)
        self._wait_idle()

        rng = np.random.default_rng(self.seed)
        size = 1 << 18
        users = zipf_users(rng, len(histories), ZIPF_EXPONENT, size)
        items = rng.integers(1, self.dataset.num_items + 1, size=size)
        answers: list[tuple[int, int, tuple]] = []
        observe_s: list[float] = []

        def operation(user: int, item: int) -> float | None:
            """One request (after one observe when fresh); its latency."""
            if fresh:
                start = time.perf_counter()
                cluster.observe(user, item)
                observe_s.append(time.perf_counter() - start)
                histories[user].append(item)
            start = time.perf_counter()
            try:
                response = cluster.recommend(user, k=K)
            except ServeError as error:
                self.outcomes.record_error(error)
                return None
            latency = time.perf_counter() - start
            if self.outcomes.record_response(response):
                answers.append((user, len(histories[user]), response.items))
            return latency

        # Warm-up: hot requests every user once, so all states are cached;
        # fresh runs a short stretch of its own traffic.
        if fresh:
            warmup = [(int(users[n]), int(items[n]))
                      for n in range(plan.fresh_warmup)]
        else:
            warmup = [(int(user), 0)
                      for user in rng.permutation(len(histories))]
        for user, item in warmup:
            operation(user, item)
        self._wait_idle()
        before = cluster.stats()["router"]
        plain_blocks, traced_blocks, traced_observe = [], [], []
        gc.collect()
        position = len(warmup)
        start = time.perf_counter()
        for _ in range(max(2, round(self.seconds / plan.block_s))):
            tracing_block = (recorder is not None
                             and len(plain_blocks) > len(traced_blocks))
            if recorder is not None:
                recorder.enabled = tracing_block
            block = []
            block_end = time.perf_counter() + plan.block_s
            while time.perf_counter() < block_end:
                observed = len(observe_s)
                latency = operation(int(users[position % size]),
                                    int(items[position % size]))
                position += 1
                if latency is None:
                    continue
                block.append(latency)
                if tracing_block and len(observe_s) > observed:
                    traced_observe.append(observe_s[-1])
            (traced_blocks if tracing_block else plain_blocks).append(block)
        window = time.perf_counter() - start
        if recorder is not None:
            recorder.enabled = False
        self._wait_idle()
        after = cluster.stats()
        plain = [latency for block in plain_blocks for latency in block]
        traced = [latency for block in traced_blocks for latency in block]
        requests = len(plain) + len(traced)
        self.e2e["qps"] = requests / window
        self.e2e["p50_ms"] = checks.percentile_ms(plain, 50)
        self.e2e["p90_ms"] = checks.percentile_ms(plain, 90)
        for name in ("shed", "deadline_exceeded", "degraded", "retries"):
            self.layer[f"serve.{name}"] = float(
                after["router"][name] - before[name])
        restarts = sum(worker["restarts"] for worker in after["workers"])
        if restarts:
            self.problems.append(f"{restarts} worker restart(s) while serving")

        for user, length, served in answers:
            for problem in checks.answer_problems(
                    served, K, self.dataset.num_items,
                    histories[user][:length]):
                self.problems.append(f"user {user}: {problem}")
                break
        self._check_parity(artifact, histories, rng)
        if recorder is not None:
            self._serve_layers(plain, traced, traced_observe)

    def _serve_layers(self, plain, traced, traced_observe) -> None:
        recorder, layer = self.recorder, self.layer
        requests = recorder.count(WORKER, "engine.recommend")
        if requests != len(traced):
            self.problems.append(
                f"worker saw {requests} traced recommends, the caller "
                f"sent {len(traced)}")
        recommend = recorder.seconds(WORKER, "engine.recommend") / requests
        forward = recorder.seconds(WORKER, "model.sequence_output") / requests
        modules = {name: recorder.seconds(WORKER, f"core.{name}") / requests
                   for name in _MODULES}
        for name, seconds in modules.items():
            layer[f"core.{name}.fwd_ms"] = 1e3 * seconds
        layer["serve.worker.recommend_ms"] = 1e3 * recommend
        layer["serve.worker.forward_ms"] = 1e3 * forward
        layer["serve.worker.topk_ms"] = 1e3 * (recommend - forward)
        layer["serve.router_ms"] = 1e3 * (statistics.fmean(traced) - recommend)
        layer["serve.forwards_per_request"] = recorder.count(
            WORKER, "model.sequence_output") / requests
        histories = recorder.count(WORKER, "engine.set_history")
        if histories:
            layer["serve.worker.history_ms"] = 1e3 * recorder.seconds(
                WORKER, "engine.set_history") / histories
        if traced_observe:
            layer["serve.observe_ms"] = 1e3 * statistics.fmean(traced_observe)
        layer["serve.p99_ms"] = checks.percentile_ms(plain + traced, 99)
        layer["trace.overhead_pct"] = overhead_pct(traced, plain)
        if layer["serve.router_ms"] < 0 or layer["serve.worker.topk_ms"] < 0:
            self.problems.append("a derived serving part is negative")
        if forward > 0:
            self._check_sum("worker forward", forward, modules,
                            SERVE_FORWARD_SUM_TOLERANCE)

    def _check_parity(self, artifact: Path, histories: dict, rng) -> None:
        """Served top-K must equal an in-process engine's, bit for bit."""
        plan, cluster = self.plan, self.cluster
        engine = RecommendationEngine(load_artifact(artifact),
                                      cache_size=plan.parity_users)
        sample = rng.choice(len(histories), size=min(plan.parity_users,
                                                     len(histories)),
                            replace=False)
        served, reference = {}, {}
        for user in (int(user) for user in sample):
            if cluster.router.history(user) != histories[user]:
                self.problems.append(f"user {user}: the router's history "
                                     f"differs from the one sent")
            try:
                response = cluster.recommend(user, k=K)
            except ServeError as error:
                self.outcomes.record_error(error)
                continue
            if self.outcomes.record_response(response):
                served[user] = response.items
            engine.set_history(user, histories[user])
            reference[user] = engine.recommend(user, k=K)
        self.problems.extend(checks.parity_mismatches(served, reference))

    def _wait_idle(self, timeout: float = 60.0) -> None:
        """Block until every shard queue is empty (history syncs applied)."""
        deadline = time.monotonic() + timeout
        while any(self.cluster.stats()["queue_depths"]):
            if time.monotonic() > deadline:
                self.problems.append("shard queues did not drain")
                return
            time.sleep(0.001)

    # ------------------------------------------------------------------
    # Traced-run extras
    # ------------------------------------------------------------------
    def replay(self) -> None:
        """Isolated forward + backward of single modules on step inputs."""
        captured = self.captured or {}
        self.model.train()
        for name in ("encoder", "transition", "decoder"):
            args = captured.get(f"core.{name}")
            if args is None:
                self.problems.append(f"no inputs captured for core.{name}")
                continue
            seconds = tracing.replay_fwdbwd(
                getattr(self.model, name), args, self.plan.replay_repeats,
                self.seed)
            self.layer[f"core.{name}.fwdbwd_ms"] = 1e3 * seconds
        self.model.eval()

    def _check_sum(self, name: str, total: float, parts: dict,
                   tolerance: float) -> None:
        self.sum_errors.append(checks.sum_error(total, parts))
        self.problems.extend(checks.sum_problems(name, total, parts,
                                                 tolerance))


def zipf_users(rng: np.random.Generator, num_users: int, exponent: float,
               size: int) -> np.ndarray:
    """``size`` user ids drawn from a Zipf law over a random user ranking."""
    weights = np.arange(1, num_users + 1, dtype=np.float64) ** -exponent
    ranking = rng.permutation(num_users)
    return ranking[rng.choice(num_users, size=size, p=weights / weights.sum())]


def overhead_pct(traced: list[float], plain: list[float]) -> float:
    """Traced against untraced median, in percent."""
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
