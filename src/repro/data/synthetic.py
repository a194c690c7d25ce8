"""Intent-driven synthetic interaction generator.

This is the substitute for the paper's five real datasets (Amazon-Beauty,
Steam, Epinions, ML-1m, ML-20m), which are network-gated in this
environment.  The generator realises exactly the behavioural story ISRec is
built on (§1, §3): every user carries a small set of latent *intentions*
(concepts); intentions *transition* over time by hopping along edges of the
concept relation graph; each consumed item is chosen because its concepts
match the user's current intentions (mixed with item popularity and noise).

Because the ground truth is an intent process on a concept graph, a model
that recovers intents and their structured transitions (ISRec) has a real
statistical advantage over co-occurrence-only baselines — the property the
paper's Table 2 and Table 5 demonstrate — while popularity/co-occurrence
structure keeps the baselines competitive rather than trivial.

The generator also emits textual item descriptions (titles + review
snippets) so the concept-extraction pipeline of §4.1 runs for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import preprocessing
from repro.data.concepts import build_concept_space, extract_concepts, restrict_concept_space
from repro.data.dataset import InteractionDataset
from repro.data.graphs import ItemKnowledgeGraph
from repro.data.vocabularies import FILLER_WORDS


@dataclass
class SimulatorConfig:
    """Knobs of the generative process.

    The defaults produce a Beauty-like sparse dataset; the registry
    (:mod:`repro.data.registry`) derives one config per paper dataset.
    """

    name: str = "synthetic"
    domain: str = "beauty"
    num_users: int = 300
    num_items: int = 400
    num_concepts: int = 48
    avg_length: float = 9.0
    min_length: int = 5
    max_length: int = 120
    concepts_per_item: float = 4.5
    true_lambda: int = 3
    intent_match_weight: float = 4.0
    popularity_weight: float = 1.0
    noise_scale: float = 1.0
    transition_prob: float = 0.35
    community_jump_prob: float = 0.05
    popularity_exponent: float = 1.1
    # Each user consumes an item at most once (rating-style data; the paper's
    # datasets are converted to implicit feedback where repeats are absent).
    # Set a finite window to allow re-consumption after `repeat_window` steps.
    repeat_window: int | None = None
    intra_chord_prob: float = 0.15
    inter_edge_prob: float = 0.02
    # Session structure (IntentRec-style).  ``session_avg_length=None`` (the
    # default) disables session emission entirely and reproduces the legacy
    # RNG draw sequence bit-for-bit.  When set, each user's stream is
    # partitioned into sessions of geometric length (mean
    # ``session_avg_length``, floor ``session_min_length``); within a
    # session the latent intents are *held fixed* with probability
    # ``session_coherence`` per step, and every session boundary forces an
    # intent transition with probability ``session_boundary_prob``.
    session_avg_length: float | None = None
    session_min_length: int = 1
    session_coherence: float = 0.9
    session_boundary_prob: float = 0.9
    # Item knowledge graph (docs/graph-workloads.md).  ``kg_relations=None``
    # (the default) disables KG emission; the KG sampler draws from a
    # dedicated RNG stream (seed + a fixed offset), so the interaction
    # stream is bit-identical whether the graph is emitted or not.
    kg_relations: int | None = None
    kg_triples_per_item: float = 3.0
    kg_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.num_users <= 0 or self.num_items <= 0 or self.num_concepts <= 0:
            raise ValueError("num_users, num_items, num_concepts must be positive")
        if self.true_lambda <= 0:
            raise ValueError("true_lambda must be positive")
        if self.min_length < 3:
            raise ValueError("min_length must be at least 3 (leave-one-out needs 3 items)")
        if not 0.0 <= self.transition_prob <= 1.0:
            raise ValueError("transition_prob must be a probability")
        if self.repeat_window is None and self.max_length >= self.num_items:
            raise ValueError(
                "repeat-free consumption requires max_length < num_items "
                f"(got max_length={self.max_length}, num_items={self.num_items})"
            )
        if self.session_min_length < 1:
            raise ValueError("session_min_length must be at least 1")
        if (self.session_avg_length is not None
                and self.session_avg_length < self.session_min_length):
            raise ValueError(
                "session_avg_length must be >= session_min_length "
                f"(got {self.session_avg_length} < {self.session_min_length})")
        if not 0.0 <= self.session_coherence <= 1.0:
            raise ValueError("session_coherence must be a probability")
        if not 0.0 <= self.session_boundary_prob <= 1.0:
            raise ValueError("session_boundary_prob must be a probability")
        if self.kg_relations is not None and self.kg_relations < 1:
            raise ValueError("kg_relations must be at least 1 when set")
        if self.kg_triples_per_item <= 0:
            raise ValueError("kg_triples_per_item must be positive")
        if not 0.0 <= self.kg_noise <= 1.0:
            raise ValueError("kg_noise must be a probability")


@dataclass
class GroundTruth:
    """Latent state of the simulator, kept for diagnostics and tests.

    ``kept_users`` and ``concept_index_map`` align the raw simulation with
    the returned (5-core-filtered, concept-restricted) dataset:
    ``dataset.sequences[i]`` belongs to raw user ``kept_users[i]``, and raw
    concept ``k`` maps to dataset concept ``concept_index_map[k]`` (``-1``
    if it was filtered out).
    """

    item_community: np.ndarray
    item_concepts_true: np.ndarray
    popularity: np.ndarray
    user_intents: list[list[np.ndarray]] = field(default_factory=list)
    kept_users: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    concept_index_map: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Raw (pre-5-core) per-step session ids per user; empty when the
    #: simulator ran without session emission.
    user_sessions: list[np.ndarray] = field(default_factory=list)
    #: Raw (pre-5-core) KG triples over the unfiltered entity space; empty
    #: when the simulator ran without KG emission.
    kg_triples_raw: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.int64))


class IntentDrivenSimulator:
    """Generate an :class:`InteractionDataset` from a latent intent process."""

    #: Seed offset decorrelating the KG sampler from the main interaction
    #: stream: KG emission never advances ``self.rng``, so switching the
    #: graph on or off leaves the interactions bit-identical.
    KG_SEED_OFFSET = 0x6B670

    def __init__(self, config: SimulatorConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.space = build_concept_space(
            config.domain, config.num_concepts, self.rng,
            intra_chord_prob=config.intra_chord_prob,
            inter_edge_prob=config.inter_edge_prob,
        )
        self.ground_truth: GroundTruth | None = None

    # ------------------------------------------------------------------
    # Item model
    # ------------------------------------------------------------------
    def _assign_item_concepts(self) -> tuple[np.ndarray, np.ndarray]:
        """Give each item a home community and a concept set."""
        cfg = self.config
        num_communities = len(self.space.community_names)
        item_community = self.rng.integers(0, num_communities, size=cfg.num_items)
        matrix = np.zeros((cfg.num_items, self.space.num_concepts), dtype=np.float32)
        for item in range(cfg.num_items):
            home = self.space.members(int(item_community[item]))
            count = max(1, int(self.rng.poisson(max(cfg.concepts_per_item - 1.0, 0.1)) + 1))
            count = min(count, self.space.num_concepts)
            chosen: set[int] = set()
            while len(chosen) < count:
                if self.rng.random() < 0.8 and len(home):
                    chosen.add(int(self.rng.choice(home)))
                else:
                    chosen.add(int(self.rng.integers(0, self.space.num_concepts)))
            matrix[item, sorted(chosen)] = 1.0
        return item_community, matrix

    def _item_descriptions(self, item_concepts: np.ndarray) -> list[str]:
        """Produce title + review text containing the item's concept words."""
        descriptions = []
        for item in range(self.config.num_items):
            concepts = [self.space.names[i] for i in np.flatnonzero(item_concepts[item])]
            fillers = list(self.rng.choice(FILLER_WORDS, size=4))
            title_words = concepts[:2] + fillers[:1]
            review_words = concepts + fillers[1:]
            self.rng.shuffle(review_words)
            descriptions.append(" ".join(title_words) + " . " + " ".join(review_words))
        return descriptions

    # ------------------------------------------------------------------
    # User intent process
    # ------------------------------------------------------------------
    def _initial_intents(self) -> np.ndarray:
        """Sample ``true_lambda`` distinct concepts biased to one community."""
        cfg = self.config
        home = self.rng.integers(0, len(self.space.community_names))
        members = self.space.members(int(home))
        intents: set[int] = set()
        while len(intents) < min(cfg.true_lambda, self.space.num_concepts):
            if self.rng.random() < 0.7 and len(members):
                intents.add(int(self.rng.choice(members)))
            else:
                intents.add(int(self.rng.integers(0, self.space.num_concepts)))
        return np.asarray(sorted(intents), dtype=np.int64)

    def _transition_intents(self, intents: np.ndarray,
                            transition_prob: float | None = None) -> np.ndarray:
        """Hop each intent along a concept-graph edge with ``transition_prob``.

        This is the ground-truth analogue of the paper's structured intent
        transition (Eq. 9): the next intentions are graph neighbours of the
        current ones.  ``transition_prob`` defaults to the config value;
        session boundaries pass ``session_boundary_prob`` to force a shift.
        """
        cfg = self.config
        if transition_prob is None:
            transition_prob = cfg.transition_prob
        updated: set[int] = set()
        for concept in intents:
            new_concept = int(concept)
            if self.rng.random() < cfg.community_jump_prob:
                new_concept = int(self.rng.integers(0, self.space.num_concepts))
            elif self.rng.random() < transition_prob:
                neighbors = self.space.neighbors(int(concept))
                if len(neighbors):
                    new_concept = int(self.rng.choice(neighbors))
            while new_concept in updated:
                new_concept = int(self.rng.integers(0, self.space.num_concepts))
            updated.add(new_concept)
        return np.asarray(sorted(updated), dtype=np.int64)

    def _sequence_length(self) -> int:
        cfg = self.config
        extra = self.rng.geometric(1.0 / max(cfg.avg_length - cfg.min_length + 1.0, 1.0)) - 1
        return int(np.clip(cfg.min_length + extra, cfg.min_length, cfg.max_length))

    def _session_length(self) -> int:
        """Geometric session length with mean ``session_avg_length``."""
        cfg = self.config
        base = max(cfg.session_avg_length - cfg.session_min_length + 1.0, 1.0)
        extra = self.rng.geometric(1.0 / base) - 1
        return int(cfg.session_min_length + extra)

    # ------------------------------------------------------------------
    # Structural side information (docs/graph-workloads.md)
    # ------------------------------------------------------------------
    def _relation_names(self) -> list[str]:
        """Names of the ``kg_relations`` relation types.

        The last slots carry the structural relations (concept-graph links,
        same-community item links); the rest type item->attribute edges.
        With very small ``kg_relations`` the types fold together.
        """
        count = int(self.config.kg_relations)
        names = [f"has_attribute_{r}" for r in range(count)]
        if count >= 2:
            names[-1] = "linked_concept"
        if count >= 3:
            names[-2] = "related_item"
        return names

    def _knowledge_graph_raw(self, item_concepts_true: np.ndarray,
                             item_community: np.ndarray) -> np.ndarray:
        """Sample raw KG triples over the unfiltered item/concept space.

        Three layers plus noise: (1) item ``has_attribute`` concept edges
        typed by the concept's community, (2) every concept-graph edge as a
        ``linked_concept`` triple (the "layered on the concept graph" part),
        (3) sampled same-community ``related_item`` pairs; finally a
        ``kg_noise`` fraction of uniformly random corrupted triples.  Uses a
        dedicated RNG stream so the main interaction draws are untouched.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + self.KG_SEED_OFFSET)
        count = int(cfg.kg_relations)
        attr_slots = max(count - 2, 1)
        rel_concept_link = count - 1 if count >= 2 else 0
        rel_related_item = count - 2 if count >= 3 else 0
        concept_entity = cfg.num_items + 1 + np.arange(self.space.num_concepts)
        rel_of_concept = self.space.community_of.astype(np.int64) % attr_slots

        budget = max(int(round(cfg.kg_triples_per_item * cfg.num_items)), 1)
        attribute_budget = max(int(np.ceil(budget * 2 / 3)), 1)
        related_budget = max(budget - attribute_budget, 0)
        triples: list[tuple[int, int, int]] = []

        # Layer 1 — item -> attribute-entity typing edges.
        items = rng.integers(0, cfg.num_items, size=attribute_budget)
        for item in items:
            concepts = np.flatnonzero(item_concepts_true[item])
            concept = int(rng.choice(concepts))
            triples.append((int(item) + 1, int(rel_of_concept[concept]),
                            int(concept_entity[concept])))

        # Layer 2 — the concept graph itself, lifted to triples.
        rows, cols = np.nonzero(np.triu(self.space.adjacency, k=1))
        for a, b in zip(rows.tolist(), cols.tolist()):
            triples.append((int(concept_entity[a]), rel_concept_link,
                            int(concept_entity[b])))

        # Layer 3 — same-community related items.
        members = {c: np.flatnonzero(item_community == c)
                   for c in np.unique(item_community)}
        for _ in range(related_budget):
            item = int(rng.integers(0, cfg.num_items))
            pool = members[int(item_community[item])]
            if len(pool) < 2:
                continue
            other = int(rng.choice(pool))
            if other == item:
                continue
            triples.append((item + 1, rel_related_item, other + 1))

        # Noise — uniformly random triples corrupting the structure.
        num_entities = cfg.num_items + self.space.num_concepts
        noise = int(round(cfg.kg_noise * len(triples)))
        if noise:
            heads = rng.integers(1, num_entities + 1, size=noise)
            relations = rng.integers(0, count, size=noise)
            tails = rng.integers(1, num_entities + 1, size=noise)
            keep = heads != tails
            triples.extend(zip(heads[keep].tolist(), relations[keep].tolist(),
                               tails[keep].tolist()))

        raw = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        return np.unique(raw, axis=0)

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------
    def generate(self) -> InteractionDataset:
        """Run the full pipeline and return a preprocessed dataset.

        Pipeline: simulate raw interactions -> write item descriptions ->
        extract + frequency-filter concepts (§4.1) -> 5-core filter ->
        assemble :class:`InteractionDataset`.
        """
        cfg = self.config
        item_community, item_concepts_true = self._assign_item_concepts()
        popularity = (1.0 / np.arange(1, cfg.num_items + 1) ** cfg.popularity_exponent)
        self.rng.shuffle(popularity)
        log_popularity = np.log(popularity)

        intent_overlap_scale = 1.0 / np.sqrt(item_concepts_true.sum(axis=1) + 1.0)
        sessions_enabled = cfg.session_avg_length is not None
        sequences: list[np.ndarray] = []
        user_intents: list[list[np.ndarray]] = []
        user_sessions: list[np.ndarray] = []
        for _ in range(cfg.num_users):
            length = self._sequence_length()
            intents = self._initial_intents()
            history: list[int] = []
            trace: list[np.ndarray] = []
            session_trace: list[int] = []
            if sessions_enabled:
                session_id, session_remaining = 0, self._session_length()
            for _step in range(length):
                intent_vector = np.zeros(self.space.num_concepts, dtype=np.float32)
                intent_vector[intents] = 1.0
                overlap = item_concepts_true @ intent_vector
                logits = (
                    cfg.intent_match_weight * overlap * intent_overlap_scale
                    + cfg.popularity_weight * log_popularity
                    + cfg.noise_scale * self.rng.gumbel(size=cfg.num_items)
                )
                blocked = history if cfg.repeat_window is None else history[-cfg.repeat_window:]
                for recent in blocked:
                    logits[recent - 1] = -np.inf
                item = int(np.argmax(logits)) + 1  # items are 1-indexed
                history.append(item)
                trace.append(intents)
                if not sessions_enabled:
                    intents = self._transition_intents(intents)
                    continue
                session_trace.append(session_id)
                session_remaining -= 1
                if session_remaining == 0:
                    # Boundary: new session, strongly shifted intents.
                    session_id += 1
                    session_remaining = self._session_length()
                    intents = self._transition_intents(
                        intents, transition_prob=cfg.session_boundary_prob)
                elif self.rng.random() >= cfg.session_coherence:
                    intents = self._transition_intents(intents)
                # else: intents held fixed — within-session coherence.
            sequences.append(np.asarray(history, dtype=np.int64))
            user_intents.append(trace)
            user_sessions.append(np.asarray(session_trace, dtype=np.int64))

        # The KG is sampled from a dedicated RNG stream (never self.rng), so
        # everything below this point is bit-identical whether the graph
        # knobs are set or None.
        kg_enabled = cfg.kg_relations is not None
        kg_triples_raw = (self._knowledge_graph_raw(item_concepts_true, item_community)
                          if kg_enabled else np.empty((0, 3), dtype=np.int64))

        descriptions = self._item_descriptions(item_concepts_true)
        extracted, kept = extract_concepts(descriptions, self.space)
        space, new_index = restrict_concept_space(self.space, kept)
        extracted = extracted[:, kept]

        # Keep raw structures so analysis can align the filtered dataset
        # with the recorded ground truth (see repro.analysis.ground_truth).
        self._raw_sequences = [seq.copy() for seq in sequences]
        sequences, item_map, kept_users = preprocessing.five_core(
            sequences, cfg.num_items, return_users=True)
        self._item_map = item_map
        self.ground_truth = GroundTruth(
            item_community=item_community,
            item_concepts_true=item_concepts_true,
            popularity=popularity,
            user_intents=user_intents,
            kept_users=kept_users,
            concept_index_map=new_index,
            user_sessions=user_sessions if sessions_enabled else [],
            kg_triples_raw=kg_triples_raw,
        )

        # 5-core drops items (and users) but preserves the order of what
        # survives, so each kept user's session trace filters positionally:
        # keep the trace entries whose item survived, then renumber the
        # surviving session ids consecutively from zero.
        session_ids: list[np.ndarray] | None = None
        if sessions_enabled:
            alive = item_map > 0
            session_ids = []
            for user in kept_users:
                raw_seq = self._raw_sequences[int(user)]
                surviving = user_sessions[int(user)][alive[raw_seq]]
                _, renumbered = np.unique(surviving, return_inverse=True)
                session_ids.append(renumbered.astype(np.int64))
        kept_items = np.flatnonzero(item_map > 0)  # original 1-indexed ids kept
        num_items = int(item_map.max())
        remapped_concepts = np.zeros((num_items + 1, space.num_concepts), dtype=np.float32)
        remapped_titles = [""] * num_items
        for original in kept_items:
            new_id = int(item_map[original])
            remapped_concepts[new_id] = extracted[original - 1]
            remapped_titles[new_id - 1] = descriptions[original - 1].split(" . ")[0]

        # 5-core alignment of the KG: item entities remap through item_map,
        # attribute entities through the restricted concept index; triples
        # touching anything dropped are removed, so the emitted graph
        # references only live entities.
        knowledge_graph: ItemKnowledgeGraph | None = None
        if kg_enabled:
            raw_entities = cfg.num_items + self.space.num_concepts
            entity_map = np.zeros(raw_entities + 1, dtype=np.int64)
            entity_map[1:cfg.num_items + 1] = item_map[1:]
            for raw_concept in range(self.space.num_concepts):
                if new_index[raw_concept] >= 0:
                    entity_map[cfg.num_items + 1 + raw_concept] = (
                        num_items + 1 + int(new_index[raw_concept]))
            heads = entity_map[kg_triples_raw[:, 0]]
            tails = entity_map[kg_triples_raw[:, 2]]
            alive_triples = (heads > 0) & (tails > 0)
            filtered = np.stack([heads[alive_triples],
                                 kg_triples_raw[alive_triples, 1],
                                 tails[alive_triples]], axis=1)
            knowledge_graph = ItemKnowledgeGraph(
                triples=np.unique(filtered, axis=0) if len(filtered) else filtered,
                num_items=num_items,
                num_entities=num_items + space.num_concepts,
                num_relations=int(cfg.kg_relations),
                relation_names=self._relation_names(),
                entity_names=list(space.names),
            )

        return InteractionDataset(
            name=cfg.name,
            sequences=sequences,
            num_items=num_items,
            item_concepts=remapped_concepts,
            concept_space=space,
            item_titles=remapped_titles,
            session_ids=session_ids,
            knowledge_graph=knowledge_graph,
        )


def generate_dataset(config: SimulatorConfig) -> InteractionDataset:
    """Convenience wrapper: build the simulator and generate once."""
    return IntentDrivenSimulator(config).generate()
