"""Dataset substrate: synthetic intent-driven interaction data.

Replaces the paper's Amazon/Steam/Epinions/MovieLens datasets and the
ConceptNet concept graph with a generative simulator whose ground truth is
exactly the intent process ISRec models (see DESIGN.md §2 for the
substitution argument).
"""

from repro.data.batching import (
    evaluation_inputs,
    markov_batches,
    next_item_batches,
    pad_left,
    pairwise_batches,
    session_starts,
)
from repro.data.concepts import (
    ConceptSpace,
    build_concept_space,
    extract_concepts,
    restrict_concept_space,
    tokenize,
)
from repro.data.dataset import ConceptStatistics, DatasetStatistics, InteractionDataset
from repro.data.graphs import (
    GraphStatistics,
    ItemKnowledgeGraph,
    graph_statistics,
)
from repro.data.io import load_dataset_file, save_dataset
from repro.data.preprocessing import (
    LeaveOneOutSplit,
    five_core,
    sample_negatives,
    split_leave_one_out,
)
from repro.data.registry import (
    DEFAULT_MAX_LEN,
    PROFILES,
    available_profiles,
    default_max_len,
    graph_profiles,
    load_dataset,
)
from repro.data.synthetic import (
    GroundTruth,
    IntentDrivenSimulator,
    SimulatorConfig,
    generate_dataset,
)

__all__ = [
    "ConceptSpace", "build_concept_space", "extract_concepts",
    "restrict_concept_space", "tokenize",
    "InteractionDataset", "DatasetStatistics", "ConceptStatistics",
    "ItemKnowledgeGraph", "GraphStatistics", "graph_statistics",
    "LeaveOneOutSplit", "five_core", "sample_negatives", "split_leave_one_out",
    "pad_left", "next_item_batches", "pairwise_batches", "markov_batches",
    "evaluation_inputs", "session_starts",
    "SimulatorConfig", "IntentDrivenSimulator", "GroundTruth", "generate_dataset",
    "PROFILES", "DEFAULT_MAX_LEN", "available_profiles", "default_max_len",
    "graph_profiles", "load_dataset",
    "save_dataset",
    "load_dataset_file",
]
