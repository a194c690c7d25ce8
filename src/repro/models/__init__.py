"""Baseline recommenders reproduced from their original papers (Table 2),
plus the structure-aware baselines KTUP and FM (docs/graph-workloads.md)."""

from repro.models.base import Recommender, SequenceRecommender
from repro.models.bert4rec import BERT4Rec, BERT4RecConcept
from repro.models.bpr_mf import BPRMF
from repro.models.caser import Caser
from repro.models.dgcf import DGCF
from repro.models.fm import FM
from repro.models.fpmc import FPMC
from repro.models.gru4rec import GRU4Rec, GRU4RecPlus
from repro.models.ktup import KTUP
from repro.models.ncf import NCF
from repro.models.pop import PopRec
from repro.models.sasrec import SASRec, SASRecConcept

__all__ = [
    "Recommender",
    "SequenceRecommender",
    "PopRec",
    "BPRMF",
    "NCF",
    "FPMC",
    "GRU4Rec",
    "GRU4RecPlus",
    "DGCF",
    "Caser",
    "SASRec",
    "SASRecConcept",
    "KTUP",
    "FM",
    "BERT4Rec",
    "BERT4RecConcept",
]
