"""Claim verification with a dynamically updated news knowledge graph.

A claim is decomposed into sub-questions by a tree search, each answered by
a model augmented with triples retrieved from the graph; leaf verdicts are
majority-voted, and claims judged Real feed newly extracted triples back
into the graph for subsequent detections.
"""

from .dataset import DatasetSplit, NewsItem, load_dataset, split_subsets
from .gateway import (Gateway, HttpChatBackend, LLMRequest, LLMResponse,
                      PromptKind, RecordingBackend, ReplayBackend,
                      ScriptedBackend)
from .kg_builder import SourceDocument, build_graph
from .kg_store import (Entity, KnowledgeGraph, Triple, make_triple,
                       normalize_entity)
from .knowledge_update import apply_update, extract_new_knowledge
from .mcts import (ActionKind, EngineConfig, ReasoningPath, SearchEngine,
                   SearchNode, SearchTree, majority_verdict, path_reward,
                   uct_score)
from .metrics import MetricsReport, compute_metrics
from .oracle import FactTable, RuleBasedOracle
from .retrieval import RetrievalResult, retrieve_context
from .run import RunRecord, run_detection, run_sequential
from .verdict import Verdict

__all__ = [
    "ActionKind", "DatasetSplit", "EngineConfig", "Entity", "FactTable",
    "Gateway", "HttpChatBackend", "KnowledgeGraph", "LLMRequest",
    "LLMResponse", "MetricsReport", "NewsItem", "PromptKind", "ReasoningPath",
    "RecordingBackend", "ReplayBackend", "RetrievalResult", "RuleBasedOracle",
    "RunRecord", "ScriptedBackend", "SearchEngine", "SearchNode", "SearchTree",
    "SourceDocument", "Triple", "Verdict", "apply_update", "build_graph",
    "compute_metrics", "extract_new_knowledge", "load_dataset",
    "majority_verdict", "make_triple", "normalize_entity", "path_reward",
    "retrieve_context", "run_detection", "run_sequential", "split_subsets",
    "uct_score",
]
