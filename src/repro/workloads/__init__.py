"""Workload generators: random patterns, IP routing, ACLs, HDC memory,
corpus-scale associative retrieval."""

from .patterns import PatternStream
from .iproute import Route, RoutingTable, synthetic_routing_table
from .packetclass import AclRule, Packet, RuleSet, synthetic_acl
from .hdc import HDCMemory, HDCEncoder
from .signatures import (
    ScanHit,
    Signature,
    SignatureSet,
    plant_signatures,
    synthetic_signatures,
)
from .retrieval import (
    CorpusConfig,
    QueryStats,
    RetrievalIndex,
    exact_topk,
    make_queries,
    recall_at_k,
    run_retrieval,
    synthetic_corpus,
)

__all__ = [
    "PatternStream",
    "Route",
    "RoutingTable",
    "synthetic_routing_table",
    "AclRule",
    "Packet",
    "RuleSet",
    "synthetic_acl",
    "HDCEncoder",
    "HDCMemory",
    "Signature",
    "SignatureSet",
    "ScanHit",
    "synthetic_signatures",
    "plant_signatures",
    "CorpusConfig",
    "QueryStats",
    "RetrievalIndex",
    "synthetic_corpus",
    "make_queries",
    "exact_topk",
    "recall_at_k",
    "run_retrieval",
]
