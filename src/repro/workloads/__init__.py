"""Workloads: real data structures over simulated memory + STAMP-likes.

Importing this package registers every benchmark in ``WORKLOADS``; use
``make_workload(name, num_threads, scale, seed)`` to instantiate one.
The twelve names used by the paper's evaluation are: hash_table, btree,
art, rbtree, labyrinth, bayes, yada, intruder, vacation, kmeans, genome,
ssca2.
"""

from .alloc import AddressSpace, Arena
from .art import AdaptiveRadixTree
from .base import (
    WORKLOADS,
    IndexInsertWorkload,
    Workload,
    make_workload,
    register_workload,
    workload_names,
)
from .btree import BPlusTree
from .hash_table import HashTable
from .memview import MemView
from .rbtree import RedBlackTree
from .stamp import (
    SSCA2,
    Bayes,
    Genome,
    Intruder,
    KMeans,
    Labyrinth,
    Vacation,
    Yada,
)
from .synthetic import BurstyWrites, Streaming, UniformRandom, Zipfian
from .tenant import (
    DEFAULT_TENANTS,
    TENANT_CLASSES,
    Tenant,
    TenantClass,
    TenantLoadWorkload,
)
from .tracefile import (
    FrozenWorkload,
    TraceFormatError,
    TraceWorkload,
    freeze_workload,
    load_trace,
    save_trace,
)
from .ycsb import MIXES as YCSB_MIXES
from .ycsb import YCSBWorkload

#: The evaluation's twelve workloads, in the paper's figure order.
PAPER_WORKLOADS = [
    "hash_table",
    "btree",
    "art",
    "rbtree",
    "labyrinth",
    "bayes",
    "yada",
    "intruder",
    "vacation",
    "kmeans",
    "genome",
    "ssca2",
]

__all__ = [
    "AdaptiveRadixTree",
    "AddressSpace",
    "Arena",
    "BPlusTree",
    "Bayes",
    "BurstyWrites",
    "Genome",
    "HashTable",
    "IndexInsertWorkload",
    "Intruder",
    "KMeans",
    "Labyrinth",
    "MemView",
    "PAPER_WORKLOADS",
    "RedBlackTree",
    "DEFAULT_TENANTS",
    "FrozenWorkload",
    "SSCA2",
    "Streaming",
    "TENANT_CLASSES",
    "Tenant",
    "TenantClass",
    "TenantLoadWorkload",
    "TraceFormatError",
    "TraceWorkload",
    "UniformRandom",
    "Vacation",
    "WORKLOADS",
    "Workload",
    "YCSBWorkload",
    "YCSB_MIXES",
    "Yada",
    "Zipfian",
    "freeze_workload",
    "load_trace",
    "make_workload",
    "register_workload",
    "save_trace",
    "workload_names",
]
