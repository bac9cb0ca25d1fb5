"""repro — a reproduction of "Making Table Understanding Work in Practice" (CIDR 2022).

The package implements SigmaTyper, a practical semantic column type detection
system: a hybrid cascading pipeline (header matching, value lookup, learned
table-embedding model), a global/local model architecture customised per
customer, and data programming by demonstration (DPBD) for lightweight
adaptation from user feedback — plus every substrate it depends on (synthetic
GitTables-like corpora, a data profiler, a numpy neural-network stack,
baselines, and an evaluation harness).

Quickstart
----------
>>> from repro import SigmaTyper, Table
>>> typer = SigmaTyper.pretrained()
>>> table = Table.from_columns_dict({"Income": ["$ 50K", "$ 60K", "$ 70K"]})
>>> prediction = typer.annotate(table)
>>> prediction.columns[0].predicted_type
"""

from repro.core.aggregation import Aggregator, calibrate_tau
from repro.core.datatypes import DataType
from repro.core.errors import ReproError
from repro.core.ontology import (
    UNKNOWN_TYPE,
    DataKind,
    SemanticType,
    TypeOntology,
    build_default_ontology,
)
from repro.core.pipeline import CascadeConfig, PipelineStep, TypeDetectionPipeline
from repro.core.prediction import ColumnPrediction, TablePrediction, TypeScore
from repro.core.sigmatyper import SigmaTyper, SigmaTyperConfig
from repro.core.table import Column, Table
from repro.corpus.collection import TableCorpus
from repro.corpus.gittables import GitTablesConfig, GitTablesGenerator
from repro.corpus.webtables import WebTablesConfig, WebTablesGenerator
from repro.serving import (
    AdaptiveBatchingConfig,
    AnnotationFrontend,
    AnnotationPool,
    AnnotationService,
    ExecutionBackend,
    FrontendConfig,
    MultiprocessBackend,
    PoolSpec,
    ProfileStore,
    SerialBackend,
    ServingSpec,
    SloConfig,
    SloController,
    ThreadedBackend,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # tables and types
    "Table",
    "Column",
    "DataType",
    "SemanticType",
    "DataKind",
    "TypeOntology",
    "build_default_ontology",
    "UNKNOWN_TYPE",
    # predictions and pipeline
    "TypeScore",
    "ColumnPrediction",
    "TablePrediction",
    "PipelineStep",
    "TypeDetectionPipeline",
    "CascadeConfig",
    "Aggregator",
    "calibrate_tau",
    # the system
    "SigmaTyper",
    "SigmaTyperConfig",
    # serving
    "AnnotationService",
    "AdaptiveBatchingConfig",
    "AnnotationFrontend",
    "AnnotationPool",
    "PoolSpec",
    "ServingSpec",
    "FrontendConfig",
    "SloConfig",
    "SloController",
    "ProfileStore",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "MultiprocessBackend",
    # corpora
    "TableCorpus",
    "GitTablesGenerator",
    "GitTablesConfig",
    "WebTablesGenerator",
    "WebTablesConfig",
    # errors
    "ReproError",
]
