"""The global model: the pipeline shared identically across all customers.

Figure 2: "SIGMATYPER incorporates a pretrained global model identically
deployed across all customers, which combines heuristics with a learned model
to establish high precision and semantic type coverage."  Concretely the
global model is the 3-step cascade — header matching, value lookup with the
*global* labeling functions / knowledge base / regexes, and the learned
table-embedding classifier pretrained on the GitTables-like corpus with a
background ``unknown`` class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.aggregation import Aggregator
from repro.core.ontology import TypeOntology, build_default_ontology
from repro.core.pipeline import CascadeConfig, TypeDetectionPipeline
from repro.core.prediction import TablePrediction
from repro.core.table import Table
from repro.corpus.collection import TableCorpus
from repro.corpus.gittables import GitTablesConfig, GitTablesGenerator
from repro.corpus.shift import build_ood_corpus
from repro.embedding_model.classifier import TableEmbeddingClassifier
from repro.embedding_model.features import ColumnFeaturizer
from repro.embedding_model.step import TableEmbeddingStep
from repro.lookup.knowledge_base import KnowledgeBase
from repro.lookup.labeling_functions import LabelingFunctionStore
from repro.lookup.regex_library import RegexLibrary
from repro.lookup.value_matcher import ValueLookupConfig, ValueLookupStep
from repro.matching.header_matcher import HeaderMatcher, HeaderMatcherConfig
from repro.nn.model import MLPConfig

__all__ = ["GlobalModelConfig", "GlobalModel"]


@dataclass
class GlobalModelConfig:
    """Everything needed to pretrain the shared global model."""

    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    header_matcher: HeaderMatcherConfig = field(default_factory=HeaderMatcherConfig)
    value_lookup: ValueLookupConfig = field(default_factory=ValueLookupConfig)
    mlp: MLPConfig = field(default_factory=lambda: MLPConfig(max_epochs=40))
    #: Number of synthetic pretraining tables when no corpus is supplied.
    pretraining_tables: int = 150
    #: Number of background (unknown-class) tables when none are supplied.
    background_tables: int = 30
    #: Execution backend for the pretraining corpus featurization pass
    #: (``None``/"serial" or "multiprocess[:N]" — the multiprocess shard
    #: path produces bit-identical features).
    featurization_backend: str | None = None
    seed: int = 7


class GlobalModel:
    """The shared, pretrained hybrid model (heuristics + learned classifier)."""

    def __init__(
        self,
        ontology: TypeOntology,
        pipeline: TypeDetectionPipeline,
        header_matcher: HeaderMatcher,
        value_lookup: ValueLookupStep,
        embedding_step: TableEmbeddingStep | None,
        training_corpus: TableCorpus,
        config: GlobalModelConfig,
    ) -> None:
        self.ontology = ontology
        self.pipeline = pipeline
        self.header_matcher = header_matcher
        self.value_lookup = value_lookup
        self.embedding_step = embedding_step
        self.training_corpus = training_corpus
        self.config = config

    # ----------------------------------------------------------------- factory
    @classmethod
    def pretrain(
        cls,
        training_corpus: TableCorpus | None = None,
        background_corpus: TableCorpus | None = None,
        ontology: TypeOntology | None = None,
        config: GlobalModelConfig | None = None,
        include_learned_model: bool = True,
    ) -> "GlobalModel":
        """Build and pretrain the global model.

        When no corpora are supplied, synthetic GitTables-like pretraining
        data and an OOD background set are generated — the offline equivalent
        of "SIGMATYPER is pretrained on GitTables".
        """
        config = config or GlobalModelConfig()
        ontology = ontology or build_default_ontology()
        if training_corpus is None:
            training_corpus = GitTablesGenerator(
                GitTablesConfig(num_tables=config.pretraining_tables, seed=config.seed)
            ).generate_corpus()
        if background_corpus is None and include_learned_model:
            background_corpus = build_ood_corpus(
                num_tables=config.background_tables, seed=config.seed + 1
            )

        # Step 1: header matching, with the embedder fitted on the ontology
        # vocabulary plus the headers observed in the pretraining corpus.
        header_sentences = _header_sentences(training_corpus)
        header_matcher = HeaderMatcher.with_trained_embedder(
            ontology, extra_sentences=header_sentences, config=config.header_matcher
        )

        # Step 2: value lookup with the global rule set.
        value_lookup = ValueLookupStep(
            knowledge_base=KnowledgeBase.default(),
            regex_library=RegexLibrary(),
            labeling_functions=LabelingFunctionStore(),
            config=config.value_lookup,
        )

        # Step 3: the learned table-embedding classifier.  The corpus
        # featurization pass can be sharded by table across an execution
        # backend (the multiprocess path keeps features bit-identical).
        embedding_step = None
        if include_learned_model:
            classifier = TableEmbeddingClassifier(
                featurizer=ColumnFeaturizer(), mlp_config=config.mlp
            )
            classifier.fit(
                training_corpus,
                background_corpus=background_corpus,
                backend=config.featurization_backend,
            )
            embedding_step = TableEmbeddingStep(classifier)

        steps = [header_matcher, value_lookup]
        if embedding_step is not None:
            steps.append(embedding_step)
        pipeline = TypeDetectionPipeline(
            steps,
            config=config.cascade,
            aggregator=Aggregator(method=config.cascade.aggregation_method),
        )
        return cls(
            ontology=ontology,
            pipeline=pipeline,
            header_matcher=header_matcher,
            value_lookup=value_lookup,
            embedding_step=embedding_step,
            training_corpus=training_corpus,
            config=config,
        )

    # --------------------------------------------------------------- inference
    def annotate(self, table: Table) -> TablePrediction:
        """Run the shared cascade on one table."""
        return self.pipeline.annotate(table)

    @property
    def classifier(self) -> TableEmbeddingClassifier | None:
        """The learned classifier, when the global model includes one."""
        return self.embedding_step.classifier if self.embedding_step else None

    @property
    def global_labeling_functions(self) -> LabelingFunctionStore:
        """The global (shared) labeling-function store of the lookup step."""
        return self.value_lookup.labeling_functions


def _header_sentences(corpus: TableCorpus) -> list[list[str]]:
    """Group observed headers by ground-truth type for embedder training."""
    by_type: dict[str, list[str]] = {}
    for entry in corpus.labeled_columns():
        header = entry.column.name.strip()
        if header:
            by_type.setdefault(entry.label, []).append(header)  # type: ignore[arg-type]
    return [[type_name, *headers] for type_name, headers in by_type.items()]
