"""SigmaTyper: the end-to-end system facade.

This module assembles the full architecture of Fig. 2: a pretrained **global
model** (the 3-step cascade of Fig. 4) shared identically across customers,
plus per-customer **local models** adapted through data programming by
demonstration (Fig. 3).  The facade exposes the workflow a product would
build on:

>>> typer = SigmaTyper.pretrained()                  # offline pretraining
>>> typer.register_customer("acme")
>>> prediction = typer.annotate(table, customer_id="acme")
>>> typer.give_feedback("acme", table, "Income", "salary")   # Fig. 3 relabel
>>> prediction = typer.annotate(table, customer_id="acme")   # now adapted

Predictions below the precision threshold τ become abstentions; τ can be
calibrated from a validation corpus so a target precision is met.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.adaptation.customer import CustomerContext
from repro.adaptation.global_model import GlobalModel, GlobalModelConfig
from repro.adaptation.local_model import LocalModelConfig
from repro.core.aggregation import calibrate_tau
from repro.core.errors import ConfigurationError, PipelineError
from repro.core.ontology import TypeOntology, UNKNOWN_TYPE
from repro.core.pipeline import CascadeConfig, TypeDetectionPipeline
from repro.core.prediction import ColumnPrediction, TablePrediction, TypeScore
from repro.core.table import Table
from repro.corpus.collection import TableCorpus
from repro.dpbd.session import AdaptationUpdate

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.serving.backends import ExecutionBackend

__all__ = ["SigmaTyperConfig", "SigmaTyper"]


@dataclass
class SigmaTyperConfig:
    """System-level configuration of the SigmaTyper facade."""

    global_model: GlobalModelConfig = field(default_factory=GlobalModelConfig)
    local_model: LocalModelConfig = field(default_factory=LocalModelConfig)
    #: Give each customer a private finetunable copy of the learned classifier.
    #: Off by default because cloning the classifier per customer costs memory;
    #: the labeling functions alone already adapt predictions.
    private_classifier_copies: bool = False
    #: Candidates reported per column in the final prediction.
    top_k: int = 3


def _annotate_columnar(
    annotate_many: Callable[[list[Table]], list[TablePrediction]], tables: Sequence[Table]
) -> list[TablePrediction]:
    """Shard function of :meth:`SigmaTyper.annotate_corpus`: convert the
    shard's tables where the shard runs, then annotate them."""
    return annotate_many([table.to_block() for table in tables])


class SigmaTyper:
    """Global + local semantic column type detection with DPBD adaptation."""

    def __init__(
        self,
        global_model: GlobalModel,
        config: SigmaTyperConfig | None = None,
        source_corpus: TableCorpus | None = None,
    ) -> None:
        self.global_model = global_model
        self.config = config or SigmaTyperConfig()
        #: The corpus DPBD mines for weak labels (defaults to the pretraining corpus).
        self.source_corpus = source_corpus or global_model.training_corpus
        self._customers: dict[str, CustomerContext] = {}
        #: Lazily built variant of the global pipeline with the cascade
        #: short-circuit disabled (adapted customers need every step's
        #: evidence).  Kept in sync explicitly: :meth:`set_tau` propagates τ,
        #: and :meth:`invalidate_exhaustive_pipeline` forces a rebuild after
        #: structural pipeline changes.
        self._exhaustive: TypeDetectionPipeline | None = None

    # ----------------------------------------------------------------- factory
    @classmethod
    def pretrained(
        cls,
        training_corpus: TableCorpus | None = None,
        background_corpus: TableCorpus | None = None,
        ontology: TypeOntology | None = None,
        config: SigmaTyperConfig | None = None,
        include_learned_model: bool = True,
    ) -> "SigmaTyper":
        """Pretrain the global model and return a ready-to-use system.

        With no arguments this generates the synthetic GitTables-like
        pretraining corpus and an OOD background corpus, then trains the
        learned classifier — the offline equivalent of the paper's
        "pretrained on GitTables" global model.
        """
        config = config or SigmaTyperConfig()
        global_model = GlobalModel.pretrain(
            training_corpus=training_corpus,
            background_corpus=background_corpus,
            ontology=ontology,
            config=config.global_model,
            include_learned_model=include_learned_model,
        )
        return cls(global_model, config=config)

    # --------------------------------------------------------------- customers
    @property
    def customer_ids(self) -> list[str]:
        """Registered customers, in registration order."""
        return list(self._customers)

    def register_customer(self, customer_id: str) -> CustomerContext:
        """Create the local model and DPBD session for a new customer."""
        if not customer_id:
            raise ConfigurationError("customer_id must be non-empty")
        if customer_id in self._customers:
            raise ConfigurationError(f"customer {customer_id!r} is already registered")
        classifier = None
        if self.config.private_classifier_copies and self.global_model.classifier is not None:
            classifier = self._clone_classifier()
        context = CustomerContext.create(
            customer_id,
            source_corpus=self.source_corpus,
            local_config=self.config.local_model,
            classifier=classifier,
        )
        self._customers[customer_id] = context
        return context

    def customer(self, customer_id: str) -> CustomerContext:
        """Return the context of a registered customer."""
        try:
            return self._customers[customer_id]
        except KeyError as exc:
            raise ConfigurationError(f"unknown customer {customer_id!r}") from exc

    def _clone_classifier(self):
        """A private, finetunable copy of the global learned classifier."""
        from repro.embedding_model.classifier import TableEmbeddingClassifier

        source = self.global_model.classifier
        assert source is not None
        clone = TableEmbeddingClassifier(featurizer=source.featurizer, mlp_config=source.mlp_config)
        clone.vocabulary = source.vocabulary
        from repro.nn.model import MLPClassifier

        clone.model = MLPClassifier(
            num_features=source.featurizer.dim,
            num_classes=max(len(source.vocabulary or []), 2),
            config=source.mlp_config,
        )
        clone.model._feature_mean = source.model._feature_mean  # noqa: SLF001 - deliberate deep copy
        clone.model._feature_scale = source.model._feature_scale  # noqa: SLF001
        clone.model.set_weights(source.model.get_weights())
        return clone

    # --------------------------------------------------------------- inference
    @property
    def tau(self) -> float:
        """The current precision threshold τ."""
        return self.global_model.pipeline.config.tau

    def set_tau(self, tau: float) -> None:
        """Override the precision threshold τ (on every derived pipeline too)."""
        if not 0.0 <= tau <= 1.0:
            raise ConfigurationError("tau must be in [0, 1]")
        self.global_model.pipeline.config.tau = tau
        # Explicit invalidation of the derived exhaustive pipeline's τ: it is
        # the only piece of its config that recalibration may change.
        if self._exhaustive is not None:
            self._exhaustive.config.tau = tau

    @property
    def confidence_threshold(self) -> float:
        """The current cascade confidence threshold c."""
        return self.global_model.pipeline.config.confidence_threshold

    def set_confidence_threshold(self, confidence_threshold: float) -> None:
        """Override the cascade confidence threshold c on every pipeline.

        Unlike structural pipeline changes this needs no cache invalidation:
        every cache in the system (per-column memos, feature vectors,
        embedder phrases) is keyed by column content and model state, while c
        only gates *which steps run* for a column.  Lowering c makes the
        cascade shallower (faster, the E10 trade-off); it is the control
        variable the serving layer's SLO controller steps under load (see
        :mod:`repro.serving.slo`).  The derived exhaustive pipeline runs all
        steps regardless, but its config is kept in sync so ``summary()`` and
        rebuilds never observe a stale threshold.
        """
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ConfigurationError("confidence_threshold must be in [0, 1]")
        self.global_model.pipeline.config.confidence_threshold = confidence_threshold
        if self._exhaustive is not None:
            self._exhaustive.config.confidence_threshold = confidence_threshold

    def annotate(self, table: Table, customer_id: str | None = None) -> TablePrediction:
        """Predict the semantic types of every column in *table*.

        Without a ``customer_id`` (or for a customer that has given no
        feedback yet) this is exactly the global cascade.  For an adapted
        customer, the pipeline is run exhaustively (every step on every
        column) so the blend has value- and model-based evidence even for
        columns whose header alone satisfied the cascade — a customer gives
        feedback precisely because the cheap signals mislead in their context
        — and every column's global confidences are then combined with the
        local model's evidence using the per-type weight vectors W_g / W_l.
        """
        if customer_id is None:
            return self.global_model.annotate(table)
        context = self.customer(customer_id)
        if not context.local_model.has_adaptations():
            return self.global_model.annotate(table)
        global_prediction = self._exhaustive_pipeline().annotate(table)
        return self._blend_with_local(table, global_prediction, context)

    def annotate_corpus(
        self,
        tables: Iterable[Table],
        customer_id: str | None = None,
        backend: "ExecutionBackend | str | None" = None,
    ) -> list[TablePrediction]:
        """Bulk-annotate many tables (a :class:`TableCorpus` or any iterable).

        This is the high-throughput entry point: per-table results are
        identical to calling :meth:`annotate` in a loop, but the batched
        pipeline steps and the memoized profile/embedding caches are shared
        across the whole corpus.  Adapted customers ride the same bulk path:
        the exhaustive pipeline annotates the corpus with
        ``annotate_many`` and the global/local blend is vectorized per table.

        ``backend`` shards the corpus by table across workers — ``None`` /
        ``"serial"`` runs in-process, ``"multiprocess[:N]"`` (or an
        :class:`~repro.serving.backends.ExecutionBackend` instance) forks
        workers; every backend returns predictions identical to the serial
        path.  The multiprocess spec may also name a shard transport —
        ``"multiprocess:4+shm"`` ships shards as zero-copy shared-memory
        column blocks instead of pickle (see :mod:`repro.serving.transport`),
        again with bit-identical results.

        Whatever the backend, each shard converts its own tables with
        :meth:`~repro.core.table.Table.to_block` where it runs — in-process
        for ``serial``, inside the worker for ``multiprocess`` — so
        profiling and featurization of every column of at least
        :data:`~repro.core.colblock.MIN_KERNEL_ROWS` rows run vectorized.
        Predictions are bit-identical to the per-value path either way.
        """
        from repro.serving.backends import resolve_backend

        tables = list(tables)
        execution = resolve_backend(backend)
        annotate_many = self.global_model.pipeline.annotate_many
        if customer_id is not None and self.customer(customer_id).local_model.has_adaptations():
            annotate_many = partial(self._annotate_adapted_many, customer_id)
        return execution.run(partial(_annotate_columnar, annotate_many), tables)

    def _annotate_adapted_many(
        self, customer_id: str, tables: Sequence[Table]
    ) -> list[TablePrediction]:
        """One shard of the adapted-customer bulk path (backend-friendly)."""
        context = self.customer(customer_id)
        pipeline = self._exhaustive_pipeline()
        global_predictions = pipeline.annotate_many(list(tables))
        return [
            self._blend_with_local(table, prediction, context)
            for table, prediction in zip(tables, global_predictions)
        ]

    def _exhaustive_pipeline(self) -> TypeDetectionPipeline:
        """The global pipeline with the cascade short-circuit disabled."""
        if self._exhaustive is None:
            base = self.global_model.pipeline
            config = CascadeConfig(
                confidence_threshold=base.config.confidence_threshold,
                tau=base.config.tau,
                top_k=max(base.config.top_k, 5),
                always_run_all_steps=True,
                aggregation_method=base.config.aggregation_method,
            )
            self._exhaustive = TypeDetectionPipeline(base.steps, config=config, aggregator=base.aggregator)
        return self._exhaustive

    def invalidate_exhaustive_pipeline(self) -> None:
        """Force a rebuild of the derived exhaustive pipeline.

        Call after structurally modifying ``global_model.pipeline`` (steps,
        thresholds other than τ — :meth:`set_tau` already propagates τ).
        """
        self._exhaustive = None

    def _blend_with_local(
        self,
        table: Table,
        global_prediction: TablePrediction,
        context: CustomerContext,
    ) -> TablePrediction:
        """Blend one table's global prediction with a customer's local evidence.

        The per-type convex combination and the competing-type discount of
        :meth:`~repro.adaptation.local_model.LocalModel.combine_with_global`
        are applied to all of the table's columns at once on a shared type
        axis, and the local classifier (when finetuned) runs one batched
        forward per table instead of one per column.
        """
        local_model = context.local_model
        columns = [table.columns[p.column_index] for p in global_prediction.columns]
        local_scores_per_column = local_model.predict_scores_table(columns, table)

        # Shared type axis: the union of candidate types across the table.
        type_names: list[str] = []
        type_index: dict[str, int] = {}
        global_scores_per_column: list[dict[str, float]] = []
        for prediction, local_scores in zip(global_prediction.columns, local_scores_per_column):
            global_scores = {score.type_name: score.confidence for score in prediction.scores}
            global_scores_per_column.append(global_scores)
            for type_name in (*global_scores, *local_scores):
                if type_name not in type_index:
                    type_index[type_name] = len(type_names)
                    type_names.append(type_name)

        num_columns = len(columns)
        num_types = len(type_names)
        global_matrix = np.zeros((num_columns, num_types), dtype=np.float64)
        local_matrix = np.zeros((num_columns, num_types), dtype=np.float64)
        #: Type participates in the column's local evidence (even at 0.0).
        local_present = np.zeros((num_columns, num_types), dtype=bool)
        #: Type is a candidate for the column at all (drives the output set).
        candidate = np.zeros((num_columns, num_types), dtype=bool)
        for row, (global_scores, local_scores) in enumerate(
            zip(global_scores_per_column, local_scores_per_column)
        ):
            for type_name, confidence in global_scores.items():
                index = type_index[type_name]
                global_matrix[row, index] = confidence
                candidate[row, index] = True
            for type_name, confidence in local_scores.items():
                index = type_index[type_name]
                local_matrix[row, index] = confidence
                local_present[row, index] = True
                candidate[row, index] = True

        weights = local_model.weights
        local_weight = np.array(
            [weights.local_weight(type_name) for type_name in type_names], dtype=np.float64
        )
        if num_types:
            # Per-type convex combination W_g·global + W_l·local, then the
            # competing-type discount: types without local evidence are scaled
            # by one minus the customer's strongest local signal, so repeated
            # corrections can overturn a confident-but-wrong global label.
            combined = (1.0 - local_weight)[None, :] * global_matrix
            combined += local_weight[None, :] * local_matrix
            override_strength = np.where(
                local_present, local_weight[None, :] * local_matrix, 0.0
            ).max(axis=1)
            discounted = combined * (1.0 - override_strength)[:, None]
            combined = np.where(local_present, combined, discounted)
        else:
            combined = np.zeros((num_columns, 0), dtype=np.float64)

        tau = self.tau
        blended_columns: list[ColumnPrediction] = []
        for row, prediction in enumerate(global_prediction.columns):
            ranked = [
                TypeScore(confidence=float(combined[row, index]), type_name=type_name)
                for index, type_name in enumerate(type_names)
                if candidate[row, index] and type_name != UNKNOWN_TYPE
            ]
            ranked.sort(key=lambda score: (-score.confidence, score.type_name))
            top = ranked[: self.config.top_k]
            abstained = not top or top[0].confidence < tau
            blended_columns.append(
                ColumnPrediction(
                    column_index=prediction.column_index,
                    column_name=prediction.column_name,
                    scores=top,
                    source_step="global+local" if local_model.has_adaptations() else prediction.source_step,
                    abstained=abstained,
                    step_scores=prediction.step_scores,
                )
            )
        return TablePrediction(
            table_name=global_prediction.table_name,
            columns=blended_columns,
            step_trace=dict(global_prediction.step_trace),
            step_seconds=dict(global_prediction.step_seconds),
        )

    # ---------------------------------------------------------------- feedback
    def give_feedback(
        self,
        customer_id: str,
        table: Table,
        column_name: str,
        corrected_type: str,
        previous_type: str | None = None,
    ) -> AdaptationUpdate:
        """Apply an explicit relabel (Fig. 3 ①–④) for one customer."""
        context = self.customer(customer_id)
        update = context.dpbd.relabel(
            table, column_name, corrected_type, previous_type=previous_type
        )
        context.apply(update)
        return update

    def approve_prediction(
        self,
        customer_id: str,
        table: Table,
        column_name: str,
        approved_type: str,
        implicit: bool = True,
    ) -> AdaptationUpdate:
        """Record that the user kept (or confirmed) a predicted type."""
        context = self.customer(customer_id)
        update = context.dpbd.approve(table, column_name, approved_type, implicit=implicit)
        context.apply(update)
        return update

    def accept_table(
        self,
        customer_id: str,
        table: Table,
        prediction: TablePrediction,
        exclude_columns: tuple[str, ...] = (),
    ) -> list[AdaptationUpdate]:
        """Treat every non-abstained prediction of a table as implicitly approved.

        This mirrors the paper's flow where "the entire table with its labels
        is then added to the training data" when the user proceeds with their
        analysis without correcting anything further.
        """
        updates = []
        for column_prediction in prediction.columns:
            if column_prediction.abstained:
                continue
            if column_prediction.column_name in exclude_columns:
                continue
            updates.append(
                self.approve_prediction(
                    customer_id,
                    table,
                    column_prediction.column_name,
                    column_prediction.predicted_type,
                    implicit=True,
                )
            )
        return updates

    # -------------------------------------------------------------- calibration
    def calibrate_tau(
        self,
        validation_corpus: TableCorpus,
        target_precision: float = 0.95,
        customer_id: str | None = None,
        backend: "ExecutionBackend | str | None" = None,
    ) -> float:
        """Pick τ from a labeled validation corpus so precision reaches the target.

        Calibration rides the batched :meth:`annotate_corpus` path (optionally
        sharded across an execution backend).  Returns the calibrated τ (and
        installs it on the pipeline).
        """
        scored: list[tuple[float, bool]] = []
        original_tau = self.tau
        # Collect raw confidences with thresholding disabled.
        self.set_tau(0.0)
        try:
            tables = list(validation_corpus)
            predictions = self.annotate_corpus(tables, customer_id=customer_id, backend=backend)
            for table, prediction in zip(tables, predictions):
                for column, column_prediction in zip(table.columns, prediction.columns):
                    if column.semantic_type is None or not column_prediction.scores:
                        continue
                    scored.append(
                        (
                            column_prediction.confidence,
                            column_prediction.predicted_type == column.semantic_type,
                        )
                    )
        finally:
            self.set_tau(original_tau)
        if not scored:
            raise PipelineError("calibration corpus produced no scored predictions")
        tau = calibrate_tau(scored, target_precision=target_precision)
        self.set_tau(tau)
        return tau

    # ------------------------------------------------------------------ report
    def summary(self) -> dict[str, object]:
        """System-level report (pipeline steps, τ, customers, adaptations).

        Once any multiprocess run shipped shards, the process-wide
        per-transport accounting (``bytes_shipped``, ``shm_bytes``,
        ``pickle_fallbacks`` — see :mod:`repro.serving.transport`) is
        included under ``shard_transport``.

        Two always-present operator keys round out the report:
        ``columnar_kernels`` (block-native kernel hit/fallback counters —
        :func:`repro.core.colblock.kernel_stats`) and ``timings`` (per-stage
        exclusive wall-clock for profile / featurize / classify / match /
        lookup — :func:`repro.core.timings.stage_timings`), so E10/E15 can
        attribute speedups instead of reporting one opaque col/s number.
        """
        # The shared sections (shard_transport / columnar_kernels / timings)
        # come from the serving layer's unified stats vocabulary, so this
        # report and every serving summary() spell the same counters
        # identically (docs/SERVING.md#stats-vocabulary).
        from repro.serving.stats import render_stats

        report: dict[str, object] = {
            "pipeline_steps": self.global_model.pipeline.step_names,
            "tau": self.tau,
            "confidence_threshold": self.global_model.pipeline.config.confidence_threshold,
            "ontology_types": len(self.global_model.ontology),
            "customers": {
                customer_id: context.summary()
                for customer_id, context in self._customers.items()
            },
        }
        report.update(render_stats(typer=self))
        return report
