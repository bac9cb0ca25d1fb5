"""The learned table-embedding column type classifier (step 3 of Fig. 4).

This is the offline stand-in for "a pretrained TaBERT model [whose]
parameters [were trained] towards GitTables and finetuned to enable semantic
column type detection": a feature-based table encoder feeding a numpy MLP.
It keeps the three properties the pipeline relies on:

* it covers the whole ontology (high coverage, learned from the corpus);
* it produces calibrated-ish class probabilities used as confidences;
* it has an explicit ``unknown`` background class for out-of-distribution
  columns (Section 4.3), trained from a background corpus.

The classifier can be *finetuned* with additional weakly-labeled examples
(warm-start training), which is how the DPBD loop adapts local models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import ModelNotTrainedError
from repro.core.ontology import UNKNOWN_TYPE
from repro.core.prediction import TypeScore
from repro.core.table import Column, Table
from repro.corpus.collection import TableCorpus
from repro.embedding_model.dataset import ColumnDataset, LabelVocabulary, build_dataset
from repro.embedding_model.features import ColumnFeaturizer
from repro.nn.model import MLPClassifier, MLPConfig

__all__ = ["TableEmbeddingClassifier"]


@dataclass
class _FitReport:
    """Summary of one fit/finetune call (returned for logging and tests)."""

    num_examples: int
    num_classes: int
    epochs: int
    final_train_accuracy: float
    final_validation_accuracy: float | None


class TableEmbeddingClassifier:
    """Featurizer + MLP classifier over the semantic type vocabulary."""

    def __init__(
        self,
        featurizer: ColumnFeaturizer | None = None,
        mlp_config: MLPConfig | None = None,
    ) -> None:
        self.featurizer = featurizer or ColumnFeaturizer()
        self.mlp_config = mlp_config or MLPConfig()
        self.vocabulary: LabelVocabulary | None = None
        self.model: MLPClassifier | None = None
        self.last_fit_report: _FitReport | None = None

    # ---------------------------------------------------------------- training
    def fit(
        self,
        corpus: TableCorpus,
        background_corpus: TableCorpus | None = None,
        vocabulary: LabelVocabulary | None = None,
        backend=None,
    ) -> "_FitReport":
        """Train from scratch on an annotated corpus.

        ``background_corpus`` columns are labeled ``unknown`` so the model
        learns an explicit out-of-distribution class.  ``backend`` optionally
        shards the corpus featurization pass across an execution backend
        (features stay bit-identical to the serial pass).
        """
        dataset = build_dataset(
            corpus,
            self.featurizer,
            vocabulary=vocabulary,
            background_corpus=background_corpus,
            backend=backend,
        )
        return self._fit_dataset(dataset, warm_start=False)

    def finetune(
        self,
        examples: Sequence[tuple[Column, Table | None, str]],
        epochs: int = 10,
    ) -> "_FitReport":
        """Continue training on weakly-labeled ``(column, table, label)`` triples.

        Labels outside the existing vocabulary are mapped to ``unknown`` when
        that class exists and are dropped otherwise; extending the label space
        itself is the job of the local model's labeling functions, not of the
        neural classifier (see :mod:`repro.adaptation`).
        """
        if self.model is None or self.vocabulary is None:
            raise ModelNotTrainedError("finetune called before fit")
        rows: list[tuple[Column, Table | None]] = []
        labels: list[int] = []
        for column, table, label in examples:
            if label in self.vocabulary:
                labels.append(self.vocabulary.index_of(label))
            elif self.vocabulary.unknown_index is not None:
                labels.append(self.vocabulary.unknown_index)
            else:
                continue
            rows.append((column, table))
        if not rows:
            return _FitReport(0, len(self.vocabulary), 0, 0.0, None)
        features = self.featurizer.extract_many(rows)
        history = self.model.fit(
            features, np.asarray(labels, dtype=np.int64), warm_start=True, max_epochs=epochs
        )
        report = _FitReport(
            num_examples=len(rows),
            num_classes=len(self.vocabulary),
            epochs=history.epochs,
            final_train_accuracy=history.train_accuracy[-1] if history.train_accuracy else 0.0,
            final_validation_accuracy=(
                history.validation_accuracy[-1] if history.validation_accuracy else None
            ),
        )
        self.last_fit_report = report
        return report

    def _fit_dataset(self, dataset: ColumnDataset, warm_start: bool) -> "_FitReport":
        self.vocabulary = dataset.vocabulary
        self.model = MLPClassifier(
            num_features=self.featurizer.dim,
            num_classes=max(len(dataset.vocabulary), 2),
            config=self.mlp_config,
        )
        history = self.model.fit(dataset.features, dataset.labels, warm_start=warm_start)
        report = _FitReport(
            num_examples=len(dataset),
            num_classes=len(dataset.vocabulary),
            epochs=history.epochs,
            final_train_accuracy=history.train_accuracy[-1] if history.train_accuracy else 0.0,
            final_validation_accuracy=(
                history.validation_accuracy[-1] if history.validation_accuracy else None
            ),
        )
        self.last_fit_report = report
        return report

    # --------------------------------------------------------------- inference
    @property
    def is_fitted(self) -> bool:
        """Whether the classifier has been trained."""
        return self.model is not None and self.model.is_fitted

    def _require_fitted(self) -> tuple[MLPClassifier, LabelVocabulary]:
        if self.model is None or self.vocabulary is None or not self.model.is_fitted:
            raise ModelNotTrainedError("TableEmbeddingClassifier used before fit")
        return self.model, self.vocabulary

    def predict_proba(self, column: Column, table: Table | None = None) -> dict[str, float]:
        """Class probabilities for one column as ``{type: probability}``."""
        model, vocabulary = self._require_fitted()
        features = self.featurizer.extract(column, table)
        probabilities = model.predict_proba(features[None, :])[0]
        return {vocabulary.type_at(index): float(p) for index, p in enumerate(probabilities)}

    def predict_proba_batch(
        self, rows: Sequence[tuple[Column, Table | None]]
    ) -> np.ndarray:
        """Class probabilities for a batch of ``(column, table)`` pairs.

        Featurizes the whole batch with
        :meth:`~repro.embedding_model.features.ColumnFeaturizer.extract_many`
        and issues **one** MLP forward pass, returning an array of shape
        ``(len(rows), num_classes)`` whose column order follows the label
        vocabulary.  This is the pipeline's hot path: one forward per table
        instead of one per column.
        """
        model, _ = self._require_fitted()
        if not rows:
            return np.zeros((0, len(self.vocabulary or [])), dtype=np.float64)
        features = self.featurizer.extract_many(list(rows))
        return model.predict_proba(features)

    def predict_columns_batch(
        self, rows: Sequence[tuple[Column, Table | None]], top_k: int = 5
    ) -> list[list[TypeScore]]:
        """Ranked :class:`TypeScore` candidates for a batch of columns.

        Semantics match calling :meth:`predict_column` per column (same
        ranking and tie-breaking), but all probabilities come from a single
        batched forward pass.
        """
        _, vocabulary = self._require_fitted()
        probabilities = self.predict_proba_batch(rows)
        types = list(vocabulary.types)
        ranked_rows: list[list[TypeScore]] = []
        for row in probabilities:
            scores = [
                TypeScore(confidence=float(probability), type_name=type_name)
                for type_name, probability in zip(types, row)
            ]
            scores.sort(key=lambda s: (-s.confidence, s.type_name))
            ranked_rows.append(scores[:top_k])
        return ranked_rows

    def predict_logits(self, column: Column, table: Table | None = None) -> np.ndarray:
        """Raw logits for one column (used by the energy-based OOD score)."""
        model, _ = self._require_fitted()
        features = self.featurizer.extract(column, table)
        return model.predict_logits(features[None, :])[0]

    def predict_column(
        self, column: Column, table: Table | None = None, top_k: int = 5
    ) -> list[TypeScore]:
        """Ranked :class:`TypeScore` candidates for one column."""
        probabilities = self.predict_proba(column, table)
        scores = [
            TypeScore(confidence=probability, type_name=type_name)
            for type_name, probability in probabilities.items()
        ]
        scores.sort(key=lambda s: (-s.confidence, s.type_name))
        return scores[:top_k]

    def predict_type(self, column: Column, table: Table | None = None) -> str:
        """Single best type (may be :data:`UNKNOWN_TYPE`)."""
        scores = self.predict_column(column, table, top_k=1)
        return scores[0].type_name if scores else UNKNOWN_TYPE

    def known_types(self) -> list[str]:
        """The semantic types the classifier can output."""
        _, vocabulary = self._require_fitted()
        return list(vocabulary.types)

    # ----------------------------------------------------------------- weights
    def snapshot_weights(self) -> list[np.ndarray]:
        """Copy of the underlying network weights (for local-model cloning)."""
        model, _ = self._require_fitted()
        return model.get_weights()

    def restore_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Restore weights captured with :meth:`snapshot_weights`."""
        model, _ = self._require_fitted()
        model.set_weights(list(weights))
