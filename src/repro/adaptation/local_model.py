"""Per-customer local model.

Each customer gets a local model that accumulates the outcome of DPBD:
labeling functions inferred from their feedback, weakly labeled training
examples mined from the source corpus, a per-type weight vector governing how
strongly the local evidence overrides the global model, and (optionally) a
finetuned copy of the global table-embedding classifier.  "The newly
generated training data is only used to adapt the local model", so nothing a
customer does ever leaks into other customers' predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.table import Column, Table
from repro.dpbd.feedback import ImplicitApproval
from repro.dpbd.label_model import MajorityVoteLabelModel
from repro.dpbd.session import AdaptationUpdate
from repro.embedding_model.classifier import TableEmbeddingClassifier
from repro.lookup.labeling_functions import LabelingFunctionStore
from repro.adaptation.weights import GlobalLocalWeights, WeightScheduleConfig

__all__ = ["LocalModelConfig", "LocalModel"]


@dataclass
class LocalModelConfig:
    """Behavioural knobs of a customer's local model."""

    weight_schedule: WeightScheduleConfig = field(default_factory=WeightScheduleConfig)
    #: Finetune the local classifier copy every N applied updates (0 = never).
    finetune_every: int = 0
    #: Epochs per finetuning round.
    finetune_epochs: int = 5
    #: Cap on retained training examples (oldest are dropped beyond it).
    max_training_examples: int = 2000


class LocalModel:
    """Customer-specific labeling functions, training data, and weights."""

    def __init__(
        self,
        customer_id: str,
        config: LocalModelConfig | None = None,
        classifier: TableEmbeddingClassifier | None = None,
    ) -> None:
        self.customer_id = customer_id
        self.config = config or LocalModelConfig()
        self.labeling_functions = LabelingFunctionStore()
        self.weights = GlobalLocalWeights(config=self.config.weight_schedule)
        #: Combines each column's votes independently of the other columns,
        #: which is what lets a whole table be labeled in one call.
        self.label_model = MajorityVoteLabelModel()
        #: Optional customer-private copy of the learned classifier.
        self.classifier = classifier
        self.training_examples: list[tuple[Column, Table | None, str]] = []
        self.updates_applied = 0
        self._updates_since_finetune = 0

    # ------------------------------------------------------------------ state
    @property
    def adapted_types(self) -> list[str]:
        """Types for which this customer has provided feedback."""
        return self.weights.observed_types()

    def has_adaptations(self) -> bool:
        """Whether any feedback has been applied yet."""
        return self.updates_applied > 0

    # ----------------------------------------------------------------- updates
    def apply_update(self, update: AdaptationUpdate) -> None:
        """Fold one DPBD adaptation update into the local model."""
        self.labeling_functions.extend(update.labeling_functions)
        self.training_examples.extend(update.training_examples())
        if len(self.training_examples) > self.config.max_training_examples:
            overflow = len(self.training_examples) - self.config.max_training_examples
            self.training_examples = self.training_examples[overflow:]
        implicit = isinstance(update.event, ImplicitApproval)
        self.weights.record_observation(update.target_type, implicit=implicit)
        self.updates_applied += 1
        self._updates_since_finetune += 1

        if (
            self.config.finetune_every > 0
            and self.classifier is not None
            and self.classifier.is_fitted
            and self._updates_since_finetune >= self.config.finetune_every
        ):
            self.finetune_classifier()

    def finetune_classifier(self, epochs: int | None = None) -> bool:
        """Finetune the local classifier copy on the accumulated training data.

        Returns ``False`` when there is no classifier or no data to train on.
        """
        if self.classifier is None or not self.classifier.is_fitted or not self.training_examples:
            return False
        self.classifier.finetune(
            self.training_examples, epochs=epochs or self.config.finetune_epochs
        )
        self._updates_since_finetune = 0
        return True

    # --------------------------------------------------------------- inference
    def predict_scores(self, column: Column, table: Table | None = None) -> dict[str, float]:
        """Local per-type confidences for one column.

        Combines the customer's labeling functions (through the label model)
        with the finetuned local classifier when one exists; per type the
        stronger of the two signals wins.
        """
        return self.predict_scores_table([column], table)[0]

    def predict_scores_table(
        self, columns: Sequence[Column], table: Table | None = None
    ) -> list[dict[str, float]]:
        """Local per-type confidences for several columns of one table.

        Semantically identical to :meth:`predict_scores` per column, but the
        labeling functions score the whole table in **one** label-model call
        and the finetuned classifier (when present) runs **one** batched
        forward pass instead of one per column — the bulk hot path of the
        adapted-customer blend.
        """
        scores_per_column: list[dict[str, float]] = [{} for _ in columns]
        if len(self.labeling_functions):
            distributions = self.label_model.label_distributions(
                list(self.labeling_functions), [(column, table) for column in columns]
            )
            for scores, lf_scores in zip(scores_per_column, distributions):
                for type_name, confidence in lf_scores.items():
                    scores[type_name] = max(scores.get(type_name, 0.0), confidence)
        if self.classifier is not None and self.classifier.is_fitted and self.has_adaptations():
            observed = set(self.weights.observed_types())
            probabilities = self.classifier.predict_proba_batch(
                [(column, table) for column in columns]
            )
            types = self.classifier.known_types()
            for scores, row in zip(scores_per_column, probabilities):
                for type_name, confidence in zip(types, row):
                    if type_name in observed:
                        scores[type_name] = max(scores.get(type_name, 0.0), float(confidence))
        return scores_per_column

    def combine_with_global(
        self,
        global_scores: dict[str, float],
        column: Column,
        table: Table | None = None,
    ) -> dict[str, float]:
        """Blend the global pipeline's scores with this customer's local evidence.

        Per type the scores are interpolated with the W_g/W_l weight vectors.
        On top of that, when the local model fires strongly for one of the
        customer's adapted types, the *competing* types that only the global
        model supports are discounted by that strength: repeated corrections
        ("this column is a salary, not a revenue") must eventually be able to
        overturn a confident-but-wrong global label, and the per-type convex
        combination alone cannot do that because the wrong type keeps its full
        global weight.  The discount grows with the number of observations, so
        a single correction nudges the ranking while a handful flips it — the
        gradual hand-over of influence the paper describes.
        """
        if not self.has_adaptations():
            return dict(global_scores)
        local_scores = self.predict_scores(column, table)
        combined = self.weights.combine_scores(global_scores, local_scores)
        override_strength = max(
            (
                self.weights.local_weight(type_name) * confidence
                for type_name, confidence in local_scores.items()
            ),
            default=0.0,
        )
        if override_strength > 0.0:
            for type_name in combined:
                if type_name not in local_scores:
                    combined[type_name] *= 1.0 - override_strength
        return combined

    # ------------------------------------------------------------------ report
    def summary(self) -> dict[str, object]:
        """Aggregate state used in examples and the Fig. 2 benchmark."""
        global_weights, local_weights = self.weights.weight_vectors()
        return {
            "customer_id": self.customer_id,
            "updates_applied": self.updates_applied,
            "labeling_functions": len(self.labeling_functions),
            "training_examples": len(self.training_examples),
            "adapted_types": self.adapted_types,
            "local_weights": {k: round(v, 3) for k, v in sorted(local_weights.items())},
            "global_weights": {k: round(v, 3) for k, v in sorted(global_weights.items())},
            "has_finetuned_classifier": self.classifier is not None and self.classifier.is_fitted,
        }
