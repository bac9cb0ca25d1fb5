"""Label models for combining weak labeling-function votes.

Data programming (Ratner et al., cited by the paper) combines the noisy votes
of many labeling functions into probabilistic training labels.  Two label
models are provided:

* :class:`MajorityVoteLabelModel` — the weighted soft majority vote: each LF
  contributes its confidence, scaled by its weight, to its target type.
* :class:`AgreementWeightedLabelModel` — estimates each LF's reliability once
  from how often it agrees with its peers (a single-pass heuristic stand-in
  for the Snorkel generative model, not an iterative fit), then applies the
  weighted vote with those reliabilities.

Both return, per column, a distribution over candidate types that the weak
label generator thresholds into training examples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.core.table import Column, Table
from repro.lookup.labeling_functions import LabelingFunction

__all__ = ["LabelModel", "MajorityVoteLabelModel", "AgreementWeightedLabelModel"]


@dataclass(frozen=True)
class _VoteMatrix:
    """Raw LF outputs for a batch of columns: ``votes[i][j]`` is LF *j* on column *i*."""

    votes: list[list[float]]
    functions: list[LabelingFunction]

    @property
    def num_columns(self) -> int:
        return len(self.votes)


def _build_vote_matrix(
    functions: Sequence[LabelingFunction],
    columns: Sequence[tuple[Column, Table | None]],
) -> _VoteMatrix:
    # LF-major, as data programming builds its label matrix: each function
    # sees the whole batch at once, so it scores each distinct input once.
    by_function = [function.apply_many(columns) for function in functions]
    votes = [[function_votes[i] for function_votes in by_function] for i in range(len(columns))]
    return _VoteMatrix(votes=votes, functions=list(functions))


class LabelModel(ABC):
    """Combines labeling-function outputs into per-type label distributions."""

    @abstractmethod
    def label_distributions(
        self,
        functions: Sequence[LabelingFunction],
        columns: Sequence[tuple[Column, Table | None]],
    ) -> list[dict[str, float]]:
        """Per column, a ``{type: probability-like score}`` distribution."""


class MajorityVoteLabelModel(LabelModel):
    """Weight-scaled soft majority vote over the LF confidences.

    Following data-programming semantics, a labeling function that outputs
    0.0 *abstains* rather than votes against: only firing functions enter the
    per-type average, so a single decisive rule (e.g. an exact header match)
    is not diluted by unrelated rules that simply do not apply to the column.
    """

    def label_distributions(
        self,
        functions: Sequence[LabelingFunction],
        columns: Sequence[tuple[Column, Table | None]],
    ) -> list[dict[str, float]]:
        if not functions:
            return [{} for _ in columns]
        matrix = _build_vote_matrix(functions, columns)
        distributions = []
        for row in matrix.votes:
            totals: dict[str, float] = {}
            weights: dict[str, float] = {}
            for function, vote in zip(matrix.functions, row):
                if vote <= 0.0:
                    continue
                totals[function.target_type] = totals.get(function.target_type, 0.0) + function.weight * vote
                weights[function.target_type] = weights.get(function.target_type, 0.0) + function.weight
            distributions.append(
                {
                    type_name: totals[type_name] / weights[type_name]
                    for type_name in totals
                    if weights[type_name] > 0
                }
            )
        return distributions


class AgreementWeightedLabelModel(LabelModel):
    """Majority vote with LF reliabilities estimated from pairwise agreement.

    Each labeling function's reliability is estimated as the average
    agreement of its firing decisions with the other functions that target
    the same type (functions that fire when their peers fire are deemed more
    reliable), smoothed towards 1.0 so lone functions are not penalised.
    """

    def __init__(self, smoothing: float = 0.5):
        if not 0.0 <= smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in [0, 1]")
        self.smoothing = smoothing
        #: Reliability per LF name after the last call (exposed for inspection).
        self.last_reliabilities: dict[str, float] = {}

    def label_distributions(
        self,
        functions: Sequence[LabelingFunction],
        columns: Sequence[tuple[Column, Table | None]],
    ) -> list[dict[str, float]]:
        if not functions:
            return [{} for _ in columns]
        matrix = _build_vote_matrix(functions, columns)
        reliabilities = self._reliabilities(matrix)
        self.last_reliabilities = {
            function.name: reliability
            for function, reliability in zip(matrix.functions, reliabilities)
        }

        distributions = []
        for row in matrix.votes:
            totals: dict[str, float] = {}
            weights: dict[str, float] = {}
            for function, vote, reliability in zip(matrix.functions, row, reliabilities):
                if vote <= 0.0:
                    continue
                effective_weight = function.weight * reliability
                totals[function.target_type] = totals.get(function.target_type, 0.0) + effective_weight * vote
                weights[function.target_type] = weights.get(function.target_type, 0.0) + effective_weight
            distributions.append(
                {
                    type_name: totals[type_name] / weights[type_name]
                    for type_name in totals
                    if weights[type_name] > 0
                }
            )
        return distributions

    def _reliabilities(self, matrix: _VoteMatrix) -> list[float]:
        fired = [[vote >= 0.5 for vote in row] for row in matrix.votes]
        reliabilities = []
        for j, function in enumerate(matrix.functions):
            peers = [
                k for k, other in enumerate(matrix.functions)
                if k != j and other.target_type == function.target_type
            ]
            if not peers or matrix.num_columns == 0:
                reliabilities.append(1.0)
                continue
            agreements = []
            for i in range(matrix.num_columns):
                peer_votes = [fired[i][k] for k in peers]
                if not any(peer_votes) and not fired[i][j]:
                    continue
                agreement = sum(1 for vote in peer_votes if vote == fired[i][j]) / len(peer_votes)
                agreements.append(agreement)
            raw = sum(agreements) / len(agreements) if agreements else 1.0
            reliabilities.append(self.smoothing * 1.0 + (1.0 - self.smoothing) * raw)
        return reliabilities
