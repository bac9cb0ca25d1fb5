"""E3 (Fig. 3): the data-programming-by-demonstration walk-through.

Reproduces the paper's running example end to end: the user corrects the
"Income" column from ``revenue`` to ``salary`` (①), labeling functions are
inferred from the column and its table context (②), the source corpus is
mined for weakly labeled training data (③/④), and the customer's subsequent
predictions for the column flip to ``salary``.

Reported rows: the inferred labeling functions, the number and purity of the
generated weak labels, and the before/after prediction.
"""

from __future__ import annotations

from repro import Table
from repro.dpbd import generate_weak_labels, infer_labeling_functions
from repro.evaluation import format_table


def _fig3_table() -> Table:
    return Table.from_columns_dict(
        {
            "Name": ["Han Phi", "Thomas Do", "Alexis Nan"],
            "Income": ["$ 50K", "$ 60K", "$ 70K"],
            "Company": ["nytco", "Adyen", "Sigma"],
            "Cities": ["New York", "Amsterdam", "San Francisco"],
        },
        name="fig3_example",
    )


def test_fig3_dpbd_walkthrough(benchmark, sigmatyper, train_corpus, record_result):
    table = _fig3_table()
    customer_id = "e3-fig3-customer"
    if customer_id not in sigmatyper.customer_ids:
        sigmatyper.register_customer(customer_id)

    before = sigmatyper.annotate(table, customer_id=customer_id).prediction_for("Income")

    # ② Infer labeling functions from the demonstration.
    functions = infer_labeling_functions(table["Income"], "salary", table, ["name", "company", "city"])

    # ③/④ Mine the source corpus for weakly labeled training data (benchmarked:
    # mining, not inference, is the step of a relabel the user waits on).
    # Purity can only be judged on weak labels whose source column carries
    # ground truth (a small fraction of corpus columns is deliberately
    # unlabeled).
    weak_labels = benchmark(generate_weak_labels, train_corpus, functions)
    verifiable = [label for label in weak_labels if label.column.semantic_type is not None]
    salary_truth = sum(1 for label in verifiable if label.column.semantic_type == "salary")

    # The full feedback loop through the system facade.
    update = sigmatyper.give_feedback(customer_id, table, "Income", "salary", previous_type="revenue")
    after = sigmatyper.annotate(table, customer_id=customer_id).prediction_for("Income")

    lf_rows = [
        {"labeling_function": type(function).__name__, "name": function.name,
         "target": function.target_type, "fires_on_demo": round(function.apply(table["Income"]), 2)}
        for function in functions
    ]
    summary_rows = [
        {"quantity": "prediction before feedback", "value": f"{before.predicted_type} ({before.confidence:.2f})"},
        {"quantity": "labeling functions inferred", "value": len(functions)},
        {"quantity": "weak labels extracted from corpus", "value": len(weak_labels)},
        {"quantity": "weak labels with verifiable ground truth", "value": len(verifiable)},
        {"quantity": "verifiable weak labels that are truly salary", "value": salary_truth},
        {"quantity": "training examples in update", "value": update.num_training_examples},
        {"quantity": "prediction after feedback", "value": f"{after.predicted_type} ({after.confidence:.2f})"},
    ]
    record_result(
        "E3_fig3_dpbd",
        format_table(lf_rows, title="E3 / Fig. 3 — inferred labeling functions")
        + "\n\n"
        + format_table(summary_rows, title="E3 / Fig. 3 — DPBD loop summary"),
    )

    # Shape checks: the four LF families of Fig. 3 are produced and the final
    # prediction is the corrected type.
    kinds = {type(function).__name__ for function in functions}
    assert {"ValueRangeLF", "MeanRangeLF", "CoOccurrenceLF", "HeaderMatchLF"} <= kinds
    assert after.predicted_type == "salary"
    if verifiable:
        assert salary_truth / len(verifiable) >= 0.5
