"""Serving walkthrough: execution backends and the async annotation service.

Run with:  python examples/serving_throughput.py

The script pretrains a compact SigmaTyper, then walks through the two
pieces of the serving layer a production deployment composes:

1. **Execution backends** — the same ``annotate_corpus`` call run
   ``serial`` and sharded across ``multiprocess`` workers, with identical
   predictions (the multiprocess backend forks, so workers inherit the
   pretrained model without pickling it);
2. **AnnotationService** — an asyncio facade that micro-batches concurrent
   requests per customer, so online traffic rides the bulk path without any
   cross-tenant leakage.
"""

from __future__ import annotations

import asyncio
import time

from repro import AnnotationService, SigmaTyper, SigmaTyperConfig
from repro.adaptation import GlobalModelConfig
from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.nn import MLPConfig
from repro.serving import available_workers


def build_system() -> SigmaTyper:
    """Pretrain a compact SigmaTyper (a couple of seconds on a laptop)."""
    config = SigmaTyperConfig(
        global_model=GlobalModelConfig(
            pretraining_tables=60,
            background_tables=12,
            mlp=MLPConfig(max_epochs=18, hidden_sizes=(96, 48), seed=7),
            seed=11,
        )
    )
    return SigmaTyper.pretrained(config=config)


def fresh(tables):
    """Copies with cold per-column caches, as incoming requests would carry."""
    return [table.copy() for table in tables]


def demo_backends(typer: SigmaTyper, tables) -> None:
    print(f"-- execution backends ({available_workers()} usable CPUs) " + "-" * 20)
    # Warm the model-level caches once so the timed runs compare sharding
    # strategies, not cache warm-up order.
    typer.annotate_corpus(fresh(tables))
    reference = None
    for backend in ("serial", "multiprocess:4"):
        batch = fresh(tables)
        started = time.perf_counter()
        predictions = typer.annotate_corpus(batch, backend=backend)
        elapsed = time.perf_counter() - started
        columns = sum(len(p) for p in predictions)
        if reference is None:
            reference = [p.columns for p in predictions]
        else:
            assert [p.columns for p in predictions] == reference, "backends must agree"
        print(f"  {backend:<16} {columns / elapsed:8.0f} columns/s  ({elapsed:.2f}s)")
    print("  all backends returned identical predictions\n")


async def demo_service(typer: SigmaTyper, tables) -> None:
    print("-- async annotation service " + "-" * 30)
    typer.register_customer("acme")
    first = tables[0]
    typer.give_feedback("acme", first, first.columns[0].name, "name")

    async with AnnotationService(typer, max_batch_size=16) as service:
        results = await asyncio.gather(
            *[
                service.annotate(table, customer_id="acme" if index % 2 else None)
                for index, table in enumerate(fresh(tables))
            ]
        )
    annotated = sum(len(prediction) for prediction in results)
    print(f"  annotated {annotated} columns across {len(results)} concurrent requests")
    print(f"  batching stats: {service.stats.to_dict()}\n")


def main() -> None:
    print("Pretraining the global model ...")
    typer = build_system()
    tables = list(
        GitTablesGenerator(GitTablesConfig(num_tables=40, seed=2026)).generate_corpus()
    )
    print(f"Serving corpus: {len(tables)} tables\n")

    demo_backends(typer, tables)
    asyncio.run(demo_service(typer, tables))

    print("Done.  Pick a backend by workload:")
    print("  serial         — single requests, laptops, debugging")
    print("  multiprocess:N — CPU-saturating bulk jobs on multi-core machines (fork)")


if __name__ == "__main__":
    main()
