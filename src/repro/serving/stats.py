"""One stats vocabulary for the serving layer: :func:`render_stats`.

:func:`render_stats` is the single composer of serving reports: every
``summary()`` in the serving layer
(:class:`~repro.serving.service.AnnotationService`,
:class:`~repro.serving.frontend.AnnotationFrontend`,
:class:`~repro.serving.pool.AnnotationPool`) and ``SigmaTyper.summary()``
build their shared sections through it, so the same counter always appears
under the same section with the same key:

* ``shard_transport`` — :func:`repro.serving.transport.transport_stats`;
* ``columnar_kernels`` — :func:`repro.core.colblock.kernel_stats`;
* plus the caller's own section (``service`` / ``frontend`` / ``pool``) and
  ``slo`` when a controller is attached.

See docs/SERVING.md#stats-vocabulary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.frontend import AnnotationFrontend
    from repro.serving.pool import AnnotationPool
    from repro.serving.service import AnnotationService

__all__ = ["render_stats", "shared_sections"]


def shared_sections() -> dict[str, object]:
    """The process-wide sections every serving report shares.

    ``shard_transport`` appears once any transport shipped bytes,
    ``columnar_kernels`` always — the exact presence rules
    ``SigmaTyper.summary()`` has always had.
    """
    from repro.core import colblock
    from repro.serving.transport import transport_stats

    sections: dict[str, object] = {}
    shard_transport = transport_stats()
    if shard_transport:
        sections["shard_transport"] = shard_transport
    sections["columnar_kernels"] = colblock.kernel_stats()
    return sections


def render_stats(
    *,
    service: "AnnotationService | None" = None,
    frontend: "AnnotationFrontend | None" = None,
    pool: "AnnotationPool | None" = None,
    typer=None,
) -> dict[str, object]:
    """The unified stats shape: caller sections + the shared sections.

    Pass whichever components the report covers; each contributes its own
    canonical section (``service`` / ``frontend`` / ``pool`` from the
    component's stats ``to_dict()``, ``slo`` from an attached controller,
    ``timings`` from a typer).  The shared sections ride along once.
    """
    report: dict[str, object] = {}
    if frontend is not None:
        report["frontend"] = frontend.stats.to_dict()
    if service is not None:
        report["service"] = service.stats.to_dict()
        if service.slo is not None:
            report["slo"] = service.slo.snapshot()
    if pool is not None:
        report["pool"] = pool.stats.to_dict()
    report.update(shared_sections())
    if typer is not None:
        from repro.core.timings import stage_timings

        report["timings"] = stage_timings()
    return report
