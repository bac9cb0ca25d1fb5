"""One stats vocabulary for the serving layer: :func:`shared_sections`.

Every ``summary()`` in the serving layer
(:class:`~repro.serving.service.AnnotationService`,
:class:`~repro.serving.pool.AnnotationPool`) and ``SigmaTyper.summary()``
writes its own section and then adds the process-wide sections from
:func:`shared_sections`, so the same counter always appears under the same
section with the same key:

* ``shard_transport`` — :func:`repro.serving.transport.transport_stats`;
* ``columnar_kernels`` — :func:`repro.core.colblock.kernel_stats`.

See docs/SERVING.md#stats-vocabulary.
"""

from __future__ import annotations

__all__ = ["shared_sections"]


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
