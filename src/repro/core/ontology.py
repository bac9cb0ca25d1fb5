"""Semantic type ontology.

SigmaTyper predicts *semantic column types* drawn from an ontology.  The
paper uses the DBpedia ontology (as annotated on GitTables) because of its
broad coverage of enterprise, science, and medical domains.  DBpedia itself
is not available offline, so this module implements an equivalent structure:
a directed acyclic hierarchy of :class:`SemanticType` nodes, each with a
canonical name, a human label, a set of synonyms (used by the header-matching
step), an expected :class:`DataKind`, and an optional parent.

The default ontology — roughly ninety types spanning people, organizations,
locations, commerce, finance, medicine, the web, and generic database
columns — is defined in :mod:`repro.core.ontology_data` and instantiated via
:func:`build_default_ontology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.errors import OntologyError

__all__ = [
    "DataKind",
    "SemanticType",
    "TypeOntology",
    "build_default_ontology",
    "UNKNOWN_TYPE",
]

#: Reserved semantic type name used for out-of-distribution / abstain outputs.
UNKNOWN_TYPE = "unknown"


class DataKind(str, Enum):
    """Coarse expectation about the structural type of a semantic type."""

    NUMERIC = "numeric"
    TEXTUAL = "textual"
    TEMPORAL = "temporal"
    BOOLEAN = "boolean"
    ANY = "any"


def normalize_type_name(name: str) -> str:
    """Canonicalise a type or synonym string for lookup.

    Lower-cases, strips, and collapses separators so that ``"Zip Code"``,
    ``"zip-code"`` and ``"zip_code"`` all resolve to the same key.
    """
    cleaned = name.strip().lower()
    for separator in (" ", "-", "/", "."):
        cleaned = cleaned.replace(separator, "_")
    while "__" in cleaned:
        cleaned = cleaned.replace("__", "_")
    return cleaned.strip("_")


@dataclass(frozen=True)
class SemanticType:
    """A single node in the semantic type ontology."""

    name: str
    label: str = ""
    parent: str | None = None
    kind: DataKind = DataKind.ANY
    synonyms: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise OntologyError("semantic type name must be non-empty")
        object.__setattr__(self, "name", normalize_type_name(self.name))
        if not self.label:
            object.__setattr__(self, "label", self.name.replace("_", " "))
        if not isinstance(self.kind, DataKind):
            try:
                object.__setattr__(self, "kind", DataKind(str(self.kind)))
            except ValueError as exc:
                raise OntologyError(f"unknown data kind {self.kind!r} for {self.name!r}") from exc

    def all_names(self) -> tuple[str, ...]:
        """Canonical name, label and synonyms (normalised, de-duplicated)."""
        names: dict[str, None] = {}
        for candidate in (self.name, self.label, *self.synonyms):
            names.setdefault(normalize_type_name(candidate), None)
        return tuple(names)


class TypeOntology:
    """A registry of :class:`SemanticType` nodes with hierarchy queries.

    The ontology is the shared vocabulary of the whole system: the corpus
    generators annotate columns with its names, the header matcher compares
    column headers to its labels and synonyms, and the classifier's output
    space is its set of names (plus :data:`UNKNOWN_TYPE`).
    """

    def __init__(self, types: Iterable[SemanticType] = ()) -> None:
        self._types: dict[str, SemanticType] = {}
        self._synonym_index: dict[str, str] = {}
        self._children: dict[str, list[str]] = {}
        for semantic_type in types:
            self.register(semantic_type)

    # ------------------------------------------------------------ registration
    def register(self, semantic_type: SemanticType) -> None:
        """Add a type; parents must be registered before their children."""
        if semantic_type.name in self._types:
            raise OntologyError(f"semantic type {semantic_type.name!r} already registered")
        if semantic_type.parent is not None:
            parent = normalize_type_name(semantic_type.parent)
            if parent not in self._types:
                raise OntologyError(
                    f"parent {parent!r} of {semantic_type.name!r} is not registered"
                )
            self._children.setdefault(parent, []).append(semantic_type.name)
        self._types[semantic_type.name] = semantic_type
        for alias in semantic_type.all_names():
            self._synonym_index.setdefault(alias, semantic_type.name)

    def add_synonym(self, type_name: str, synonym: str) -> None:
        """Attach an extra synonym to an existing type (user customisation)."""
        canonical = self.resolve(type_name)
        if canonical is None:
            raise OntologyError(f"unknown semantic type {type_name!r}")
        self._synonym_index.setdefault(normalize_type_name(synonym), canonical)

    # ----------------------------------------------------------------- lookups
    def __contains__(self, name: str) -> bool:
        return normalize_type_name(name) in self._types

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[SemanticType]:
        return iter(self._types.values())

    @property
    def type_names(self) -> list[str]:
        """Canonical names in registration order."""
        return list(self._types)

    def get(self, name: str) -> SemanticType:
        """Return the type registered under *name* (canonical only)."""
        key = normalize_type_name(name)
        try:
            return self._types[key]
        except KeyError as exc:
            raise OntologyError(f"unknown semantic type {name!r}") from exc

    def resolve(self, name_or_synonym: str) -> str | None:
        """Map a name, label, or synonym to a canonical type name."""
        return self._synonym_index.get(normalize_type_name(name_or_synonym))

    def types_of_kind(self, kind: DataKind) -> list[SemanticType]:
        """All types whose expected data kind is *kind*."""
        return [t for t in self._types.values() if t.kind is kind]

    # --------------------------------------------------------------- hierarchy
    def parent(self, name: str) -> SemanticType | None:
        """The parent type, or ``None`` for roots."""
        semantic_type = self.get(name)
        if semantic_type.parent is None:
            return None
        return self.get(semantic_type.parent)

    def children(self, name: str) -> list[SemanticType]:
        """Direct children of *name*."""
        canonical = self.get(name).name
        return [self.get(child) for child in self._children.get(canonical, [])]

    def ancestors(self, name: str) -> list[SemanticType]:
        """Ancestors from the immediate parent up to the root."""
        chain = []
        current = self.parent(name)
        while current is not None:
            chain.append(current)
            current = self.parent(current.name)
        return chain

    def descendants(self, name: str) -> list[SemanticType]:
        """All transitive children of *name* (depth-first order)."""
        result: list[SemanticType] = []
        stack = [self.get(name).name]
        while stack:
            current = stack.pop()
            for child in self._children.get(current, []):
                result.append(self.get(child))
                stack.append(child)
        return result

    def roots(self) -> list[SemanticType]:
        """Types without a parent."""
        return [t for t in self._types.values() if t.parent is None]

    def is_a(self, name: str, ancestor: str) -> bool:
        """Whether *name* equals or descends from *ancestor*."""
        target = self.get(ancestor).name
        current: str | None = self.get(name).name
        while current is not None:
            if current == target:
                return True
            parent = self._types[current].parent
            current = normalize_type_name(parent) if parent else None
        return False

    def depth(self, name: str) -> int:
        """Number of edges from *name* up to its root."""
        return len(self.ancestors(name))

    def distance(self, first: str, second: str) -> int:
        """Length of the path between two types through their common ancestor.

        Types in disjoint subtrees get the sum of their depths plus two,
        which keeps the measure finite and monotone in dissimilarity.
        """
        first_chain = [self.get(first).name] + [t.name for t in self.ancestors(first)]
        second_chain = [self.get(second).name] + [t.name for t in self.ancestors(second)]
        second_positions = {name: index for index, name in enumerate(second_chain)}
        for first_index, name in enumerate(first_chain):
            if name in second_positions:
                return first_index + second_positions[name]
        return len(first_chain) + len(second_chain)

    # ------------------------------------------------------------ construction
    def subset(self, names: Sequence[str]) -> "TypeOntology":
        """A new ontology restricted to *names* (parents outside are dropped)."""
        keep = {self.get(name).name for name in names}
        subset = TypeOntology()
        for semantic_type in self._types.values():
            if semantic_type.name not in keep:
                continue
            parent = semantic_type.parent
            if parent is not None and normalize_type_name(parent) not in keep:
                parent = None
            subset.register(
                SemanticType(
                    name=semantic_type.name,
                    label=semantic_type.label,
                    parent=parent,
                    kind=semantic_type.kind,
                    synonyms=semantic_type.synonyms,
                    description=semantic_type.description,
                )
            )
        return subset

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation of the ontology."""
        return {
            "types": [
                {
                    "name": t.name,
                    "label": t.label,
                    "parent": t.parent,
                    "kind": t.kind.value,
                    "synonyms": list(t.synonyms),
                    "description": t.description,
                }
                for t in self._types.values()
            ]
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TypeOntology":
        """Inverse of :meth:`to_dict`."""
        ontology = cls()
        for entry in payload.get("types", []):  # type: ignore[union-attr]
            ontology.register(
                SemanticType(
                    name=entry["name"],
                    label=entry.get("label", ""),
                    parent=entry.get("parent"),
                    kind=DataKind(entry.get("kind", "any")),
                    synonyms=tuple(entry.get("synonyms", ())),
                    description=entry.get("description", ""),
                )
            )
        return ontology


def build_default_ontology(include_unknown: bool = True) -> TypeOntology:
    """Construct the built-in DBpedia-style ontology.

    Parameters
    ----------
    include_unknown:
        When true (the default) the reserved :data:`UNKNOWN_TYPE` node is
        added under the root so the classifier can emit it for
        out-of-distribution columns, mirroring Section 4.3 of the paper.
    """
    from repro.core.ontology_data import DEFAULT_TYPE_DEFINITIONS

    ontology = TypeOntology()
    for definition in DEFAULT_TYPE_DEFINITIONS:
        ontology.register(SemanticType(**definition))
    if include_unknown and UNKNOWN_TYPE not in ontology:
        ontology.register(
            SemanticType(
                name=UNKNOWN_TYPE,
                label="unknown",
                parent="thing",
                kind=DataKind.ANY,
                description="Reserved label for out-of-distribution columns.",
            )
        )
    return ontology
