"""Profile-XML data model: trees, parsing, paths, containment, merging,
and the GUP schema. This is the common data model (requirement 1) every
other subsystem builds on."""

from repro.pxml.node import FrozenPNode, PNode, element
from repro.pxml.parse import parse
from repro.pxml.path import Path, Predicate, Step, parse_path
from repro.pxml.evaluate import (
    evaluate,
    evaluate_first,
    evaluate_values,
    exists,
    extract,
)
from repro.pxml.containment import (
    intersect_regions,
    node_contains,
    path_contains,
    step_contains,
    steps_compatible,
    subtree_covers,
    subtree_overlaps,
)
from repro.pxml.merge import (
    ConflictPolicy,
    GUP_KEYSPEC,
    KeySpec,
    deep_union,
    merge_all,
    prioritized_merge,
)
from repro.pxml.adjunct import (
    GUP_ADJUNCT,
    SchemaAdjunct,
    build_gup_adjunct,
)
from repro.pxml.schema import (
    GUP_SCHEMA,
    AttrDecl,
    ChildDecl,
    ElementDecl,
    Schema,
    Violation,
    build_gup_schema,
)

__all__ = [
    "FrozenPNode", "PNode", "element", "parse",
    "Path", "Predicate", "Step", "parse_path",
    "evaluate", "evaluate_first", "evaluate_values", "exists", "extract",
    "node_contains", "path_contains", "step_contains", "steps_compatible",
    "intersect_regions",
    "subtree_covers", "subtree_overlaps",
    "ConflictPolicy", "GUP_KEYSPEC", "KeySpec", "deep_union", "merge_all",
    "prioritized_merge",
    "GUP_SCHEMA", "AttrDecl", "ChildDecl", "ElementDecl", "Schema",
    "Violation", "build_gup_schema",
    "SchemaAdjunct", "GUP_ADJUNCT", "build_gup_adjunct",
]
