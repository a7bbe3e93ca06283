"""Fact IR shared by the analyzer frontends and checkers.

The analyzer is split into three layers (see tools/analyze/README.md):

    frontend  (clang AST JSON, or the built-in C++ extractor)
        |
        v
    facts     (this module: plain dataclasses, JSON-serializable)
        |
        v
    checkers  (policy: the four determinism invariants)

Both frontends emit the *same* facts, so the checkers — where all the
policy lives — are written once and unit-tested without any compiler.
A fact records something the frontend *saw*; it carries no judgement.
Judgement (is this loop order-escaping? is this field unguarded?) is
the checkers' job.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import List

# --- statement classification inside iteration bodies -----------------

# Ops a loop body may perform over an unordered container without the
# iteration order escaping (checker `unordered-order`):
OP_COMMUTATIVE = "commutative"      # x += e, x |= e, ++x, counter->Add(e), ...
OP_SORTED_DRAIN = "sorted_drain"    # insert/emplace into std::map / std::set
OP_CONTROL = "control"              # continue/break/empty — order-neutral
OP_OTHER = "other"                  # anything else: order can escape


@dataclass
class FieldFact:
    """One non-static data member of a record."""

    name: str
    type: str
    line: int
    guarded: bool = False           # carries GS_GUARDED_BY / GS_PT_GUARDED_BY
    unguarded: bool = False         # carries GS_UNGUARDED_BY_DESIGN(reason)
    is_const: bool = False
    is_static: bool = False
    is_mutex: bool = False          # util::Mutex (the capability itself)
    is_sync: bool = False           # CondVar / std::atomic / other sync type


@dataclass
class RecordFact:
    """A class/struct definition."""

    name: str                       # qualified where known ("Outer::Inner")
    file: str
    line: int
    fields: List[FieldFact] = field(default_factory=list)

    @property
    def has_mutex(self) -> bool:
        return any(f.is_mutex for f in self.fields)


@dataclass
class LoopFact:
    """A range-for / begin-end iteration and what its body does."""

    file: str
    line: int
    function: str                   # enclosing function ("" if unknown)
    range_text: str                 # source text of the range expression
    range_type: str                 # resolved type ("" if unresolved)
    is_unordered: bool = False      # range type is std::unordered_{map,set,...}
    body_ops: List[str] = field(default_factory=list)   # OP_* per statement
    body_detail: str = ""           # first offending statement, for messages
    enclosing_sinks: List[str] = field(default_factory=list)  # context info


@dataclass
class SortKeyFact:
    """One compared key inside a sort/order predicate."""

    text: str
    type: str                       # resolved type ("" if unknown)
    is_pointer: bool = False


@dataclass
class SortCallFact:
    """A call to an ordering algorithm with its comparator keys."""

    file: str
    line: int
    function: str
    algorithm: str                  # "std::sort", "std::stable_sort", ...
    keys: List[SortKeyFact] = field(default_factory=list)
    comparator_text: str = ""


@dataclass
class OrderedKeyFact:
    """A std::map/std::set/std::hash instantiation and its key type."""

    file: str
    line: int
    container: str                  # "std::map", "std::set", "std::hash"
    key_type: str
    has_custom_compare: bool = False


@dataclass
class MetricCallFact:
    """A metric/span registration call and whether its name is literal."""

    file: str
    line: int
    function: str
    api: str                        # "GetCounter", "GS_TRACE_SPAN", ...
    arg_text: str
    arg_is_literal: bool = False


@dataclass
class Facts:
    """Everything one frontend extracted from one set of sources."""

    records: List[RecordFact] = field(default_factory=list)
    loops: List[LoopFact] = field(default_factory=list)
    sort_calls: List[SortCallFact] = field(default_factory=list)
    ordered_keys: List[OrderedKeyFact] = field(default_factory=list)
    metric_calls: List[MetricCallFact] = field(default_factory=list)

    def extend(self, other: "Facts") -> None:
        self.records.extend(other.records)
        self.loops.extend(other.loops)
        self.sort_calls.extend(other.sort_calls)
        self.ordered_keys.extend(other.ordered_keys)
        self.metric_calls.extend(other.metric_calls)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


@dataclass(frozen=True)
class Finding:
    """One checker result. `key` is the stable suppression handle."""

    checker: str
    file: str
    line: int
    message: str
    key: str

    def __post_init__(self) -> None:
        # Keys are whitespace-delimited fields in suppressions.txt, so
        # they must never contain whitespace themselves.
        object.__setattr__(self, "key", re.sub(r"\s+", "", self.key))

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.checker}] {self.message} " \
               f"(key: {self.key})"
