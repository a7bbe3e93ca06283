"""The four determinism checkers. Pure policy over facts.

Each checker takes the merged Facts and yields Findings. Keys are the
stable suppression handles (tools/analyze/suppressions.txt); they avoid
line numbers so a suppression survives unrelated edits to the file.

Checkers (DESIGN.md §15):

  unordered-order   iteration over std::unordered_* whose body is not
                    limited to commutative accumulation or draining into
                    a sorted container — the hash-table order escapes
                    into whatever the function produces.

  pointer-key-order sort/compare keys that are pointer values (including
                    std::map/std::set keyed by a pointer with the
                    default comparator, and std::hash over pointers):
                    addresses vary run to run, so any derived order does
                    too.

  lock-coverage     a class owns a util::Mutex but has members that are
                    neither GS_GUARDED_BY, GS_UNGUARDED_BY_DESIGN,
                    const, static, nor themselves synchronization
                    primitives — an unprotected field is only legal as a
                    documented decision.

  metric-literal    MetricsRegistry names / GS_TRACE_SPAN paths that are
                    not string literals. Dynamic names fork the metric
                    namespace at runtime and break the counter-baseline
                    diff (scripts/check_counters.py keys on exact names).
"""

from __future__ import annotations

from typing import List

from facts import OP_OTHER, Facts, Finding

ALL_CHECKERS = (
    "unordered-order",
    "pointer-key-order",
    "lock-coverage",
    "metric-literal",
)


def check_unordered_order(facts: Facts) -> List[Finding]:
    findings = []
    for loop in facts.loops:
        if not loop.is_unordered:
            continue
        if loop.body_ops and OP_OTHER not in loop.body_ops:
            continue  # commutative accumulation / sorted drain only
        detail = loop.body_detail or "(empty body)"
        sinks = f"; enclosing function sinks: {', '.join(loop.enclosing_sinks)}" \
            if loop.enclosing_sinks else ""
        findings.append(Finding(
            checker="unordered-order",
            file=loop.file,
            line=loop.line,
            message=(
                f"iteration over unordered container `{loop.range_text}` "
                f"(type `{loop.range_type}`) lets the hash-table order "
                f"escape: statement `{detail}` is neither commutative "
                f"accumulation nor a drain into a sorted container{sinks}"),
            key=f"{loop.function or '<file>'}@{loop.range_text}"))
    return findings


def check_pointer_key_order(facts: Facts) -> List[Finding]:
    findings = []
    for call in facts.sort_calls:
        ptr_keys = [k for k in call.keys if k.is_pointer]
        if not ptr_keys:
            continue
        findings.append(Finding(
            checker="pointer-key-order",
            file=call.file,
            line=call.line,
            message=(
                f"{call.algorithm} predicate compares pointer value "
                f"`{ptr_keys[0].text}` (type `{ptr_keys[0].type}`): "
                f"addresses differ run to run, so the resulting order is "
                f"not reproducible"),
            key=f"{call.function or '<file>'}@{call.algorithm}"))
    for ok in facts.ordered_keys:
        if not ok.key_type.rstrip().endswith("*"):
            continue
        if ok.container in ("std::map", "std::set") and ok.has_custom_compare:
            continue  # custom comparator: judged via sort predicates
        findings.append(Finding(
            checker="pointer-key-order",
            file=ok.file,
            line=ok.line,
            message=(
                f"{ok.container}<{ok.key_type}> orders/hashes raw pointer "
                f"values; iteration or tie-breaks over it depend on "
                f"allocation addresses"),
            key=f"{ok.container}<{ok.key_type}>"))
    return findings


def check_lock_coverage(facts: Facts) -> List[Finding]:
    findings = []
    for rec in facts.records:
        if not rec.has_mutex:
            continue
        for f in rec.fields:
            if f.is_mutex or f.is_sync or f.guarded or f.unguarded \
                    or f.is_const or f.is_static:
                continue
            findings.append(Finding(
                checker="lock-coverage",
                file=rec.file,
                line=f.line,
                message=(
                    f"`{rec.name}::{f.name}` ({f.type}) is a mutable "
                    f"member of a mutex-owning class with neither "
                    f"GS_GUARDED_BY nor GS_UNGUARDED_BY_DESIGN — every "
                    f"unprotected field must be a documented decision"),
                key=f"{rec.name}.{f.name}"))
    return findings


def check_metric_literal(facts: Facts) -> List[Finding]:
    findings = []
    for call in facts.metric_calls:
        if call.arg_is_literal:
            continue
        findings.append(Finding(
            checker="metric-literal",
            file=call.file,
            line=call.line,
            message=(
                f"{call.api} name/path `{call.arg_text}` is not a string "
                f"literal: dynamic metric names fork the namespace at "
                f"runtime and break the CI counter-baseline diff"),
            key=f"{call.function or '<file>'}@{call.api}"))
    return findings


CHECKER_FUNCS = {
    "unordered-order": check_unordered_order,
    "pointer-key-order": check_pointer_key_order,
    "lock-coverage": check_lock_coverage,
    "metric-literal": check_metric_literal,
}


def run_checkers(facts: Facts, checkers=ALL_CHECKERS) -> List[Finding]:
    findings: List[Finding] = []
    for name in checkers:
        findings.extend(CHECKER_FUNCS[name](facts))
    findings.sort(key=lambda f: (f.file, f.line, f.checker, f.key))
    # Both frontends can see one construct twice (a header parsed
    # standalone and via a TU); dedupe on identity.
    seen = set()
    unique = []
    for f in findings:
        ident = (f.checker, f.file, f.key, f.message)
        if ident in seen:
            continue
        seen.add(ident)
        unique.append(f)
    return unique
