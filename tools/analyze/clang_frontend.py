"""Clang frontend: `clang++ -Xclang -ast-dump=json` -> Facts.

The precise frontend, used by the CI `analyze` job (the dev container is
GCC-only, so local runs normally use cpp_frontend instead; the driver
picks automatically). One JSON dump is produced per translation unit
listed in compile_commands.json (or per explicitly-given file) and
walked into the same Facts IR the built-in frontend emits, so the
checkers cannot tell the frontends apart.

Written defensively: every node access uses .get() with a default, so a
dump from a different clang major version degrades to fewer facts, not
a crash.

Location bookkeeping: clang's JSON dumper omits `file` and `line` from a
location when they equal the previously *printed* location, and for each
node it prints loc, then range.begin, then range.end, then the children.
_resolve_locs() replays that exact order to reconstruct absolute
(file, line) pairs before the semantic walk touches anything. Macro
locations resolve to their expansion (use) site, so a finding inside
GS_TRACE_SPAN points at the caller, not at trace.h.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
from typing import Dict, List, Optional, Tuple

from cpp_frontend import _split_type_args
from facts import (
    OP_COMMUTATIVE,
    OP_CONTROL,
    OP_OTHER,
    OP_SORTED_DRAIN,
    Facts,
    FieldFact,
    LoopFact,
    MetricCallFact,
    OrderedKeyFact,
    RecordFact,
    SortCallFact,
    SortKeyFact,
)

_UNORDERED_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)<")
_SORTED_RE = re.compile(r"\bstd::(map|set|multimap|multiset)<")
_MUTEX_RE = re.compile(r"(?:\w+::)*Mutex$")
_SYNC_RE = re.compile(r"CondVar$|\batomic<")
_SORT_ALGOS = {"sort", "stable_sort", "partial_sort", "nth_element",
               "min_element", "max_element", "make_heap", "sort_heap",
               "lower_bound", "upper_bound", "binary_search", "unique"}
_METRIC_APIS = {"GetCounter", "GetAdvisoryCounter", "GetGauge",
                "GetHistogram", "GetSpan"}
_ORDERED_TMPL_RE = re.compile(r"\bstd::(map|set)<")
_HASH_KEY_RE = re.compile(r"\bstd::hash<\s*([^>]*\*)\s*>")


def find_clang() -> Optional[str]:
    for name in ("clang++", "clang++-18", "clang++-17", "clang++-16",
                 "clang++-15", "clang++-14"):
        path = _which(name)
        if path:
            return path
    return None


def _which(name: str) -> Optional[str]:
    for d in os.environ.get("PATH", "").split(os.pathsep):
        p = os.path.join(d, name)
        if os.path.isfile(p) and os.access(p, os.X_OK):
            return p
    return None


def dump_ast(clang: str, source: str, flags: List[str]) -> dict:
    cmd = [clang, "-fsyntax-only", "-Xclang", "-ast-dump=json"] + flags + \
        [source]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0 and not proc.stdout.lstrip().startswith("{"):
        raise RuntimeError(
            f"clang AST dump failed for {source}:\n{proc.stderr[:2000]}")
    return json.loads(proc.stdout)


def flags_from_compile_commands(build_dir: str) -> Dict[str, List[str]]:
    """source path -> flags (without the compiler and the source)."""
    path = os.path.join(build_dir, "compile_commands.json")
    result: Dict[str, List[str]] = {}
    if not os.path.isfile(path):
        return result
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    for e in entries:
        src = os.path.normpath(
            os.path.join(e.get("directory", "."), e.get("file", "")))
        argv = e.get("arguments") or shlex.split(e.get("command", ""))
        flags = []
        skip_next = False
        for a in argv[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", src, e.get("file")):
                continue
            if a == "-o":
                skip_next = True
                continue
            flags.append(a)
        # Re-root relative -I paths at the entry's directory.
        rooted = []
        for a in flags:
            if a.startswith("-I") and not os.path.isabs(a[2:]) and a[2:]:
                rooted.append("-I" + os.path.normpath(
                    os.path.join(e.get("directory", "."), a[2:])))
            else:
                rooted.append(a)
        result[src] = rooted
    return result


class _LocResolver:
    """Replays the dumper's location-printing order to fill in the
    file/line values it elided, annotating each node in place with
    `_file`/`_line` (absolute position of loc, falling back to
    range.begin)."""

    def __init__(self) -> None:
        self.file = ""
        self.line = 0

    def _point(self, raw: dict) -> Tuple[str, int]:
        """Process one printed location object; returns (file, line)."""
        if not isinstance(raw, dict):
            return self.file, self.line
        if "spellingLoc" in raw or "expansionLoc" in raw:
            # Macro location: the dumper prints spellingLoc then
            # expansionLoc, threading the same dedup state. Attribute to
            # the expansion (use) site.
            res = self.file, self.line
            sp = raw.get("spellingLoc")
            if isinstance(sp, dict):
                res = self._point(sp)
            exp = raw.get("expansionLoc")
            if isinstance(exp, dict):
                res = self._point(exp)
            return res
        f = raw.get("file")
        if f:
            self.file = f
        ln = raw.get("line")
        if ln:
            self.line = ln
        return self.file, self.line

    def resolve(self, node: dict) -> None:
        file = ""
        line = 0
        if isinstance(node.get("loc"), dict):
            file, line = self._point(node["loc"])
        rng = node.get("range")
        if isinstance(rng, dict):
            bfile, bline = "", 0
            if isinstance(rng.get("begin"), dict):
                bfile, bline = self._point(rng["begin"])
            if not file:
                file, line = bfile, bline
            if isinstance(rng.get("end"), dict):
                self._point(rng["end"])  # state only
        if file:
            node["_file"] = file
            node["_line"] = line
        for child in node.get("inner", []):
            if isinstance(child, dict):
                self.resolve(child)


def _angle_args(text: str, start: int) -> Optional[str]:
    """Contents of the balanced <...> whose '<' is at text[start]."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return None


class _Walker:
    """One translation unit's JSON tree -> facts."""

    def __init__(self, repo_root: str, facts: Facts):
        self.root = repo_root
        self.facts = facts
        self.fn_stack: List[str] = []

    # -- helpers --

    def _loc(self, node: dict) -> Tuple[str, int]:
        return node.get("_file", ""), node.get("_line", 0)

    def _rel(self, path: str) -> str:
        if not path:
            return ""
        ap = os.path.normpath(os.path.join(self.root, path)) \
            if not os.path.isabs(path) else os.path.normpath(path)
        root = os.path.normpath(self.root) + os.sep
        if ap.startswith(root):
            return ap[len(root):].replace(os.sep, "/")
        return path

    def _in_repo(self, rel: str) -> bool:
        return bool(rel) and not rel.startswith(("/", "..")) \
            and not os.path.isabs(rel)

    @staticmethod
    def _qt(node: dict) -> str:
        t = node.get("type") or {}
        return t.get("desugaredQualType") or t.get("qualType") or ""

    @staticmethod
    def _qt_sugar(node: dict) -> str:
        t = node.get("type") or {}
        return t.get("qualType") or t.get("desugaredQualType") or ""

    @staticmethod
    def _inner(node: dict) -> List[dict]:
        return [n for n in node.get("inner", []) if isinstance(n, dict)]

    def _contains_kind(self, node: dict, kind: str) -> bool:
        if node.get("kind") == kind:
            return True
        return any(self._contains_kind(c, kind) for c in self._inner(node))

    def _find_kind(self, node: dict, kind: str) -> Optional[dict]:
        if node.get("kind") == kind:
            return node
        for c in self._inner(node):
            r = self._find_kind(c, kind)
            if r is not None:
                return r
        return None

    def _callee_name(self, call: dict) -> str:
        inner = self._inner(call)
        if not inner:
            return ""
        head = inner[0]
        member = self._find_kind(head, "MemberExpr")
        if member is not None:
            return member.get("name", "")
        ref = self._find_kind(head, "DeclRefExpr")
        if ref is not None:
            return (ref.get("referencedDecl") or {}).get("name", "")
        return ""

    # -- traversal --

    def walk(self, node: dict) -> None:
        kind = node.get("kind", "")
        if kind == "CXXRecordDecl" and node.get("completeDefinition"):
            self._record(node)
        pushed_fn = False
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl") and node.get("name"):
            self.fn_stack.append(node.get("name", ""))
            pushed_fn = True
        if kind == "CXXForRangeStmt":
            self._range_loop(node)
        elif kind == "ForStmt":
            self._for_loop(node)
        elif kind in ("CallExpr", "CXXMemberCallExpr"):
            self._call(node)
        elif kind in ("VarDecl", "FieldDecl", "TypedefDecl", "TypeAliasDecl"):
            self._typed_decl(node)
        for child in self._inner(node):
            self.walk(child)
        if pushed_fn:
            self.fn_stack.pop()

    def _fn(self) -> str:
        return self.fn_stack[-1] if self.fn_stack else ""

    # -- records --

    def _record(self, node: dict) -> None:
        file, line = self._loc(node)
        rel = self._rel(file)
        if not self._in_repo(rel):
            return
        name = node.get("name") or ""
        if not name:
            return
        rec = RecordFact(name=name, file=rel, line=line)
        for child in self._inner(node):
            if child.get("kind") != "FieldDecl":
                continue
            fqt = self._qt_sugar(child)
            _, fline = self._loc(child)
            guarded = unguarded = False
            for attr in self._inner(child):
                ak = attr.get("kind", "")
                if ak in ("GuardedByAttr", "PtGuardedByAttr"):
                    guarded = True
                elif ak == "AnnotateAttr":
                    lit = self._find_kind(attr, "StringLiteral")
                    val = (lit or {}).get("value", "")
                    if not val or "gs_unguarded" in val:
                        unguarded = True
            base_t = re.sub(r"^(const\s+|mutable\s+)+", "", fqt).strip()
            # Top-level constness only: `const Foo*` is a mutable
            # pointer field, `Foo *const` and `const Foo` are not.
            is_const = fqt.rstrip().endswith("const") or (
                fqt.startswith("const ") and "*" not in fqt
                and "&" not in fqt)
            rec.fields.append(FieldFact(
                name=child.get("name", ""), type=fqt, line=fline,
                guarded=guarded, unguarded=unguarded, is_const=is_const,
                is_static=False,  # static members are VarDecls, not fields
                is_mutex=bool(_MUTEX_RE.match(base_t)),
                is_sync=bool(_SYNC_RE.search(base_t))))
        self.facts.records.append(rec)

    # -- loops --

    def _emit_loop(self, node: dict, range_text: str,
                   range_type: str, body: dict) -> None:
        file, line = self._loc(node)
        rel = self._rel(file)
        if not self._in_repo(rel):
            return
        is_unordered = bool(_UNORDERED_RE.search(range_type)) or \
            "unordered_" in range_type
        body_ops: List[str] = []
        detail = ""
        if is_unordered:
            stmts = self._inner(body) if body.get("kind") == "CompoundStmt" \
                else [body]
            for st in stmts:
                op = self._classify_stmt(st)
                body_ops.append(op)
                if op == OP_OTHER and not detail:
                    detail = st.get("kind", "")
        self.facts.loops.append(LoopFact(
            file=rel, line=line, function=self._fn(),
            range_text=range_text, range_type=range_type,
            is_unordered=is_unordered, body_ops=body_ops,
            body_detail=detail, enclosing_sinks=[]))

    def _range_loop(self, node: dict) -> None:
        inner = self._inner(node)
        range_type = ""
        range_text = ""
        for child in inner:
            if child.get("kind") == "DeclStmt":
                var = self._find_kind(child, "VarDecl")
                if var is not None and \
                        var.get("name", "").startswith("__range"):
                    range_type = self._qt(var)
                    sugar = self._qt_sugar(var)
                    if "unordered_" in sugar:
                        range_type = sugar
                    ref = self._find_kind(var, "DeclRefExpr")
                    member = self._find_kind(var, "MemberExpr")
                    if member is not None:
                        range_text = member.get("name", "")
                    elif ref is not None:
                        range_text = (ref.get("referencedDecl") or {}) \
                            .get("name", "")
                    break
        self._emit_loop(node, range_text, range_type,
                        inner[-1] if inner else {})

    def _for_loop(self, node: dict) -> None:
        """Iterator-form `for (auto it = m.begin(); ...)` over an
        unordered container (the builtin frontend recognizes the same
        shape)."""
        inner = self._inner(node)
        if not inner:
            return
        range_type = ""
        range_text = ""
        for child in inner[:-1]:
            if child.get("kind") != "DeclStmt":
                continue
            member = self._find_kind(child, "MemberExpr")
            if member is None or member.get("name") not in ("begin",
                                                           "cbegin"):
                continue
            obj = self._inner(member)
            obj_t = self._qt_sugar(obj[0]) if obj else ""
            if "unordered_" not in obj_t and not _UNORDERED_RE.search(
                    self._qt(obj[0]) if obj else ""):
                continue
            range_type = obj_t or self._qt(obj[0])
            ref = self._find_kind(member, "DeclRefExpr")
            if ref is not None:
                range_text = (ref.get("referencedDecl") or {}).get("name",
                                                                   "")
            break
        if not range_type:
            return
        self._emit_loop(node, range_text, range_type, inner[-1])

    def _classify_stmt(self, node: dict) -> str:
        kind = node.get("kind", "")
        if kind in ("NullStmt", "ContinueStmt", "BreakStmt", "DeclStmt"):
            return OP_CONTROL
        if kind in ("CompoundStmt", "IfStmt"):
            children = self._inner(node)
            if kind == "IfStmt":
                children = [c for c in children
                            if c.get("kind", "").endswith("Stmt")
                            or c.get("kind", "").endswith("Operator")
                            or c.get("kind", "").endswith("Expr")]
                children = children[1:] if len(children) > 1 else children
            ops = [self._classify_stmt(c) for c in children]
            if OP_OTHER in ops:
                return OP_OTHER
            if OP_SORTED_DRAIN in ops:
                return OP_SORTED_DRAIN
            if OP_COMMUTATIVE in ops:
                return OP_COMMUTATIVE
            return OP_CONTROL
        if kind == "CompoundAssignOperator":
            if node.get("opcode") in ("+=", "-=", "*=", "|=", "&=", "^="):
                return OP_COMMUTATIVE
            return OP_OTHER
        if kind == "UnaryOperator" and node.get("opcode") in ("++", "--"):
            return OP_COMMUTATIVE
        if kind == "CXXMemberCallExpr":
            member = self._find_kind(node, "MemberExpr")
            mname = member.get("name", "") if member else ""
            if mname in ("Add", "Increment", "AddWork"):
                return OP_COMMUTATIVE
            if mname in ("insert", "emplace"):
                obj_t = self._qt(self._inner(member)[0]) \
                    if member and self._inner(member) else ""
                if _SORTED_RE.search(obj_t):
                    return OP_SORTED_DRAIN
            return OP_OTHER
        if kind in ("BinaryOperator", "CXXOperatorCallExpr") \
                and node.get("opcode", "=") == "=":
            # `m[k] = v` into a sorted map shows up as operator[] call.
            sub = self._find_kind(node, "CXXOperatorCallExpr")
            if sub is not None:
                inner = self._inner(sub)
                if len(inner) >= 2 and _SORTED_RE.search(self._qt(inner[1])):
                    return OP_SORTED_DRAIN
            return OP_OTHER
        return OP_OTHER

    # -- calls --

    def _call(self, node: dict) -> None:
        name = self._callee_name(node)
        if not name:
            return
        file, line = self._loc(node)
        rel = self._rel(file)
        if not self._in_repo(rel):
            return
        if name in _SORT_ALGOS:
            self._sort_call(node, name, rel, line)
        elif name in _METRIC_APIS:
            args = self._inner(node)[1:]
            if not args:
                return
            literal = self._contains_kind(args[0], "StringLiteral") and \
                not self._contains_kind(args[0], "BinaryOperator") and \
                not self._contains_kind(args[0], "DeclRefExpr")
            lit = self._find_kind(args[0], "StringLiteral")
            self.facts.metric_calls.append(MetricCallFact(
                file=rel, line=line, function=self._fn(), api=name,
                arg_text=(lit or {}).get("value", "<expr>"),
                arg_is_literal=literal))

    def _sort_call(self, node: dict, algo: str, rel: str, line: int) -> None:
        lam = self._find_kind(node, "LambdaExpr")
        keys: List[SortKeyFact] = []
        if lam is not None:
            params: Dict[str, str] = {}
            method = self._find_kind(lam, "CXXMethodDecl") or lam
            for p in self._inner(method):
                if p.get("kind") == "ParmVarDecl":
                    params[p.get("name", "")] = self._qt_sugar(p)
            keys = self._lambda_keys(lam, params)
        self.facts.sort_calls.append(SortCallFact(
            file=rel, line=line, function=self._fn(),
            algorithm=f"std::{algo}", keys=keys))

    def _lambda_keys(self, node: dict,
                     params: Dict[str, str]) -> List[SortKeyFact]:
        keys: List[SortKeyFact] = []

        def visit(n: dict) -> None:
            if n.get("kind") == "BinaryOperator" and \
                    n.get("opcode") in ("<", ">", "<=", ">=", "==", "!="):
                for operand in self._inner(n):
                    qt = self._qt(operand)
                    text = ""
                    ref = self._find_kind(operand, "DeclRefExpr")
                    member = self._find_kind(operand, "MemberExpr")
                    if member is not None:
                        text = member.get("name", "")
                        qt = self._qt(member) or qt
                    elif ref is not None:
                        text = (ref.get("referencedDecl") or {}) \
                            .get("name", "")
                    keys.append(SortKeyFact(
                        text=text, type=qt,
                        is_pointer=qt.rstrip().endswith("*")))
            for c in self._inner(n):
                visit(c)

        visit(node)
        return keys

    # -- pointer-keyed container/hash declarations --

    def _typed_decl(self, node: dict) -> None:
        qt = self._qt_sugar(node)
        if "*" not in qt:
            return
        file, line = self._loc(node)
        rel = self._rel(file)
        if not self._in_repo(rel):
            return
        for m in _ORDERED_TMPL_RE.finditer(qt):
            inner = _angle_args(qt, m.end() - 1)
            if inner is None:
                continue
            args = [a.strip() for a in _split_type_args(inner)]
            if not args or not args[0].endswith("*"):
                continue
            container = m.group(1)
            # The sugared type spells defaulted template args only when
            # the user wrote them, so arity reveals a custom comparator
            # (same rule as the builtin frontend).
            n_custom = 3 if container == "map" else 2
            self.facts.ordered_keys.append(OrderedKeyFact(
                file=rel, line=line, container=f"std::{container}",
                key_type=args[0],
                has_custom_compare=len(args) >= n_custom))
        h = _HASH_KEY_RE.search(qt)
        if h:
            self.facts.ordered_keys.append(OrderedKeyFact(
                file=rel, line=line, container="std::hash",
                key_type=h.group(1).strip()))


def extract_tu(repo_root: str, clang: str, source: str,
               flags: List[str]) -> Facts:
    facts = Facts()
    tree = dump_ast(clang, source, flags)
    _LocResolver().resolve(tree)
    _Walker(repo_root, facts).walk(tree)
    return facts
