"""Built-in C++ fact extractor: tokens + scopes, no compiler needed.

This is the fallback frontend for containers without clang (the default
dev image is GCC-only). It is NOT a C++ parser; it is a lexer plus a
scope machine plus targeted recognizers for exactly the constructs the
checkers need (tools/analyze/README.md documents the fidelity
contract). Where it cannot resolve a type it says so (empty type
string) and the checkers stay silent rather than guess — the clang
frontend, run in CI, is the precise one.

What it tracks, honestly:
  * brace scopes classified as namespace / record / function / lambda /
    control block / enum / initializer,
  * record definitions with field names, declared types, const/static/
    mutable-ness, and GS_GUARDED_BY / GS_UNGUARDED_BY_DESIGN markers,
  * per-function symbol tables (params + locals) for type lookups,
  * range-for and iterator loops with commutativity classification of
    their bodies,
  * sort-predicate keys, ordered-container key types, metric-name call
    sites.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

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

# --- lexer ------------------------------------------------------------

_PUNCT3 = ("<<=", ">>=", "->*", "...")
_PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
           "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--")

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # 'id' | 'num' | 'str' | 'chr' | 'p' (punct)
        self.text = text
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{self.kind}:{self.text}@{self.line}"


def tokenize(text: str) -> List[Tok]:
    toks: List[Tok] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j < 0 else j + 2
                line += text.count("\n", i, j)
                i = j
                continue
        if c == "#":
            # Preprocessor directive: skip, honoring \-continuations.
            # (Macro *bodies* are therefore never tokenized; call sites
            # of function-like macros are.)
            j = i
            while j < n:
                e = text.find("\n", j)
                if e < 0:
                    j = n
                    break
                if text[e - 1] == "\\" or (text[e - 1] == "\r"
                                           and text[e - 2] == "\\"):
                    line += 1
                    j = e + 1
                    continue
                j = e
                break
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m:
                delim = m.group(1)
                end = text.find(f"){delim}\"", i + m.end())
                end = n if end < 0 else end + len(delim) + 2
                toks.append(Tok("str", text[i:end], line))
                line += text.count("\n", i, end)
                i = end
                continue
        if c == '"' or (c in "uUL" and text[i:i + 2].endswith('"')):
            j = i + (1 if c == '"' else 2)
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("str", text[i:j], line))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("chr", text[i:j], line))
            i = j
            continue
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for p in _PUNCT3:
            if text.startswith(p, i):
                toks.append(Tok("p", p, line))
                i += 3
                break
        else:
            for p in _PUNCT2:
                if text.startswith(p, i):
                    toks.append(Tok("p", p, line))
                    i += 2
                    break
            else:
                toks.append(Tok("p", c, line))
                i += 1
    return toks


# --- small token helpers ---------------------------------------------

_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}
_SKIP_FIELD_STARTS = {
    "public", "private", "protected", "using", "friend", "typedef",
    "template", "static_assert", "class", "struct", "union", "enum",
    "namespace", "operator", "explicit", "GS_REQUIRES", "GS_EXCLUDES",
}
_GS_FIELD_MARKERS = {
    "GS_GUARDED_BY": "guarded",
    "GS_PT_GUARDED_BY": "guarded",
    "GS_UNGUARDED_BY_DESIGN": "unguarded",
    "GS_ACQUIRED_BEFORE": None,
    "GS_ACQUIRED_AFTER": None,
}
_MUTEX_RE = re.compile(r"(?:\w+::)*Mutex$")
_SYNC_RE = re.compile(r"(?:\w+::)*(CondVar|once_flag)$|(?:std::)?atomic\b")
_UNORDERED_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\s*<")
_SORTED_CONTAINER_RE = re.compile(r"\bstd::(map|set|multimap|multiset)\s*<")
_SORT_ALGOS = {
    "sort", "stable_sort", "partial_sort", "nth_element", "min_element",
    "max_element", "make_heap", "sort_heap", "is_sorted", "lower_bound",
    "upper_bound", "binary_search", "unique",
}
_METRIC_APIS = {"GetCounter", "GetAdvisoryCounter", "GetGauge",
                "GetHistogram", "GetSpan"}


def spell(toks: List[Tok]) -> str:
    """Join tokens back into readable source text."""
    out: List[str] = []
    for t in toks:
        if out and (t.kind in ("id", "num") and out[-1][-1] in _ID_CONT):
            out.append(" ")
        out.append(t.text)
    return "".join(out)


def match_paren(toks: List[Tok], i: int) -> int:
    """Index of the ')' matching the '(' at i (len(toks) if unmatched)."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def match_brace(toks: List[Tok], i: int) -> int:
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def match_angle(toks: List[Tok], i: int) -> int:
    """Index just past the '>' closing the '<' at i; -1 if implausible.

    Handles '>>' closing two levels. Bails on ';' or unbalanced braces —
    then the '<' was a comparison, not a template argument list.
    """
    depth = 0
    j = i
    while j < len(toks):
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}"):
            return -1
        elif t in ("&&", "||"):
            return -1
        j += 1
    return -1


def split_top(toks: List[Tok], sep: str) -> List[List[Tok]]:
    """Split on `sep` at zero (), [], {}, <> depth."""
    parts: List[List[Tok]] = [[]]
    depth = 0
    angle = 0
    for i, t in enumerate(toks):
        x = t.text
        if x in "([{":
            depth += 1
        elif x in ")]}":
            depth -= 1
        elif x == "<" and i > 0 and toks[i - 1].kind == "id":
            angle += 1
        elif x == ">" and angle > 0:
            angle -= 1
        elif x == ">>" and angle > 0:
            angle = max(0, angle - 2)
        if x == sep and depth == 0 and angle == 0:
            parts.append([])
        else:
            parts[-1].append(t)
    return parts


# --- scope machine ----------------------------------------------------

class Scope:
    __slots__ = ("kind", "name", "open", "close", "parent")

    def __init__(self, kind: str, name: str, open_idx: int, parent):
        self.kind = kind
        self.name = name
        self.open = open_idx
        self.close = -1
        self.parent = parent


def _classify_brace(toks: List[Tok], i: int) -> Tuple[str, str]:
    """Classify the '{' at index i. Returns (kind, name)."""
    # Walk back to the start of the introducing statement.
    j = i - 1
    depth = 0
    while j >= 0:
        t = toks[j].text
        if t in ")]}":
            depth += 1
        elif t in "([{":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and t in (";",):
            break
        j -= 1
    head = toks[j + 1:i]
    head_texts = [t.text for t in head]
    if not head:
        return "block", ""
    if "namespace" in head_texts:
        name = "::".join(t.text for t in head[1:] if t.kind == "id")
        return "namespace", name
    for kw in ("class", "struct", "union"):
        if kw in head_texts:
            k = head_texts.index(kw)
            # 'struct X {' / 'class GS_CAPABILITY("x") Y : public Z {'
            name = ""
            for t in head[k + 1:]:
                if t.kind == "id" and not t.text.startswith("GS_") \
                        and t.text not in ("final", "alignas"):
                    name = t.text
                if t.text in (":", "{"):
                    break
            if name:
                return "record", name
            return "block", ""  # anonymous aggregate / lambda capture etc.
    if "enum" in head_texts:
        return "enum", ""
    # Function-ish: '...) [const noexcept etc] {'
    k = len(head) - 1
    while k >= 0 and (head[k].kind == "id" or head[k].text in (")",)) \
            and head[k].text not in (")",):
        k -= 1
    if k >= 0 and head[k].text == ")":
        # Find the '(' matching head[k].
        d = 0
        m = k
        while m >= 0:
            if head[m].text == ")":
                d += 1
            elif head[m].text == "(":
                d -= 1
                if d == 0:
                    break
            m -= 1
        before = head[m - 1] if m >= 1 else None
        if before is None:
            return "lambda", ""
        if before.text in _CONTROL_KEYWORDS:
            return "block", ""
        if before.text == "]":
            return "lambda", ""
        if before.kind == "id":
            # Collect qualified name A::B::name walking back.
            parts = [before.text]
            q = m - 2
            while q >= 1 and head[q].text == "::" and head[q - 1].kind == "id":
                parts.append(head[q - 1].text)
                q -= 2
            return "function", "::".join(reversed(parts))
        return "block", ""
    if head_texts[-1] in ("else", "do", "try"):
        return "block", ""
    if head_texts[-1] in ("=", "return", ",", "(", "{"):
        return "init", ""
    return "init", ""


def build_scopes(toks: List[Tok]) -> List[Scope]:
    """All brace scopes, each with open/close token indices and parent."""
    scopes: List[Scope] = []
    stack: List[Scope] = []
    for i, t in enumerate(toks):
        if t.text == "{":
            kind, name = _classify_brace(toks, i)
            s = Scope(kind, name, i, stack[-1] if stack else None)
            scopes.append(s)
            stack.append(s)
        elif t.text == "}":
            if stack:
                stack.pop().close = i
    return scopes


def enclosing(scope: Optional[Scope], kinds: Tuple[str, ...]) -> Optional[Scope]:
    while scope is not None:
        if scope.kind in kinds:
            return scope
        scope = scope.parent
    return None


# --- the extractor ----------------------------------------------------

class Extractor:
    def __init__(self, rel_path: str, text: str):
        self.path = rel_path
        self.toks = tokenize(text)
        self.scopes = build_scopes(self.toks)
        self.facts = Facts()
        # record name -> {field -> type}; built before function passes so
        # member lookups work regardless of declaration order.
        self.member_types: Dict[str, Dict[str, str]] = {}

    def run(self) -> Facts:
        for s in self.scopes:
            if s.kind == "record":
                self._extract_record(s)
        for s in self.scopes:
            if s.kind in ("function", "lambda"):
                if enclosing(s.parent, ("function", "lambda")) is not None:
                    continue  # handled as part of the outermost function
                self._extract_function(s)
        self._extract_ordered_keys()
        return self.facts

    # -- records and fields -------------------------------------------

    def _record_qual_name(self, s: Scope) -> str:
        parts = [s.name]
        p = s.parent
        while p is not None:
            if p.kind == "record" and p.name:
                parts.append(p.name)
            p = p.parent
        return "::".join(reversed(parts))

    def _extract_record(self, s: Scope) -> None:
        toks = self.toks
        name = self._record_qual_name(s)
        rec = RecordFact(name=name, file=self.path, line=toks[s.open].line)
        # Statements at record top level (nested braces skipped wholesale).
        i = s.open + 1
        stmt: List[Tok] = []
        while i < s.close:
            t = toks[i]
            if t.text == "{":
                end = match_brace(toks, i)
                stmt.append(t)  # marker that a brace group was here
                i = end + 1
                # A '};'-terminated nested type or a method body: either
                # way the statement ends here for field-parsing purposes.
                if i < s.close and toks[i].text == ";":
                    i += 1
                self._finish_record_stmt(rec, stmt)
                stmt = []
                continue
            if t.text == ";":
                self._finish_record_stmt(rec, stmt)
                stmt = []
                i += 1
                continue
            stmt.append(t)
            i += 1
        self.facts.records.append(rec)
        self.member_types[name] = {f.name: f.type for f in rec.fields}
        self.member_types.setdefault(
            name.rsplit("::", 1)[-1], self.member_types[name])

    def _finish_record_stmt(self, rec: RecordFact, stmt: List[Tok]) -> None:
        # Access specifiers don't terminate statements, so `private:` is a
        # prefix of the first declaration that follows it. Strip it.
        while len(stmt) >= 2 and stmt[0].text in ("public", "private",
                                                  "protected") \
                and stmt[1].text == ":":
            stmt = stmt[2:]
        if not stmt:
            return
        texts = [t.text for t in stmt]
        if "~" in texts:
            return  # a destructor, not a field
        if stmt[0].text in _SKIP_FIELD_STARTS or "{" in texts:
            return
        f = self._parse_field(stmt)
        if f is not None:
            rec.fields.append(f)

    def _parse_field(self, stmt: List[Tok]) -> Optional[FieldFact]:
        toks = list(stmt)
        guarded = unguarded = False
        # Strip GS_* field markers (macro call: id + parenthesized args).
        out: List[Tok] = []
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == "id" and t.text in _GS_FIELD_MARKERS \
                    and i + 1 < len(toks) and toks[i + 1].text == "(":
                end = match_paren(toks, i + 1)
                marker = _GS_FIELD_MARKERS[t.text]
                if marker == "guarded":
                    guarded = True
                elif marker == "unguarded":
                    unguarded = True
                i = end + 1
                continue
            out.append(t)
            i += 1
        toks = out
        if not toks:
            return None
        # `Foo& operator=(const Foo&) = delete;` splits at the first '='
        # into a parenless declarator that would otherwise look like a
        # field named `operator`.
        if any(t.text == "operator" for t in toks):
            return None
        is_static = any(t.text == "static" for t in toks)
        is_mutable = any(t.text == "mutable" for t in toks)
        # Declarator portion: everything before a top-level '='.
        decl = split_top(toks, "=")[0]
        if not decl:
            return None
        # A '(' in the declarator (outside template args — split_top's
        # angle tracking already hid those? no: parens inside <> are at
        # depth>0 so they survive) means function/ctor: reject by checking
        # for '(' at top level of the declarator.
        depth = angle = 0
        name_tok: Optional[Tok] = None
        type_toks: List[Tok] = []
        for i, t in enumerate(decl):
            x = t.text
            if x in "([{":
                if angle == 0:
                    return None  # function declaration / paren-init
                depth += 1
                continue
            if x in ")]}":
                depth -= 1
                continue
            if x == "<" and i > 0 and decl[i - 1].kind == "id":
                angle += 1
                continue
            if x == ">" and angle > 0:
                angle -= 1
                continue
            if x == ">>" and angle > 0:
                angle = max(0, angle - 2)
                continue
            if angle == 0 and depth == 0 and t.kind == "id" \
                    and t.text not in ("static", "mutable", "constexpr",
                                       "inline", "const", "volatile"):
                if name_tok is not None:
                    type_toks.append(name_tok)
                name_tok = t
        if name_tok is None or not type_toks:
            return None
        # Reconstruct the type as written (without the name).
        type_text = spell([t for t in decl
                           if t is not name_tok and t.text not in
                           ("static", "mutable")]).strip()
        # Top-level constness only: `const Foo*` is a mutable pointer field,
        # while `Foo* const` and plain `const Foo` are immutable.
        is_const = (bool(re.match(r"^(constexpr|const)\b", type_text))
                    and "*" not in type_text) \
            or type_text.rstrip().endswith("const")
        base_type = re.sub(r"^(mutable\s+|const\s+|constexpr\s+)+", "",
                           type_text).strip()
        is_mutex = bool(_MUTEX_RE.match(base_type))
        is_sync = bool(_SYNC_RE.search(base_type))
        del is_mutable  # recorded via `mutable` being irrelevant to policy
        return FieldFact(
            name=name_tok.text, type=type_text, line=name_tok.line,
            guarded=guarded, unguarded=unguarded, is_const=is_const,
            is_static=is_static, is_mutex=is_mutex, is_sync=is_sync)

    # -- functions ------------------------------------------------------

    def _enclosing_record_members(self, s: Scope) -> Dict[str, str]:
        rec = enclosing(s.parent, ("record",))
        if rec is not None:
            return self.member_types.get(self._record_qual_name(rec), {})
        if "::" in s.name:
            qual = s.name.rsplit("::", 1)[0]
            return self.member_types.get(qual, {})
        return {}

    def _extract_function(self, s: Scope) -> None:
        toks = self.toks
        body = range(s.open + 1, s.close if s.close > 0 else len(toks))
        symbols: Dict[str, str] = {}
        symbols.update(self._enclosing_record_members(s))
        self._collect_params(s, symbols)
        self._collect_locals(body, symbols)
        sinks = self._collect_sinks(body)
        i = body.start
        while i < body.stop:
            t = toks[i]
            if t.kind == "id" and t.text == "for" and i + 1 < body.stop \
                    and toks[i + 1].text == "(":
                i = self._extract_loop(s, i, symbols, sinks)
                continue
            if t.kind == "id" and t.text in _SORT_ALGOS and i >= 2 \
                    and toks[i - 1].text == "::" and toks[i - 2].text == "std" \
                    and i + 1 < body.stop and toks[i + 1].text == "(":
                self._extract_sort(s, i, symbols)
            if t.kind == "id" and t.text in _METRIC_APIS \
                    and i >= 1 and toks[i - 1].text in (".", "->") \
                    and i + 1 < body.stop and toks[i + 1].text == "(":
                self._extract_metric(s, i, 0, t.text)
            if t.kind == "id" and t.text == "GS_TRACE_SPAN" \
                    and i + 1 < body.stop and toks[i + 1].text == "(":
                self._extract_metric(s, i, 0, "GS_TRACE_SPAN")
            if t.kind == "id" and t.text == "GS_TRACE_SPAN_NAMED" \
                    and i + 1 < body.stop and toks[i + 1].text == "(":
                self._extract_metric(s, i, 1, "GS_TRACE_SPAN_NAMED")
            i += 1

    def _collect_params(self, s: Scope, symbols: Dict[str, str]) -> None:
        toks = self.toks
        # Parameters live between the '(' and ')' just before the body
        # (skipping trailing const/noexcept/override/GS_* markers).
        j = s.open - 1
        depth = 0
        while j >= 0:
            t = toks[j].text
            if t == ")":
                depth += 1
            elif t == "(":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 0 and t in (";", "}", "{"):
                return
            j -= 1
        if j < 0:
            return
        close = match_paren(toks, j)
        for part in split_top(toks[j + 1:close], ","):
            self._declare(part, symbols)

    def _collect_locals(self, body: range, symbols: Dict[str, str]) -> None:
        toks = self.toks
        stmt_start = body.start
        depth = 0
        for i in range(body.start, body.stop):
            t = toks[i].text
            if t in "([":
                depth += 1
            elif t in ")]":
                depth -= 1
            elif t in (";", "{", "}") and depth <= 0:
                self._try_declare_stmt(toks[stmt_start:i], symbols)
                stmt_start = i + 1

    def _try_declare_stmt(self, stmt: List[Tok],
                          symbols: Dict[str, str]) -> None:
        decl = split_top(stmt, "=")[0]
        self._declare(decl, symbols)

    def _declare(self, decl: List[Tok], symbols: Dict[str, str]) -> None:
        """Best-effort `TYPE name` recognition; silently gives up."""
        decl = [t for t in decl if t.text not in
                ("const", "static", "constexpr", "inline", "mutable",
                 "volatile", "typename")]
        if len(decl) < 2:
            return
        if decl[0].kind != "id" or decl[0].text in (
                "return", "if", "for", "while", "switch", "case", "delete",
                "new", "throw", "else", "do", "break", "continue", "goto",
                "using", "namespace", "template", "public", "private",
                "protected", "auto"):
            return
        # TYPE = id (:: id)* [<...>] [*&]*  then NAME = id, end of decl.
        i = 1
        n = len(decl)
        while i + 1 < n and decl[i].text == "::" and decl[i + 1].kind == "id":
            i += 2
        if i < n and decl[i].text == "<":
            end = match_angle(decl, i)
            if end < 0:
                return
            i = end
        while i < n and decl[i].text in ("*", "&", "&&", "const"):
            i += 1
        if i == n - 1 and decl[i].kind == "id":
            symbols[decl[i].text] = spell(decl[:i]).strip()

    def _collect_sinks(self, body: range) -> List[str]:
        toks = self.toks
        sinks = set()
        for i in range(body.start, body.stop):
            t = toks[i]
            if t.kind != "id":
                if t.text == "<<":
                    sinks.add("stream")
                continue
            if t.text == "GetCounter":
                sinks.add("work-counter")
            elif t.text == "AddWork":
                sinks.add("span-work")
            elif t.text in ("push_back", "emplace_back"):
                sinks.add("ordered-sink")
            elif t.text.startswith(("Write", "Encode", "Serialize")):
                sinks.add("serialize")
        return sorted(sinks)

    # -- loops ----------------------------------------------------------

    def _resolve_type(self, expr: List[Tok], symbols: Dict[str, str]) -> str:
        expr = [t for t in expr if t.text not in ("(", ")")]
        if not expr:
            return ""
        texts = [t.text for t in expr]
        if texts[0] == "this" and len(texts) > 2 and texts[1] == "->":
            expr = expr[2:]
            texts = texts[2:]
        if len(expr) == 1 and expr[0].kind == "id":
            return symbols.get(expr[0].text, "")
        # Direct construction / cast spelled with the type.
        joined = spell(expr)
        if _UNORDERED_RE.search(joined) or _SORTED_CONTAINER_RE.search(joined):
            return joined
        # a.b / a->b : resolve a, then b in a's record.
        if len(expr) == 3 and expr[1].text in (".", "->") \
                and expr[0].kind == "id" and expr[2].kind == "id":
            base = symbols.get(expr[0].text, "")
            base_name = re.sub(r"[&*]|const\s+", "", base).strip()
            base_name = re.sub(r"<.*", "", base_name).strip()
            members = self.member_types.get(base_name) or \
                self.member_types.get(base_name.rsplit("::", 1)[-1], {})
            return members.get(expr[2].text, "")
        return ""

    def _extract_loop(self, s: Scope, i: int, symbols: Dict[str, str],
                      sinks: List[str]) -> int:
        toks = self.toks
        open_p = i + 1
        close_p = match_paren(toks, open_p)
        header = toks[open_p + 1:close_p]
        parts = split_top(header, ";")
        range_expr: List[Tok] = []
        if len(parts) == 1:
            # Range-for: `decl : expr` — ':' at top level ('::' is one token).
            halves = split_top(header, ":")
            if len(halves) < 2:
                return close_p + 1
            range_expr = [t for part in halves[1:] for t in part]
        else:
            # Classic for: look for `it = X.begin()` / `X.cbegin()`.
            init = parts[0]
            texts = [t.text for t in init]
            for k, x in enumerate(texts):
                if x in ("begin", "cbegin") and k >= 2 \
                        and texts[k - 1] in (".", "->"):
                    j = k - 2
                    stop = {"=", ",", "(", ";"}
                    while j >= 0 and texts[j] not in stop:
                        j -= 1
                    range_expr = init[j + 1:k - 1]
                    break
            if not range_expr:
                return close_p + 1
        rtype = self._resolve_type(range_expr, symbols)
        is_unordered = bool(_UNORDERED_RE.search(rtype))
        # Body extent.
        body_ops: List[str] = []
        body_detail = ""
        if close_p + 1 < len(toks) and toks[close_p + 1].text == "{":
            body_end = match_brace(toks, close_p + 1)
            body = toks[close_p + 2:body_end]
        else:
            j = close_p + 1
            depth = 0
            while j < len(toks):
                x = toks[j].text
                if x in "([{":
                    depth += 1
                elif x in ")]}":
                    depth -= 1
                elif x == ";" and depth == 0:
                    break
                j += 1
            body = toks[close_p + 1:j + 1]
            body_end = j
        if is_unordered:
            body_ops, body_detail = self._classify_body(body, symbols)
        self.facts.loops.append(LoopFact(
            file=self.path, line=toks[i].line, function=s.name,
            range_text=spell(range_expr), range_type=rtype,
            is_unordered=is_unordered, body_ops=body_ops,
            body_detail=body_detail, enclosing_sinks=sinks))
        return close_p + 1

    def _classify_body(self, body: List[Tok],
                       symbols: Dict[str, str]) -> Tuple[List[str], str]:
        ops: List[str] = []
        detail = ""
        for stmt in self._split_statements(body):
            op = self._classify_stmt(stmt, symbols)
            ops.append(op)
            if op == OP_OTHER and not detail:
                detail = spell(stmt)[:80]
        return ops, detail

    def _split_statements(self, body: List[Tok]) -> List[List[Tok]]:
        stmts: List[List[Tok]] = []
        cur: List[Tok] = []
        depth = 0
        for t in body:
            x = t.text
            if x in "([":
                depth += 1
            elif x in ")]":
                depth -= 1
            elif x in (";",) and depth == 0:
                if cur:
                    stmts.append(cur)
                cur = []
                continue
            elif x in ("{", "}") and depth == 0:
                # Keep nested blocks inline: statement splitting recurses
                # through them so `if (c) { a += 1; }` classifies `a += 1`.
                continue
            cur.append(t)
        if cur:
            stmts.append(cur)
        return stmts

    def _classify_stmt(self, stmt: List[Tok],
                       symbols: Dict[str, str]) -> str:
        if not stmt:
            return OP_CONTROL
        texts = [t.text for t in stmt]
        if texts[0] in ("continue", "break"):
            return OP_CONTROL
        if texts[0] == "if":
            close = match_paren(stmt, 1) if len(texts) > 1 else 0
            rest = stmt[close + 1:]
            if not rest:
                return OP_CONTROL
            return self._classify_stmt(rest, symbols)
        if texts[0] in ("for", "while", "do", "switch", "return"):
            return OP_OTHER
        # Compound assignment / increments: order-independent accumulation.
        top = split_top(stmt, ",")[0]
        top_texts = [t.text for t in top]
        for op in ("+=", "-=", "*=", "|=", "&=", "^="):
            if op in top_texts:
                return OP_COMMUTATIVE
        if "++" in top_texts or "--" in top_texts:
            return OP_COMMUTATIVE
        if "=" in top_texts:
            k = top_texts.index("=")
            rhs = spell(top[k + 1:])
            lhs = spell(top[:k])
            if ("std::max" in rhs or "std::min" in rhs) and lhs in rhs:
                return OP_COMMUTATIVE
            # `m[k] = v` into a sorted map.
            if "[" in top_texts[:k]:
                base = top[:top_texts.index("[")]
                btype = self._resolve_type(base, symbols)
                if _SORTED_CONTAINER_RE.search(btype):
                    return OP_SORTED_DRAIN
            return OP_OTHER
        # Method calls: counter adds are commutative; sorted inserts drain
        # into a deterministic order.
        for k, x in enumerate(texts):
            if x in ("Add", "Increment", "AddWork") and k >= 1 \
                    and texts[k - 1] in (".", "->"):
                return OP_COMMUTATIVE
            if x in ("insert", "emplace") and k >= 2 \
                    and texts[k - 1] in (".", "->"):
                base = stmt[:k - 1]
                btype = self._resolve_type(base, symbols)
                if _SORTED_CONTAINER_RE.search(btype):
                    return OP_SORTED_DRAIN
                return OP_OTHER
        # A pure local declaration neither reads nor writes shared order.
        before = dict(symbols)
        self._declare(split_top(stmt, "=")[0], before)
        if len(before) > len(symbols):
            return OP_CONTROL
        return OP_OTHER

    # -- sorts -----------------------------------------------------------

    def _extract_sort(self, s: Scope, i: int, symbols: Dict[str, str]) -> None:
        toks = self.toks
        open_p = i + 1
        close_p = match_paren(toks, open_p)
        args = split_top(toks[open_p + 1:close_p], ",")
        if not args:
            return
        comp = args[-1]
        if not comp or comp[0].text != "[":
            return
        keys = self._comparator_keys(comp, symbols)
        self.facts.sort_calls.append(SortCallFact(
            file=self.path, line=toks[i].line, function=s.name,
            algorithm="std::" + toks[i].text, keys=keys,
            comparator_text=spell(comp)[:120]))

    def _comparator_keys(self, comp: List[Tok],
                         symbols: Dict[str, str]) -> List[SortKeyFact]:
        texts = [t.text for t in comp]
        try:
            cap_end = texts.index("]")
        except ValueError:
            return []
        params: Dict[str, str] = {}
        body: List[Tok] = []
        if cap_end + 1 < len(comp) and comp[cap_end + 1].text == "(":
            p_close = match_paren(comp, cap_end + 1)
            for part in split_top(comp[cap_end + 2:p_close], ","):
                self._declare(part, params)
            rest = comp[p_close + 1:]
        else:
            rest = comp[cap_end + 1:]
        if rest and rest[0].text == "{":
            body = rest[1:match_brace(rest, 0)]
        keys: List[SortKeyFact] = []
        # Comparison operands at top level of each return expression.
        for stmt in self._split_statements(body):
            st = [t.text for t in stmt]
            if not st or st[0] == "if":
                # `if (a.x != b.x) return a.x < b.x;` — recurse past the if.
                if st and st[0] == "if":
                    close = match_paren(stmt, 1)
                    keys.extend(self._operand_keys(stmt[2:close], params,
                                                   symbols))
                    keys.extend(self._cmp_keys(stmt[close + 1:], params,
                                               symbols))
                continue
            keys.extend(self._cmp_keys(stmt, params, symbols))
        return keys

    def _cmp_keys(self, stmt: List[Tok], params: Dict[str, str],
                  symbols: Dict[str, str]) -> List[SortKeyFact]:
        st = [t.text for t in stmt]
        if st[:1] == ["return"]:
            stmt = stmt[1:]
        return self._operand_keys(stmt, params, symbols)

    def _operand_keys(self, expr: List[Tok], params: Dict[str, str],
                      symbols: Dict[str, str]) -> List[SortKeyFact]:
        keys: List[SortKeyFact] = []
        depth = 0
        last_cut = 0
        ops_at: List[int] = []
        for k, t in enumerate(expr):
            if t.text in "([":
                depth += 1
            elif t.text in ")]":
                depth -= 1
            elif depth == 0 and t.text in ("<", ">", "<=", ">=", "!=", "=="):
                ops_at.append(k)
        del last_cut
        for k in ops_at:
            for operand in (expr[:k], expr[k + 1:]):
                # Trim at logical connectives.
                out: List[Tok] = []
                d = 0
                for t in reversed(operand) if operand is expr[:k] else operand:
                    if t.text in ("&&", "||", "?", ":", "return") and d == 0:
                        break
                    if t.text in "([":
                        d += 1
                    elif t.text in ")]":
                        d -= 1
                    out.append(t)
                if operand is expr[:k]:
                    out.reverse()
                ktype = self._operand_type(out, params, symbols)
                keys.append(SortKeyFact(
                    text=spell(out)[:80], type=ktype,
                    is_pointer=ktype.rstrip().endswith("*")))
        return keys

    def _operand_type(self, operand: List[Tok], params: Dict[str, str],
                      symbols: Dict[str, str]) -> str:
        toks = [t for t in operand if t.text not in ("(", ")")]
        if len(toks) == 1 and toks[0].kind == "id":
            t = params.get(toks[0].text) or symbols.get(toks[0].text, "")
            return re.sub(r"\bconst\b|&", "", t).strip()
        if len(toks) == 3 and toks[1].text in (".", "->") \
                and toks[0].kind == "id" and toks[2].kind == "id":
            base = params.get(toks[0].text) or symbols.get(toks[0].text, "")
            base = re.sub(r"\bconst\b|[&*]", "", base).strip()
            members = self.member_types.get(base) or \
                self.member_types.get(base.rsplit("::", 1)[-1], {})
            t = members.get(toks[2].text, "")
            return re.sub(r"\bconst\b|&", "", t).strip()
        return ""

    # -- metrics ----------------------------------------------------------

    def _extract_metric(self, s: Scope, i: int, arg_index: int,
                        api: str) -> None:
        toks = self.toks
        close = match_paren(toks, i + 1)
        args = split_top(toks[i + 2:close], ",")
        if arg_index >= len(args):
            return
        arg = args[arg_index]
        is_literal = bool(arg) and all(t.kind == "str" for t in arg)
        self.facts.metric_calls.append(MetricCallFact(
            file=self.path, line=toks[i].line, function=s.name, api=api,
            arg_text=spell(arg)[:80], arg_is_literal=is_literal))

    # -- whole-file scans --------------------------------------------------

    def _extract_ordered_keys(self) -> None:
        toks = self.toks
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in ("map", "set", "hash",
                                                "less", "greater"):
                continue
            if i < 2 or toks[i - 1].text != "::" or toks[i - 2].text != "std":
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "<":
                continue
            end = match_angle(toks, i + 1)
            if end < 0:
                continue
            args = split_top(toks[i + 2:end - 1], ",")
            if not args or not args[0]:
                continue
            key_type = spell(args[0]).strip()
            n_custom = {"map": 3, "set": 2, "less": 99, "greater": 99,
                        "hash": 99}[t.text]
            self.facts.ordered_keys.append(OrderedKeyFact(
                file=self.path, line=t.line, container="std::" + t.text,
                key_type=key_type,
                has_custom_compare=len(args) >= n_custom))


def extract_file(rel_path: str, text: str) -> Facts:
    return Extractor(rel_path, text).run()


def _split_type_args(inner: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts
