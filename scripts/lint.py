#!/usr/bin/env python3
"""House lint for the GraphSig tree. No dependencies; CI runs it as a gate.

Rules (each can be waived on one line with a `lint:allow=<rule>` comment):

  raw-mutex     std::mutex / std::condition_variable (and the lock
                helpers that only work with them) anywhere outside
                src/util/sync.h. Everything must go through util::Mutex /
                util::CondVar so the Clang thread-safety analysis sees
                every lock in the program.

  seeded-rng    rand()/srand()/time() in src/. Library code must draw
                randomness from util::Rng with an explicit seed and take
                timestamps from callers; both are load-bearing for
                reproducible mining runs and the determinism tests.

  raw-printf    printf-family output in src/ (library code). Libraries
                report through util::Status or util/logging.h so output
                is capturable and flushed on GS_CHECK failure. Tools,
                benches, and tests may print freely. The log sink itself
                (src/util/logging.cc, src/util/check.cc) is allowlisted.

  todo-owner    TODO without an owner. Write TODO(name): so stale TODOs
                are attributable.

  raw-socket    socket/epoll syscalls (socket, connect, accept, send,
                recv, close, epoll_*, eventfd, ...) anywhere outside
                src/net/. All transport goes through the RAII + Status
                wrappers in src/net/socket.h so fd ownership, EINTR
                retries, and SIGPIPE suppression are written once.

  adhoc-atomic  std::atomic in src/ outside src/obs/ and src/util/.
                A bare atomic in library code is almost always a counter
                someone will want to read later — register it in
                obs::MetricsRegistry instead, where it is dumpable,
                resettable, and classified as deterministic-or-advisory.
                Genuine synchronization primitives belong in src/util/.

  raw-chrono    std::chrono in src/ outside src/obs/ and src/util/.
                Library code takes time from util::WallTimer or reports
                through obs trace spans; scattering clock reads breaks
                the "all wall time is advisory" fence the determinism
                contract relies on (DESIGN.md §12).

  fv-pointer-vector  std::vector<const FeatureVec*> anywhere outside
                src/features/feature_vector.h. The pointer-vector view of
                a feature population is retired: it scattered the hot
                dominance loops over the heap. Use
                features::PackedVectorSet (word-parallel kernels) or
                index spans over a contiguous std::vector<FeatureVec>.

  metric-name-literal  MetricsRegistry registration (GetCounter /
                GetAdvisoryCounter / GetGauge / GetHistogram / GetSpan)
                whose name argument is not a string literal, in src/
                outside src/obs/. The name is the metric's identity
                (DESIGN.md §12): a computed name forks the namespace at
                runtime, breaks the grep-able counter inventory, and
                desyncs the bench-regression baseline. src/obs/ itself
                is the sanctioned exception: the trace-span macro
                forwards its caller's literal path to GetSpan. The
                semantic analyzer's `metric-literal` checker proves the
                same property on the AST; this rule is its
                dependency-free line-level mirror.

  raw-std-random  <random> engines/distributions (std::mt19937,
                std::random_device, std::*_distribution, ...) anywhere
                outside src/util/. All randomness flows through
                util::Rng (src/util/rng.h): one engine, explicit seeds,
                and a stable draw sequence the cross-thread-determinism
                tests (and the approx tier's replayable estimates)
                depend on. std:: distributions are also not portable
                across standard-library implementations, so seeds would
                stop replaying the moment the toolchain changes.

  raw-ofstream  std::ofstream in src/ or tools/. An ofstream write that
                a crash, a signal or a full disk interrupts leaves a
                truncated file under the real name. Outputs go through
                util/durable_file.h (WriteAndSync, WriteFileAtomically)
                or tools::WriteFile, which write a temp file, fsync it
                and rename it into place.

Waiver hygiene: a `lint:allow=<rule>` comment is itself checked. A
waiver naming an unknown rule, or sitting on a line the named rule no
longer matches (the offending code was edited away, or the file is out
of the rule's scope), is reported as `stale-waiver` and fails the run —
waivers must never outlive the violation they document.

Directories named `fixtures/` are skipped: they hold deliberate
violations that drive the lint and analyzer self-tests.

Run with `--root <dir>` to lint a different tree (used by the
self-test, which lints small synthetic trees under /tmp).
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ["src", "tools", "tests", "bench", "examples", "fuzz"]
SOURCE_SUFFIXES = {".h", ".cc"}

ALLOW = re.compile(r"lint:allow=([\w-]+)")

# (rule, regex, scope predicate, message)
RULES = [
    (
        "raw-mutex",
        re.compile(
            r"std::(mutex|condition_variable|shared_mutex|recursive_mutex"
            r"|lock_guard|scoped_lock|unique_lock)\b"
        ),
        lambda rel: rel != Path("src/util/sync.h"),
        "use util::Mutex/util::MutexLock/util::CondVar from src/util/sync.h "
        "(keeps the thread-safety analysis complete)",
    ),
    (
        "seeded-rng",
        re.compile(r"(?<![\w:])(std::)?(rand|srand|time)\s*\("),
        lambda rel: rel.parts[0] == "src",
        "library code must use util::Rng with an explicit seed / take "
        "timestamps from callers (reproducible runs)",
    ),
    (
        "raw-printf",
        re.compile(r"(?<![\w:])(std::)?(printf|fprintf|puts|fputs|vprintf"
                   r"|vfprintf)\s*\("),
        lambda rel: rel.parts[0] == "src"
        and rel not in (Path("src/util/logging.cc"), Path("src/util/check.cc")),
        "library code reports through util::Status or util/logging.h, "
        "not direct stdio",
    ),
    (
        "todo-owner",
        re.compile(r"\bTODO\b(?!\()"),
        lambda rel: True,
        "write TODO(owner): so stale TODOs are attributable",
    ),
    (
        # `(?<![\w:.>])` keeps method calls (socket.close(), s->connect())
        # and qualified names out; `::close(` IS caught via the allowlist
        # exception being src/net/ only.
        "raw-socket",
        re.compile(
            r"(?<![\w.>])(::)?(socket|connect|accept4?|bind|listen|send"
            r"|sendto|sendmsg|recv|recvfrom|recvmsg|shutdown|close"
            r"|epoll_create1?|epoll_ctl|epoll_wait|eventfd|setsockopt"
            r"|getsockopt|getsockname)\s*\("
        ),
        lambda rel: rel.parts[:2] != ("src", "net"),
        "socket/epoll syscalls live in src/net/socket.h wrappers only "
        "(one place for fd ownership, EINTR, SIGPIPE)",
    ),
    (
        "adhoc-atomic",
        re.compile(r"std::atomic\b"),
        lambda rel: rel.parts[0] == "src"
        and rel.parts[:2] not in (("src", "obs"), ("src", "util")),
        "register counters in obs::MetricsRegistry (src/obs/metrics.h) "
        "instead of ad-hoc atomics; sync primitives go in src/util/",
    ),
    (
        "fv-pointer-vector",
        re.compile(
            r"std::vector<\s*const\s+(features::)?FeatureVec\s*\*\s*>"
        ),
        lambda rel: rel != Path("src/features/feature_vector.h"),
        "pointer-vector feature populations are retired; use "
        "features::PackedVectorSet (src/features/packed_vector_set.h) or "
        "index spans over a contiguous std::vector<FeatureVec>",
    ),
    (
        # After strip_strings a literal argument still starts with its
        # quote character, so only identifier-led arguments (variables,
        # expressions) match. A call whose literal sits on the next line
        # leaves nothing after the '(' — also a pass.
        "metric-name-literal",
        re.compile(
            r"Get(Counter|AdvisoryCounter|Gauge|Histogram|Span)"
            r"\s*\(\s*[A-Za-z_]"
        ),
        lambda rel: rel.parts[0] == "src"
        and rel.parts[:2] != ("src", "obs"),
        "register metrics with a string-literal name (the name is the "
        "identity, DESIGN.md §12); computed names fork the namespace — "
        "src/obs/, where the trace-span macro forwards its caller's "
        "literal, is the only exception",
    ),
    (
        "raw-std-random",
        re.compile(
            r"std::(mt19937(_64)?|minstd_rand0?|ranlux\w+|knuth_b"
            r"|default_random_engine|random_device|\w+_distribution"
            r"|seed_seq)\b"
            r"|#\s*include\s*<random>"
        ),
        lambda rel: rel.parts[:2] != ("src", "util"),
        "draw randomness from util::Rng (src/util/rng.h) with an explicit "
        "seed; std:: engines/distributions are unseeded-by-convention and "
        "not reproducible across standard libraries",
    ),
    (
        "raw-ofstream",
        re.compile(r"std::(basic_|w)?ofstream\b"),
        lambda rel: rel.parts[0] in ("src", "tools"),
        "write outputs through util/durable_file.h or tools::WriteFile "
        "(temp file, fsync, rename), so an interrupted write never "
        "leaves a truncated file",
    ),
    (
        "raw-chrono",
        re.compile(r"std::chrono\b"),
        lambda rel: rel.parts[0] == "src"
        and rel.parts[:2] not in (("src", "obs"), ("src", "util")),
        "take wall time from util::WallTimer or obs trace spans, not "
        "raw std::chrono (keeps wall time fenced as advisory)",
    ),
]


def strip_strings(line: str) -> str:
    """Blank out string/char literal contents so rules don't fire on them."""
    out, i, n = [], 0, len(line)
    while i < n:
        c = line[i]
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and line[i] != quote:
                out.append(" " if line[i] != "\\" else " ")
                i += 2 if line[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


RULE_BY_NAME = {rule: (pattern, in_scope) for rule, pattern, in_scope, _
                in RULES}


def lint_file(path: Path, repo: Path) -> list:
    rel = path.relative_to(repo)
    findings = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [(rel, 0, "encoding", "source files must be UTF-8")]
    for lineno, line in enumerate(text.splitlines(), start=1):
        allowed = set(ALLOW.findall(line))
        stripped = strip_strings(line)
        # todo-owner applies to comments too; the others look at code only.
        code = stripped.split("//", 1)[0]
        for rule, pattern, in_scope, message in RULES:
            if rule in allowed or not in_scope(rel):
                continue
            haystack = stripped if rule == "todo-owner" else code
            if pattern.search(haystack):
                findings.append((rel, lineno, rule, message))
        # Waiver hygiene: every waiver must name a real rule AND sit on
        # a line that rule would currently flag. Anything else is stale.
        for name in sorted(allowed):
            entry = RULE_BY_NAME.get(name)
            if entry is None:
                findings.append((
                    rel, lineno, "stale-waiver",
                    f"`lint:allow={name}` names an unknown rule — fix the "
                    f"spelling or remove the waiver"))
                continue
            pattern, in_scope = entry
            haystack = stripped if name == "todo-owner" else code
            if not in_scope(rel) or not pattern.search(haystack):
                findings.append((
                    rel, lineno, "stale-waiver",
                    f"`lint:allow={name}` no longer matches this line "
                    f"(rule out of scope here or the violation was edited "
                    f"away) — remove the waiver"))
    return findings


def collect_files(repo: Path) -> list:
    files = []
    for d in SOURCE_DIRS:
        root = repo / d
        if not root.is_dir():
            continue
        files.extend(
            p for p in sorted(root.rglob("*"))
            if p.suffix in SOURCE_SUFFIXES
            and "fixtures" not in p.relative_to(repo).parts
        )
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="tree to lint (default: this repo)")
    args = parser.parse_args()
    repo = args.root.resolve()
    files = collect_files(repo)
    findings = []
    for path in files:
        findings.extend(lint_file(path, repo))
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    print(
        f"lint.py: scanned {len(files)} files, "
        f"{len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
