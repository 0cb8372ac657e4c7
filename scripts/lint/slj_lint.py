#!/usr/bin/env python3
"""slj_lint: repo-specific invariant linter for the slj codebase.

Enforces seven invariants the compiler cannot see:

  hot-path-alloc   Functions marked SLJ_HOT_PATH (the steady-state per-frame
                   kernels: *_into, tick_into, process_into) must not allocate.
                   Banned outright: new expressions, the malloc family,
                   make_unique/make_shared, std::to_string, and by-value
                   locals of owning container types. Growth calls
                   (push_back/emplace_back/resize/resize_discard/assign/
                   reserve/insert/append) are allowed only when the receiver
                   is rooted in a reference parameter or a local reference
                   alias — the sanctioned recycled-workspace idiom
                   (`auto& rows = ws.thin_rows;`). `throw`
                   statements are exempt: they are the cold error path.

  unchecked-read   Deserializer functions (image_io.cpp, clip_io.cpp,
                   trace_format.cpp) that size containers from decoded
                   values must carry a guard in the same function body:
                   a kMax* cap, need()/fail()/check_* calls, or a throw.
                   Attacker-controlled lengths must never reach resize()
                   unchecked.

  naked-mutex      std::mutex / std::lock_guard / std::unique_lock /
                   std::scoped_lock / std::condition_variable are banned in
                   src/ outside core/annotations.hpp. All locking goes
                   through slj::Mutex / slj::LockGuard / slj::CondVar so
                   Clang thread-safety analysis sees every acquisition.

  simd-dispatch    SIMD feature macros (__SSE*, __AVX*, __ARM_NEON*,
                   SLJ_SIMD_*) are banned in src/ outside core/simd.hpp —
                   backend selection happens exactly once, in the Active
                   alias; kernels are templated on the backend tag. Also
                   bans #if / #ifdef / #ifndef inside SLJ_HOT_PATH bodies:
                   a hot kernel must be one preprocessor-free code path,
                   not an #ifdef ladder that rots on untested backends.

  layering         Quoted includes in src/ must respect the explicit module
                   DAG in scripts/lint/layers.toml (core_base at the bottom,
                   replay at the top). A file may include only its own module
                   and the modules its layer explicitly depends on — upward
                   and sideways dependencies are findings, and a new edge
                   requires an explicit layers.toml change in the same
                   commit. Includes must be written in canonical
                   "module/header.hpp" form (no "../", no bare names).

  atomics-discipline
                   Every memory_order_relaxed site must carry a
                   `// slj-atomic: <role>` tag (same line or the line above)
                   with a role from {counter, snapshot, flag, seqlock} —
                   see scripts/lint/README.md for the taxonomy. A relaxed
                   read-modify-write whose result feeds control flow
                   (if/while/for condition or return) is flagged unless the
                   tag's role is counter, snapshot, or seqlock: the `flag`
                   role and untagged sites get the acq_rel-hazard finding.
                   Inside SLJ_HOT_PATH bodies, atomic member operations with
                   a defaulted (seq_cst) memory order are banned outright —
                   the hot path never pays an implicit full fence.

  determinism      Bit-identical replay outlaws hidden iteration and FP
                   order dependence: no range-for over unordered containers
                   (copy to a vector and sort — skeleton_graph.cpp shows the
                   idiom); no single-precision `float` inside SLJ_HOT_PATH
                   kernels (integer lanes, or `double` for the exact
                   integer-sum SAT idiom, only); and no rand()/srand()/
                   time()/std::random_device anywhere in src/ outside
                   synth/ (clocks are injected, randomness is seeded).

Engines:
  ast (default)    The lexical checks always run as the floor; on top of
                   them `clang++ -ast-dump=json` (driven through
                   compile_commands.json when available) adds structural
                   checks per translation unit: macro-hidden allocations,
                   operator++ on atomics, range-fors whose unordered type
                   is only visible after template substitution. A TU whose
                   AST dump fails falls back to lexical-only — loudly, per
                   file, and fatally under --strict-engine. Headers are
                   lexical by construction (they have no compile entry) and
                   are not counted as fallbacks.
  lexical          Pure Python, token-level; runs anywhere, no clang.

Suppression: append `// slj-lint: allow(<rule>)` to the offending line or
the line above it. Use sparingly; every suppression is grep-able and the
count is ratcheted by scripts/lint/suppressions_baseline.txt (CI fails if
it grows without a baseline update in the same commit).

Exit status: 0 clean, 1 findings (or ratchet breach), 2 usage or
environment error (including --strict-engine fallbacks).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - python < 3.11
    tomllib = None

RULES = (
    "hot-path-alloc",
    "unchecked-read",
    "naked-mutex",
    "simd-dispatch",
    "layering",
    "atomics-discipline",
    "determinism",
)

HOT_PATH_MARKER = "SLJ_HOT_PATH"

# Deserializer files subject to the unchecked-read rule (repo-relative).
DESERIALIZER_FILES = {
    "src/imaging/image_io.cpp",
    "src/synth/clip_io.cpp",
    "src/replay/trace_format.cpp",
}

# Tokens that count as a length guard inside a deserializer function body.
GUARD_TOKENS = ("kMax", "need(", "fail(", "check_", "throw")

BANNED_ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"  # new expressions (placement-new is still new storage upstream)
    r"|\bnew\s*\("
    r"|\b(?:std\s*::\s*)?(?:malloc|calloc|realloc|aligned_alloc|strdup)\s*\("
    r"|\b(?:std\s*::\s*)?make_(?:unique|shared)\b"
    r"|\bstd\s*::\s*to_string\s*\("
)

GROWTH_CALL_RE = re.compile(
    r"(?P<chain>[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(?P<method>push_back|emplace_back|resize|resize_discard|assign|reserve|insert|append)"
    r"\s*\("
)

# By-value local of an owning container type: `std::vector<T> v;` etc.
CONTAINER_LOCAL_RE = re.compile(
    r"^\s*(?:const\s+)?(?:std\s*::\s*)?"
    r"(?:vector|string|wstring|deque|list|map|set|multimap|multiset"
    r"|unordered_map|unordered_set|basic_string|valarray)\s*"
    r"(?:<[^;{}]*>)?\s+(?P<name>[A-Za-z_]\w*)\s*(?:[;={(]|$)",
    re.MULTILINE,
)

NAKED_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any)\b"
)

SIZING_CALL_RE = re.compile(r"\.\s*(resize|reserve|assign)\s*\(")

# SIMD feature-test / backend-selection macros; only core/simd.hpp may
# mention them (including in #if conditions).
SIMD_MACRO_RE = re.compile(r"\b(?:__SSE\w*|__AVX\w*|__ARM_NEON\w*|SLJ_SIMD_\w+)\b")

# Preprocessor conditionals (banned inside SLJ_HOT_PATH bodies).
PP_COND_RE = re.compile(r"^[ \t]*#[ \t]*if(?:n?def)?\b", re.MULTILINE)

REF_PARAM_RE = re.compile(r"&\s*(?:__restrict__\s+)?([A-Za-z_]\w*)\s*(?:,|\)|=|$)")
REF_ALIAS_RE = re.compile(
    r"(?:^|[;{}])\s*(?:const\s+)?(?:auto|[A-Za-z_][\w:]*(?:\s*<[^;{}=]*>)?)\s*&\s*"
    r"([A-Za-z_]\w*)\s*="
)

SUPPRESS_RE = re.compile(r"slj-lint:\s*allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)")

# ---- layering --------------------------------------------------------------

QUOTED_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.MULTILINE)
CANONICAL_INCLUDE_RE = re.compile(r"^[A-Za-z0-9_]+/[A-Za-z0-9_./]+$")

# ---- atomics-discipline ----------------------------------------------------

ATOMIC_ROLES = ("counter", "snapshot", "flag", "seqlock")
# Roles that sanction a relaxed RMW whose result feeds control flow: tickets
# and CAS-max loops (counter), monotonic republish loops (snapshot), and
# seqlock generation checks. A `flag` is load/store-only by definition.
RMW_CONTROL_OK_ROLES = frozenset(("counter", "snapshot", "seqlock"))

ATOMIC_TAG_RE = re.compile(r"slj-atomic:\s*([A-Za-z_-]+)")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RMW_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?P<method>fetch_(?:add|sub|and|or|xor)|exchange"
    r"|compare_exchange_(?:weak|strong))\s*\("
)
ATOMIC_MEMBER_RE = re.compile(
    r"(?P<chain>[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(?P<method>load|store|exchange|fetch_(?:add|sub|and|or|xor)"
    r"|compare_exchange_(?:weak|strong))\s*\("
)
# Methods that only exist on std::atomic; `.load`/`.store` also live on the
# SIMD vector types, so those two need the receiver to be a known atomic.
ATOMIC_ONLY_METHODS = frozenset((
    "exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong",
))
CONTROL_KEYWORD_RE = re.compile(r"\b(?:if|while|for|return)\b")

# ---- determinism -----------------------------------------------------------

UNORDERED_TYPE_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*(?P<decl>[^;()]*?)\s*:\s*(?P<range>[^;]*?)\)\s*[{a-zA-Z]")
NONDET_SOURCE_RE = re.compile(
    r"(?<![\w.:>])(?:std\s*::\s*)?(?P<what>rand|srand)\s*\("
    r"|(?<![\w.:>])(?P<time>time)\s*\("
    r"|\b(?P<rd>random_device)\b"
)
FLOAT_TOKEN_RE = re.compile(r"\bfloat\b")


@dataclass
class Finding:
    path: Path
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"

    def key(self) -> tuple:
        return (str(self.path), self.line, self.rule)


@dataclass
class EngineReport:
    """Per-file engine accounting for the summary line and --strict-engine."""

    per_file: dict[str, str] = field(default_factory=dict)
    fallbacks: list[tuple[str, str]] = field(default_factory=list)  # (rel, reason)

    def note(self, rel: str, engine: str) -> None:
        self.per_file[rel] = engine

    def note_fallback(self, rel: str, reason: str) -> None:
        self.per_file[rel] = "lexical (fallback)"
        self.fallbacks.append((rel, reason))

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for eng in self.per_file.values():
            counts[eng] = counts.get(eng, 0) + 1
        parts = [f"{eng}={n}" for eng, n in sorted(counts.items())]
        return ", ".join(parts) if parts else "lexical=0"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string literals, and char literals.

    Length and newline positions are preserved so offsets map 1:1 back to
    the original text.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def strip_comments_only(text: str) -> str:
    """Blank out comments but keep string literals (include paths are
    strings — the layering rule needs them intact, but must not match a
    commented-out `#include`). Length/newlines preserved."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    i += 2
                    continue
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def suppressions(raw_lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line number -> set of rules allowed on that line."""
    allowed: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        # A suppression covers its own line and the next one, so it can sit
        # on the line above a long statement.
        allowed.setdefault(idx, set()).update(rules)
        allowed.setdefault(idx + 1, set()).update(rules)
    return allowed


def atomic_tags(raw_lines: list[str]) -> dict[int, str]:
    """Map 1-based line number -> slj-atomic role declared ON that line."""
    tags: dict[int, str] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ATOMIC_TAG_RE.search(line)
        if m:
            tags[idx] = m.group(1)
    return tags


def role_for_line(tags: dict[int, str], line: int) -> str | None:
    """A tag covers its own line first, then the line directly below it."""
    if line in tags:
        return tags[line]
    return tags.get(line - 1)


def match_paren(text: str, open_pos: int, open_ch: str = "(", close_ch: str = ")") -> int:
    """Offset just past the matching close bracket, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def find_function_bodies(stripped: str) -> list[tuple[int, int, int]]:
    """Top-level function bodies as (header_start, body_start, body_end).

    Namespace / struct / class / enum / extern blocks are transparent, so
    member functions inside them are still found. body_start/body_end are
    the offsets of the opening and closing braces. Nested lambdas are part
    of their enclosing body, not separate entries.
    """
    bodies = []
    transparent_kw = re.compile(r"\b(namespace|struct|class|union|enum|extern)\b")
    i, n = 0, len(stripped)
    stack = []  # per open brace: True if a function body we recorded
    while i < n:
        c = stripped[i]
        if c == "{":
            inside_fn = any(stack)
            if inside_fn:
                stack.append(False)
                i += 1
                continue
            # Header: backtrack to the previous ';', '{', or '}'.
            h = i - 1
            while h >= 0 and stripped[h] not in ";{}":
                h -= 1
            header = stripped[h + 1 : i]
            is_fn = "(" in header and not transparent_kw.search(header)
            # An initializer list (`= {` / `return {`) is not a body.
            if re.search(r"[=,]\s*$|\breturn\s*$", header):
                is_fn = False
            if is_fn:
                end = match_paren(stripped, i, "{", "}")
                if end < 0:
                    break
                bodies.append((h + 1, i, end - 1))
            stack.append(is_fn)
        elif c == "}":
            if stack:
                stack.pop()
        i += 1
    return bodies


def strip_throw_statements(body: str) -> str:
    """Blank every `throw ...;` statement (cold error paths are exempt)."""
    out = list(body)
    for m in re.finditer(r"\bthrow\b", body):
        i = m.start()
        depth = 0
        while i < len(body):
            ch = body[i]
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == ";" and depth <= 0:
                break
            if ch != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def chain_root(chain: str) -> str:
    return re.split(r"\s*(?:\.|->)\s*", chain.strip())[0]


def hot_path_bodies(stripped: str) -> list[tuple[str, int, str]]:
    """(params, body_offset, body_text) for each SLJ_HOT_PATH *definition*.

    body_offset is the offset of the opening brace in `stripped`;
    declarations without a body are skipped (checked in their defining TU).
    """
    out: list[tuple[str, int, str]] = []
    for m in re.finditer(rf"\b{HOT_PATH_MARKER}\b", stripped):
        sig_start = m.end()
        open_paren = stripped.find("(", sig_start)
        if open_paren < 0:
            continue
        after_params = match_paren(stripped, open_paren)
        if after_params < 0:
            continue
        # Skip trailing qualifiers (const, noexcept, override...) to the
        # body or the declaration's terminating ';'.
        j = after_params
        while j < len(stripped) and stripped[j] not in "{;":
            j += 1
        if j >= len(stripped) or stripped[j] == ";":
            continue
        body_end = match_paren(stripped, j, "{", "}")
        if body_end < 0:
            continue
        out.append((stripped[open_paren + 1 : after_params - 1], j, stripped[j:body_end]))
    return out


def check_hot_path_lexical(path: Path, raw: str, stripped: str) -> list[Finding]:
    findings: list[Finding] = []
    for params, j, body in hot_path_bodies(stripped):
        roots = {name for name in REF_PARAM_RE.findall(params)}
        roots.add("this")
        body_line0 = line_of(stripped, j)
        roots.update(REF_ALIAS_RE.findall(body))
        scannable = strip_throw_statements(body)

        for bm in BANNED_ALLOC_RE.finditer(scannable):
            ln = body_line0 + scannable.count("\n", 0, bm.start())
            tok = bm.group(0).strip().rstrip("(").strip()
            findings.append(
                Finding(path, ln, "hot-path-alloc", f"allocation `{tok}` in {HOT_PATH_MARKER} function")
            )
        for gm in GROWTH_CALL_RE.finditer(scannable):
            root = chain_root(gm.group("chain"))
            if root in roots:
                continue
            ln = body_line0 + scannable.count("\n", 0, gm.start())
            findings.append(
                Finding(
                    path, ln, "hot-path-alloc",
                    f"growth call `{gm.group('chain')}.{gm.group('method')}()` on "
                    f"`{root}`, which is not a reference parameter or local reference "
                    f"alias of this {HOT_PATH_MARKER} function",
                )
            )
        for cm in CONTAINER_LOCAL_RE.finditer(scannable):
            ln = body_line0 + scannable.count("\n", 0, cm.start("name"))
            findings.append(
                Finding(
                    path, ln, "hot-path-alloc",
                    f"by-value owning container local `{cm.group('name')}` in "
                    f"{HOT_PATH_MARKER} function (recycle a workspace buffer instead)",
                )
            )
    return findings


def check_unchecked_read(path: Path, rel: str, raw: str, stripped: str) -> list[Finding]:
    if rel not in DESERIALIZER_FILES:
        return []
    findings: list[Finding] = []
    for _, body_start, body_end in find_function_bodies(stripped):
        body = stripped[body_start:body_end]
        sized_from_variable = []
        for sm in SIZING_CALL_RE.finditer(body):
            arg_open = body.find("(", sm.end() - 1)
            arg_close = match_paren(body, arg_open)
            if arg_close < 0:
                continue
            arg = body[arg_open + 1 : arg_close - 1]
            if re.search(r"[A-Za-z_]", arg):
                sized_from_variable.append((sm, arg.strip()))
        if not sized_from_variable:
            continue
        if any(tok in body for tok in GUARD_TOKENS):
            continue
        for sm, arg in sized_from_variable:
            ln = line_of(stripped, body_start + sm.start())
            findings.append(
                Finding(
                    path, ln, "unchecked-read",
                    f"container sized from `{arg}` with no length guard "
                    f"(kMax* cap, need()/fail()/check_*, or throw) in the same function",
                )
            )
    return findings


def check_naked_mutex(path: Path, rel: str, raw: str, stripped: str) -> list[Finding]:
    if rel == "src/core/annotations.hpp":
        return []
    findings = []
    for m in NAKED_MUTEX_RE.finditer(stripped):
        ln = line_of(stripped, m.start())
        findings.append(
            Finding(
                path, ln, "naked-mutex",
                f"naked std::{m.group(1)}; use slj::Mutex / slj::LockGuard / "
                f"slj::CondVar from core/annotations.hpp so thread-safety "
                f"analysis sees the acquisition",
            )
        )
    return findings


def check_simd_dispatch(path: Path, rel: str, raw: str, stripped: str) -> list[Finding]:
    findings: list[Finding] = []
    # Backend selection happens exactly once: feature macros stay inside
    # core/simd.hpp; every other file dispatches through the Active tag.
    if rel != "src/core/simd.hpp":
        for m in SIMD_MACRO_RE.finditer(stripped):
            ln = line_of(stripped, m.start())
            findings.append(
                Finding(
                    path, ln, "simd-dispatch",
                    f"SIMD feature macro `{m.group(0)}` outside core/simd.hpp; "
                    f"template on a backend tag and dispatch through "
                    f"slj::simd::Active instead",
                )
            )
    # A hot kernel is one preprocessor-free code path: per-ISA #ifdef
    # ladders silently rot on whichever backend CI does not build.
    if HOT_PATH_MARKER in stripped:
        for _, j, body in hot_path_bodies(stripped):
            body_line0 = line_of(stripped, j)
            for pm in PP_COND_RE.finditer(body):
                ln = body_line0 + body.count("\n", 0, pm.start())
                findings.append(
                    Finding(
                        path, ln, "simd-dispatch",
                        f"preprocessor conditional inside a {HOT_PATH_MARKER} body; "
                        f"hot kernels must be one code path (move the choice to "
                        f"core/simd.hpp or a template parameter)",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# layering: quoted includes validated against the module DAG.
# ---------------------------------------------------------------------------


class LayerMap:
    """Module DAG from layers.toml: file -> module, module -> allowed deps."""

    def __init__(self, by_path: dict[str, str], by_dir: dict[str, str],
                 deps: dict[str, frozenset[str]]):
        self.by_path = by_path
        self.by_dir = by_dir
        self.deps = deps

    @classmethod
    def load(cls, path: Path) -> "LayerMap":
        if tomllib is None:
            print("slj_lint: layering needs Python >= 3.11 (tomllib)", file=sys.stderr)
            sys.exit(2)
        try:
            data = tomllib.loads(path.read_text())
        except (OSError, tomllib.TOMLDecodeError) as e:
            print(f"slj_lint: cannot load layers file {path}: {e}", file=sys.stderr)
            sys.exit(2)
        by_path: dict[str, str] = {}
        by_dir: dict[str, str] = {}
        deps: dict[str, frozenset[str]] = {}
        modules = data.get("modules", {})
        for name, spec in modules.items():
            deps[name] = frozenset(spec.get("deps", []))
            for p in spec.get("paths", []):
                by_path[p] = name
            if "dir" in spec:
                by_dir[spec["dir"]] = name
        for name, dd in deps.items():
            unknown = dd - set(deps)
            if unknown:
                print(f"slj_lint: layers.toml module `{name}` depends on "
                      f"unknown module(s): {', '.join(sorted(unknown))}", file=sys.stderr)
                sys.exit(2)
        return cls(by_path, by_dir, deps)

    def module_of(self, src_rel: str) -> str | None:
        """Module for a path relative to src/ ("ingest/frame_queue.hpp")."""
        if src_rel in self.by_path:
            return self.by_path[src_rel]
        top = src_rel.split("/", 1)[0]
        return self.by_dir.get(top)


def check_layering(path: Path, rel: str, raw: str, layers: LayerMap | None) -> list[Finding]:
    if layers is None or not rel.startswith("src/"):
        return []
    src_rel = rel[len("src/"):]
    module = layers.module_of(src_rel)
    findings: list[Finding] = []
    if module is None:
        findings.append(
            Finding(path, 1, "layering",
                    f"`{src_rel}` belongs to no module in scripts/lint/layers.toml; "
                    f"add the new directory to the DAG before using it")
        )
        return findings
    allowed = layers.deps[module] | {module}
    # Includes are string literals, so this scan works on comment-stripped
    # raw text rather than the fully stripped buffer.
    scannable = strip_comments_only(raw)
    for m in QUOTED_INCLUDE_RE.finditer(scannable):
        inc = m.group(1)
        ln = line_of(scannable, m.start())
        if ".." in inc.split("/") or not CANONICAL_INCLUDE_RE.match(inc):
            findings.append(
                Finding(path, ln, "layering",
                        f'include "{inc}" is not in canonical "module/header.hpp" '
                        f"form (repo-relative, no \"..\")")
            )
            continue
        target = layers.module_of(inc)
        if target is None:
            findings.append(
                Finding(path, ln, "layering",
                        f'include "{inc}" resolves to no module in '
                        f"scripts/lint/layers.toml")
            )
            continue
        if target not in allowed:
            direction = "upward/sideways"
            findings.append(
                Finding(path, ln, "layering",
                        f"{direction} dependency: module `{module}` may not include "
                        f"`{target}` (`{inc}`); allowed deps: "
                        f"{', '.join(sorted(layers.deps[module])) or '(none)'} — "
                        f"a new edge needs an explicit layers.toml change")
            )
    return findings


# ---------------------------------------------------------------------------
# atomics-discipline: tag taxonomy + RMW/control-flow + hot-path seq_cst.
# ---------------------------------------------------------------------------


def atomic_decl_names(stripped: str) -> set[str]:
    """Names declared with a std::atomic<...> type in this text."""
    names: set[str] = set()
    for m in re.finditer(r"\batomic\b", stripped):
        after = stripped[m.end():]
        ws = re.match(r"\s*", after).end()
        if ws >= len(after) or after[ws] != "<":
            continue
        close = match_paren(after, ws, "<", ">")
        if close < 0:
            continue
        nm = re.match(r"\s*([A-Za-z_]\w*)\s*[;{=]", after[close:])
        if nm:
            names.add(nm.group(1))
    return names


def statement_around(text: str, pos: int) -> str:
    """The statement containing pos: from the previous ';'/'{'/'}' up to pos.

    Only the prefix matters — the checks look for control keywords that
    precede the match inside its own statement.
    """
    start = pos
    while start > 0 and text[start - 1] not in ";{}":
        start -= 1
    return text[start:pos]


def check_atomics(path: Path, rel: str, raw: str, stripped: str,
                  raw_lines: list[str]) -> list[Finding]:
    if "memory_order_relaxed" not in stripped and not (
        HOT_PATH_MARKER in stripped and ATOMIC_MEMBER_RE.search(stripped)
    ):
        return []
    findings: list[Finding] = []
    tags = atomic_tags(raw_lines)

    # 1. Taxonomy: every relaxed site carries a valid role tag.
    for m in RELAXED_RE.finditer(stripped):
        ln = line_of(stripped, m.start())
        role = role_for_line(tags, ln)
        if role is None:
            findings.append(
                Finding(path, ln, "atomics-discipline",
                        "untagged memory_order_relaxed site; add "
                        "`// slj-atomic: <counter|snapshot|flag|seqlock>` on this "
                        "line or the line above (taxonomy: scripts/lint/README.md)")
            )
        elif role not in ATOMIC_ROLES:
            findings.append(
                Finding(path, ln, "atomics-discipline",
                        f"unknown slj-atomic role `{role}`; expected one of "
                        f"{', '.join(ATOMIC_ROLES)}")
            )

    # 2. Relaxed RMW feeding control flow: the classic acq_rel hazard
    #    (`if (refs.fetch_sub(1, relaxed) == 1) reclaim();`). Sanctioned only
    #    for roles that are monotonic by construction.
    for m in RMW_CALL_RE.finditer(stripped):
        args_open = stripped.find("(", m.end() - 1)
        args_close = match_paren(stripped, args_open)
        if args_close < 0:
            continue
        call_text = stripped[m.start():args_close]
        if "memory_order_relaxed" not in call_text:
            continue
        prefix = statement_around(stripped, m.start())
        if not CONTROL_KEYWORD_RE.search(prefix):
            continue
        ln = line_of(stripped, m.start())
        role = role_for_line(tags, ln)
        if role in RMW_CONTROL_OK_ROLES:
            continue
        findings.append(
            Finding(path, ln, "atomics-discipline",
                    f"relaxed read-modify-write `{m.group('method')}` feeds control "
                    f"flow; relaxed RMW results must not gate branches unless the "
                    f"site is tagged counter/snapshot/seqlock (a reclaim-style "
                    f"branch needs acq_rel)")
        )

    # 3. Hot path: a defaulted memory order is an implicit seq_cst fence.
    #    `.load`/`.store` also exist on the SIMD vector types, so those two
    #    only count when the receiver is a name declared std::atomic in this
    #    file or its sibling header; the fetch_*/exchange/CAS family is
    #    unambiguous.
    known_atomics: set[str] | None = None
    for _, j, body in hot_path_bodies(stripped):
        body_line0 = line_of(stripped, j)
        for am in ATOMIC_MEMBER_RE.finditer(body):
            if am.group("method") not in ATOMIC_ONLY_METHODS:
                if known_atomics is None:
                    known_atomics = atomic_decl_names(stripped)
                    if path.suffix == ".cpp":
                        for ext in (".hpp", ".h"):
                            sib = path.with_suffix(ext)
                            if sib.is_file():
                                known_atomics |= atomic_decl_names(
                                    strip_comments_and_strings(
                                        sib.read_text(errors="replace")))
                receiver = re.split(r"\s*(?:\.|->)\s*", am.group("chain"))[-1]
                if receiver not in known_atomics:
                    continue
            args_open = body.find("(", am.end() - 1)
            args_close = match_paren(body, args_open)
            if args_close < 0:
                continue
            args = body[args_open + 1 : args_close - 1]
            if "memory_order" in args:
                continue
            ln = body_line0 + body.count("\n", 0, am.start())
            findings.append(
                Finding(path, ln, "atomics-discipline",
                        f"atomic `{am.group('method')}` with defaulted (seq_cst) "
                        f"memory order inside a {HOT_PATH_MARKER} body; spell the "
                        f"order explicitly — the hot path never pays an implicit "
                        f"full fence")
            )
    return findings


# ---------------------------------------------------------------------------
# determinism: no unordered iteration, no float in hot kernels, no wall-clock
# or libc randomness outside synth/.
# ---------------------------------------------------------------------------


def unordered_locals(stripped: str) -> set[str]:
    """Names declared with an unordered container type anywhere in the file."""
    names: set[str] = set()
    for m in UNORDERED_TYPE_RE.finditer(stripped):
        after = stripped[m.end():]
        # Skip template arguments if present, then take the declared name.
        offset = 0
        ws = re.match(r"\s*", after)
        offset += ws.end()
        if offset < len(after) and after[offset] == "<":
            close = match_paren(after, offset, "<", ">")
            if close < 0:
                continue
            offset = close
        # Terminators cover locals/members (;={) and function parameters (,)).
        nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(),]", after[offset:])
        if nm:
            names.add(nm.group(1))
    return names


def check_determinism(path: Path, rel: str, raw: str, stripped: str) -> list[Finding]:
    findings: list[Finding] = []

    # 1. Range-for over an unordered container: hash-seed iteration order
    #    leaks straight into whatever the loop builds. Copy into a vector and
    #    sort (see skeleton_graph.cpp `specials`) instead.
    if "unordered_" in stripped:
        unordered = unordered_locals(stripped)
        for m in RANGE_FOR_RE.finditer(stripped):
            range_expr = m.group("range").strip()
            root = re.match(r"(?:const\s+)?(?:auto\s*&?&?\s*)?([A-Za-z_]\w*)", range_expr)
            flagged = False
            if root and root.group(1) in unordered:
                flagged = True
            if UNORDERED_TYPE_RE.search(range_expr):
                flagged = True
            if flagged:
                ln = line_of(stripped, m.start())
                findings.append(
                    Finding(path, ln, "determinism",
                            f"range-for over unordered container `{range_expr}`: "
                            f"hash-seed iteration order is nondeterministic; copy "
                            f"into a vector and sort before iterating")
                )

    # 2. Single-precision floats in hot kernels: the bit-identity contract
    #    allows integer lanes and the exact integer-sum double SAT idiom only.
    for _, j, body in hot_path_bodies(stripped):
        body_line0 = line_of(stripped, j)
        for fm in FLOAT_TOKEN_RE.finditer(body):
            ln = body_line0 + body.count("\n", 0, fm.start())
            findings.append(
                Finding(path, ln, "determinism",
                        f"`float` inside a {HOT_PATH_MARKER} kernel; the "
                        f"integer-domain bit-identity contract allows integer "
                        f"lanes or exact integer-sum `double` accumulation only")
            )

    # 3. Wall clocks and libc randomness: only synth/ may generate entropy;
    #    everything else takes an injected clock or a seeded stream.
    if not rel.startswith("src/synth/"):
        for m in NONDET_SOURCE_RE.finditer(stripped):
            what = m.group("what") or m.group("time") or m.group("rd")
            ln = line_of(stripped, m.start())
            findings.append(
                Finding(path, ln, "determinism",
                        f"nondeterminism source `{what}` outside src/synth/; "
                        f"inject a clock / use a seeded generator so replay "
                        f"stays bit-identical")
            )
    return findings


# ---------------------------------------------------------------------------
# AST engine: structural overlay per translation unit (clang required).
#
# The lexical checks above always run; the AST adds what tokens cannot see —
# macro-hidden allocations, operator++ on atomics, unordered types behind
# aliases — and findings are deduped by (file, line, rule).
# ---------------------------------------------------------------------------

AST_ALLOC_CALLEES = ("malloc", "calloc", "realloc", "aligned_alloc", "strdup",
                     "make_unique", "make_shared", "to_string")
AST_ATOMIC_METHODS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
                      "fetch_and", "fetch_or", "fetch_xor",
                      "compare_exchange_weak", "compare_exchange_strong")
AST_NONDET_CALLEES = ("rand", "srand", "time")

# Structural rules can only fire on files showing one of these tokens, so
# TUs without them skip the (expensive) AST dump entirely.
AST_SURFACE_RE = re.compile(
    r"SLJ_HOT_PATH|atomic|unordered_|fetch_|\brandom_device\b"
)


class AstWalker:
    """Walks a clang JSON AST keeping the sticky file/line position state.

    clang omits `file`/`line` on a location when unchanged from the
    previously printed one, so position is threaded through the document-
    order traversal.
    """

    def __init__(self, tu_file: str):
        self.tu_file = tu_file
        self.cur_file = ""
        self.cur_line = 0

    def update_pos(self, node: dict) -> None:
        for key in ("loc", "range"):
            loc = node.get(key)
            if not isinstance(loc, dict):
                continue
            if key == "range":
                loc = loc.get("begin", {})
            if "expansionLoc" in loc:
                loc = loc["expansionLoc"]
            if "file" in loc:
                self.cur_file = loc["file"]
            if "line" in loc:
                self.cur_line = int(loc["line"])
            break

    def in_main_file(self) -> bool:
        # Position starts unset; clang sets `file` on the first main-file loc
        # and on every file switch, so empty means "main file so far".
        return not self.cur_file or os.path.basename(self.cur_file) == os.path.basename(self.tu_file)


def _is_hot_function(node: dict) -> bool:
    if node.get("kind") not in ("FunctionDecl", "CXXMethodDecl"):
        return False
    for child in node.get("inner", []) or []:
        if isinstance(child, dict) and child.get("kind") == "AnnotateAttr":
            if "slj_hot_path" in json.dumps(child):
                return True
    return False


def _ast_scan(node, walker: AstWalker, hot_depth: int, tu_path: Path,
              rel: str, rules: set[str], out: list[Finding]) -> None:
    if isinstance(node, list):
        for child in node:
            _ast_scan(child, walker, hot_depth, tu_path, rel, rules, out)
        return
    if not isinstance(node, dict):
        return
    walker.update_pos(node)
    kind = node.get("kind", "")
    in_main = walker.in_main_file()
    line = walker.cur_line
    entered_hot = _is_hot_function(node)
    if entered_hot:
        hot_depth += 1

    if in_main and hot_depth > 0 and "hot-path-alloc" in rules:
        if kind == "CXXNewExpr":
            out.append(Finding(tu_path, line, "hot-path-alloc",
                               f"new expression in {HOT_PATH_MARKER} function (AST)"))
        elif kind in ("CallExpr", "CXXConstructExpr"):
            blob = json.dumps(node.get("inner", [])[:2])
            for fn in AST_ALLOC_CALLEES:
                if f'"{fn}"' in blob:
                    out.append(Finding(tu_path, line, "hot-path-alloc",
                                       f"call to {fn} in {HOT_PATH_MARKER} function (AST)"))
                    break

    if in_main and hot_depth > 0 and "atomics-discipline" in rules:
        # operator++/--/+= on a std::atomic go through the defaulted seq_cst
        # overloads — invisible to the lexical member-call scan.
        if kind in ("UnaryOperator", "CompoundAssignOperator", "CXXOperatorCallExpr"):
            qual = json.dumps(node.get("type", {})) + json.dumps(
                [c.get("type", {}) for c in node.get("inner", []) or [] if isinstance(c, dict)]
            )
            if "atomic<" in qual:
                out.append(Finding(
                    tu_path, line, "atomics-discipline",
                    "operator form on std::atomic inside a SLJ_HOT_PATH body uses "
                    "the defaulted (seq_cst) order; call the member op with an "
                    "explicit memory order (AST)"))

    if in_main and "determinism" in rules:
        if kind == "CXXForRangeStmt":
            # The synthesized __range variable carries the deduced type, which
            # exposes unordered containers hidden behind `auto` or aliases.
            blob = json.dumps(node.get("inner", [])[:3])
            if "unordered_" in blob:
                out.append(Finding(
                    tu_path, line, "determinism",
                    "range-for over an unordered container (deduced type); copy "
                    "into a vector and sort before iterating (AST)"))
        elif kind == "CallExpr" and not rel.startswith("src/synth/"):
            blob = json.dumps(node.get("inner", [])[:1])
            for fn in AST_NONDET_CALLEES:
                if f'"{fn}"' in blob:
                    out.append(Finding(
                        tu_path, line, "determinism",
                        f"nondeterminism source `{fn}` outside src/synth/ (AST)"))
                    break
        elif kind == "CXXConstructExpr" and not rel.startswith("src/synth/"):
            if "random_device" in json.dumps(node.get("type", {})):
                out.append(Finding(
                    tu_path, line, "determinism",
                    "nondeterminism source `random_device` outside src/synth/ (AST)"))

    for child in node.get("inner", []) or []:
        _ast_scan(child, walker, hot_depth, tu_path, rel, rules, out)


def load_compdb(compdb_path: Path) -> dict[str, dict]:
    """Map absolute source path -> compile-db entry."""
    try:
        entries = json.loads(compdb_path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    by_path: dict[str, dict] = {}
    for entry in entries:
        f = entry.get("file", "")
        p = f if os.path.isabs(f) else os.path.join(entry.get("directory", "."), f)
        by_path[os.path.normpath(p)] = entry
    return by_path


def ast_dump(clang: str, path: Path, root: Path, entry: dict | None) -> dict | None:
    """JSON AST for one TU, or None when the dump fails."""
    if entry is not None:
        args = entry.get("arguments") or shlex.split(entry.get("command", ""))
        keep = [a for a in args[1:] if a.startswith(("-I", "-D", "-std", "-isystem"))]
        cwd = entry.get("directory", str(root))
    else:
        keep = ["-std=c++20", f"-I{root / 'src'}"]
        cwd = str(root)
    cmd = [clang, "-fsyntax-only", "-Xclang", "-ast-dump=json", *keep, str(path)]
    try:
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0 and not proc.stdout:
            return None
        return json.loads(proc.stdout)
    except (subprocess.SubprocessError, json.JSONDecodeError, OSError):
        return None


def check_ast(clang: str, path: Path, rel: str, root: Path, rules: set[str],
              entry: dict | None) -> list[Finding] | None:
    """Structural findings for one TU, or None if the AST dump failed."""
    ast = ast_dump(clang, path, root, entry)
    if ast is None:
        return None
    out: list[Finding] = []
    walker = AstWalker(str(path))
    _ast_scan(ast, walker, 0, path, rel, rules, out)
    return out


# ---------------------------------------------------------------------------
# Suppression ratchet.
# ---------------------------------------------------------------------------


def count_suppressions(targets: list[Path]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for path in targets:
        try:
            text = path.read_text(errors="replace")
        except OSError:
            continue
        for m in SUPPRESS_RE.finditer(text):
            for rule in (r.strip() for r in m.group(1).split(",")):
                counts[rule] = counts.get(rule, 0) + 1
    return counts


def load_suppression_baseline(path: Path) -> dict[str, int]:
    baseline: dict[str, int] = {"total": 0}
    try:
        text = path.read_text()
    except OSError as e:
        print(f"slj_lint: cannot read suppression baseline {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdigit():
            print(f"slj_lint: malformed baseline line: `{line}`", file=sys.stderr)
            sys.exit(2)
        baseline[parts[0]] = int(parts[1])
    return baseline


def render_suppression_baseline(counts: dict[str, int]) -> str:
    lines = [
        "# slj_lint suppression baseline — the ratchet only goes down.",
        "# scripts/ci.sh --analyze fails when the number of `// slj-lint: allow(...)`",
        "# sites in src/ exceeds these counts; shrinking them is always welcome.",
        "# Regenerate (after review!) with:",
        "#   python3 scripts/lint/slj_lint.py --root . \\",
        "#     --write-suppression-baseline scripts/lint/suppressions_baseline.txt",
        f"total {sum(counts.values())}",
    ]
    for rule in sorted(counts):
        lines.append(f"{rule} {counts[rule]}")
    return "\n".join(lines) + "\n"


def check_suppression_ratchet(targets: list[Path], baseline_path: Path) -> list[str]:
    baseline = load_suppression_baseline(baseline_path)
    counts = count_suppressions(targets)
    errors: list[str] = []
    total = sum(counts.values())
    if total > baseline.get("total", 0):
        errors.append(
            f"suppression count grew: {total} `slj-lint: allow` site(s) vs "
            f"baseline {baseline.get('total', 0)} — remove the new suppression "
            f"or update {baseline_path} in the same commit (reviewed)")
    for rule, n in sorted(counts.items()):
        if n > baseline.get(rule, 0):
            errors.append(
                f"suppressions for rule `{rule}` grew: {n} vs baseline "
                f"{baseline.get(rule, 0)}")
    return errors


# ---------------------------------------------------------------------------


def lint_file(path: Path, root: Path, rules: set[str], layers: LayerMap | None) -> list[Finding]:
    """The lexical floor: every rule, token-level, runs on any host."""
    try:
        raw = path.read_text(errors="replace")
    except OSError as e:
        print(f"slj_lint: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    try:
        rel = str(path.resolve().relative_to(root.resolve())).replace(os.sep, "/")
    except ValueError:
        rel = str(path)
    stripped = strip_comments_and_strings(raw)
    raw_lines = raw.split("\n")
    allowed = suppressions(raw_lines)
    findings: list[Finding] = []
    if "hot-path-alloc" in rules and HOT_PATH_MARKER in stripped:
        findings += check_hot_path_lexical(path, raw, stripped)
    if "unchecked-read" in rules:
        findings += check_unchecked_read(path, rel, raw, stripped)
    if "naked-mutex" in rules:
        findings += check_naked_mutex(path, rel, raw, stripped)
    if "simd-dispatch" in rules:
        findings += check_simd_dispatch(path, rel, raw, stripped)
    if "layering" in rules:
        findings += check_layering(path, rel, raw, layers)
    if "atomics-discipline" in rules:
        findings += check_atomics(path, rel, raw, stripped, raw_lines)
    if "determinism" in rules:
        findings += check_determinism(path, rel, raw, stripped)
    return [
        f for f in findings
        if f.rule not in allowed.get(f.line, ()) and "all" not in allowed.get(f.line, ())
    ]


def filter_suppressed(findings: list[Finding], path: Path) -> list[Finding]:
    """Apply `slj-lint: allow` suppressions to AST findings too."""
    try:
        raw_lines = path.read_text(errors="replace").split("\n")
    except OSError:
        return findings
    allowed = suppressions(raw_lines)
    return [
        f for f in findings
        if f.rule not in allowed.get(f.line, ()) and "all" not in allowed.get(f.line, ())
    ]


def default_targets(root: Path) -> list[Path]:
    src = root / "src"
    if not src.is_dir():
        print(f"slj_lint: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    return sorted(p for p in src.rglob("*") if p.suffix in (".hpp", ".cpp", ".h", ".cc"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", type=Path, help="files to lint (default: src/ under --root)")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels above this script)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help=f"comma-separated rules to run (default: all of {', '.join(RULES)})")
    ap.add_argument("--engine", choices=("ast", "lexical"), default="ast",
                    help="ast (default): lexical floor + clang structural overlay "
                         "per TU, falling back loudly per file; lexical: floor only")
    ap.add_argument("--strict-engine", action="store_true",
                    help="exit 2 if any translation unit fell back from the AST "
                         "engine to lexical (what CI uses on clang hosts)")
    ap.add_argument("--compdb", type=Path, default=None,
                    help="compile_commands.json for the AST engine "
                         "(default: <root>/build/compile_commands.json)")
    ap.add_argument("--layers", type=Path, default=None,
                    help="module DAG for the layering rule "
                         "(default: <root>/scripts/lint/layers.toml)")
    ap.add_argument("--suppression-baseline", type=Path, default=None,
                    help="fail if `slj-lint: allow` counts in the targets exceed "
                         "this baseline file (the ratchet)")
    ap.add_argument("--write-suppression-baseline", type=Path, default=None,
                    help="write the current suppression counts to FILE and exit")
    ap.add_argument("-q", "--quiet", action="store_true", help="suppress the summary line")
    args = ap.parse_args()

    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        print(f"slj_lint: unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    targets = [p for p in args.files] or default_targets(args.root)

    if args.write_suppression_baseline is not None:
        counts = count_suppressions(targets)
        args.write_suppression_baseline.write_text(render_suppression_baseline(counts))
        print(f"slj_lint: wrote suppression baseline "
              f"({sum(counts.values())} site(s)) to {args.write_suppression_baseline}",
              file=sys.stderr)
        return 0

    layers: LayerMap | None = None
    if "layering" in rules:
        layers_path = args.layers or (args.root / "scripts" / "lint" / "layers.toml")
        if layers_path.is_file():
            layers = LayerMap.load(layers_path)
        else:
            print(f"slj_lint: layers file {layers_path} not found; "
                  f"skipping the layering rule", file=sys.stderr)

    report = EngineReport()
    clang = None
    compdb: dict[str, dict] = {}
    if args.engine == "ast":
        clang = shutil.which("clang++") or shutil.which("clang")
        compdb_path = args.compdb or (args.root / "build" / "compile_commands.json")
        if compdb_path.is_file():
            compdb = load_compdb(compdb_path)

    findings: list[Finding] = []
    for path in targets:
        try:
            rel = str(path.resolve().relative_to(args.root.resolve())).replace(os.sep, "/")
        except ValueError:
            rel = str(path)
        file_findings = lint_file(path, args.root, rules, layers)
        if args.engine == "lexical":
            report.note(rel, "lexical")
        elif path.suffix not in (".cpp", ".cc"):
            # Headers have no compile entry; their lexical pass is the full
            # check by construction, not a degradation.
            report.note(rel, "lexical (header)")
        else:
            try:
                text = path.read_text(errors="replace")
            except OSError:
                text = ""
            if not AST_SURFACE_RE.search(text):
                # No token the structural rules key on: the AST overlay cannot
                # add findings, so the (expensive) dump is skipped soundly.
                report.note(rel, "ast (no structural surface)")
            elif clang is None:
                report.note_fallback(rel, "clang++ not on PATH")
            else:
                entry = compdb.get(os.path.normpath(str(path.resolve())))
                ast_findings = check_ast(clang, path, rel, args.root, rules, entry)
                if ast_findings is None:
                    report.note_fallback(rel, "clang++ -ast-dump=json failed")
                    print(f"slj_lint: AST dump failed for {rel}; "
                          f"this file was checked lexically only", file=sys.stderr)
                else:
                    report.note(rel, "ast")
                    seen = {f.key() for f in file_findings}
                    extra = [f for f in filter_suppressed(ast_findings, path)
                             if f.key() not in seen]
                    file_findings += extra
        findings += file_findings

    ratchet_errors: list[str] = []
    if args.suppression_baseline is not None:
        ratchet_errors = check_suppression_ratchet(targets, args.suppression_baseline)

    findings.sort(key=lambda f: (str(f.path), f.line))
    for f in findings:
        print(f.render(args.root))
    for err in ratchet_errors:
        print(f"slj_lint: [suppression-ratchet] {err}")

    clang_less = args.engine == "ast" and clang is None and any(
        eng == "lexical (fallback)" for eng in report.per_file.values()
    )
    if clang_less:
        n = sum(1 for e in report.per_file.values() if e == "lexical (fallback)")
        print(f"slj_lint: AST engine unavailable (clang++ not on PATH); "
              f"{n} translation unit(s) fell back to lexical-only checks",
              file=sys.stderr)
    if not args.quiet:
        print(f"slj_lint: {len(findings)} finding(s) across {len(targets)} file(s) "
              f"[rules: {', '.join(sorted(rules))}; engine: {args.engine} "
              f"({report.summary()})]",
              file=sys.stderr)

    if args.strict_engine and report.fallbacks:
        for rel, reason in report.fallbacks:
            print(f"slj_lint: --strict-engine: {rel} fell back to lexical "
                  f"({reason})", file=sys.stderr)
        return 2
    return 1 if findings or ratchet_errors else 0


if __name__ == "__main__":
    sys.exit(main())
