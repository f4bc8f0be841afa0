#!/usr/bin/env python3
"""capman-lint: project-invariant static analyzer for the CAPMAN tree.

Generic tools (clang-tidy, -Werror) cannot see CAPMAN's *project*
invariants: bit-identical determinism across thread counts, ordered
artifact emission, validated configs before any engine run. This linter
enforces them on every build:

  L1 determinism       no std::rand/random_device/<random>/wall-clock use
                       in src/core, src/sim, src/math, src/policy — all
                       randomness flows through util::Rng, all time through
                       the engine clock. (Wall-clock *instrumentation* is
                       allowed with an explicit suppression.)
  L2 ordered-output    no iteration over unordered_map/unordered_set in a
                       function that writes SimResult / obs sinks /
                       CSV/JSONL emitters unless the body sorts or carries
                       a suppression (unordered iteration order would leak
                       into artifacts downstream tools diff).
  L3 config-validate   every struct named *Config declares validate(), and
                       every validate() is reachable from
                       SimConfig::validate() or an owning constructor.
  L4 float-compare     no ==/!= between floating-point expressions outside
                       tests/ without a suppression (exact-sentinel
                       comparisons are legal but must be declared).
  L5 header-hygiene    every public header under src/*/ is self-contained:
                       a generated one-line TU per header must compile.
  L6 unit-safety       headers under src/{core,device,thermal,battery} may
                       not declare raw arithmetic params/fields whose names
                       carry a unit suffix (*_mw, *_mj, *_mc, *_us, *_pct);
                       those surfaces must use the util::units strong types
                       (util::Milliwatts, util::Millijoules, ...).
  L7 thread-safety     classes under src/ that own a mutex must use the
                       annotated util::Mutex and carry CAPMAN_GUARDED_BY on
                       the state it protects; raw std::mutex /
                       std::lock_guard / std::scoped_lock / std::unique_lock
                       are banned outside util/thread_annotations.h (they
                       are invisible to clang -Wthread-safety).
  L8 raw-unit          every `.raw()` strong-type escape under src/ must be
                       declared: capman-lint: allow(raw-unit, <reason>) on
                       the same line or the line directly above.

Suppressions (per rule, narrowest-scope-wins):

    some_code();  // capman-lint: allow(determinism)
    // capman-lint: allow(float-compare)   <- suppresses the next line
    // capman-lint: allow(raw-unit, gauges export plain doubles)
    // capman-lint: allow-file(ordered-output)

The first token inside allow(...) must be a known rule slug or L-number
(more rules may follow, comma-separated); anything after the last rule
token is the free-text reason. An unknown first token is itself a finding
(bad-suppression): a typoed slug must not silently disable nothing.
L8/raw-unit REQUIRES a non-empty reason.

Rules are addressed by slug or by their L-number (L1..L8). Exit codes:
0 clean, 1 findings, 2 usage error, 77 skipped (needed tooling absent —
CTest's SKIP_RETURN_CODE).

Usage:
    scripts/capman_lint.py [paths...] [--rules L1,L4] [--json]
                           [--compiler g++] [--list-rules]
                           [--compile-commands build/compile_commands.json]

When a compile_commands.json is given (or auto-discovered at
<root>/build/compile_commands.json), its include directories are fed to
the header-hygiene compiles and the libclang parse so vendored include
paths resolve exactly as the real build sees them.

Backend: uses libclang for the float-compare rule when python bindings are
importable (precise binary-operator detection); otherwise — including this
repo's reference container — a comment/string-aware regex engine that the
self-test (scripts/test_capman_lint.py) pins down rule by rule.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_SKIP = 77  # matches the CTest SKIP_RETURN_CODE convention

RULES = {
    "L1": "determinism",
    "L2": "ordered-output",
    "L3": "config-validate",
    "L4": "float-compare",
    "L5": "header-hygiene",
    "L6": "unit-safety",
    "L7": "thread-safety",
    "L8": "raw-unit",
}
SLUGS = {slug: lnum for lnum, slug in RULES.items()}

# Directories (relative to the repo root) whose code must be deterministic.
DETERMINISM_DIRS = ("src/core", "src/sim", "src/math", "src/policy")

# Banned tokens for L1 with human-readable reasons.
DETERMINISM_BANNED = [
    # The bare-call alternatives exclude member/scope access (`rig.rand(`,
    # `engine.clock()`, `clk->time(...)`) via the [.>:] lookbehind: a
    # method named like the libc function is the project's own API, not a
    # wall-clock or libc-rand call.
    (re.compile(r"\bstd::rand\b|\bsrand\s*\(|(?<![\w:.>])rand\s*\("),
     "C library rand(); draw through util::Rng instead"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic; seed util::Rng explicitly"),
    (re.compile(r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine|"
                r"uniform_(int|real)_distribution|normal_distribution|"
                r"bernoulli_distribution|discrete_distribution)\b"),
     "<random> engines bypass util::Rng (and its split()/replay contract)"),
    (re.compile(r"#\s*include\s*<random>"),
     "<random> is banned here; all randomness flows through util::Rng"),
    (re.compile(r"\bstd::time\b|(?<![\w:.>])time\s*\(\s*(NULL|nullptr|0|&)"),
     "wall-clock time(2); simulation time comes from the engine clock"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
                r"(?<![\w:.>])clock\s*\(\s*\)"),
     "wall-clock syscall; simulation time comes from the engine clock"),
    (re.compile(r"\bstd::chrono::(system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "std::chrono clock read; allowed only as declared instrumentation "
     "(suppress with capman-lint: allow(determinism))"),
    (re.compile(r"\b(localtime|gmtime|strftime|ctime)\s*\("),
     "calendar-time call; deterministic code has no wall-clock access"),
]

# A function body counts as "output-writing" for L2 when it touches any of
# these: the run artifact struct, the obs sinks, or file/CSV/JSON emission.
OUTPUT_MARKERS = re.compile(
    r"\b(SimResult|DecisionSink|DecisionEvent|MetricsSnapshot|CsvWriter|"
    r"write_row|append_line|to_json|write_json|jsonl|ofstream|fprintf|"
    r"snapshot\s*\()")
SORT_MARKERS = re.compile(r"\b(std::)?(stable_)?sort\b|\bsorted_\w*\b")

FLOAT_LITERAL = re.compile(r"(\b\d+\.\d*(e[+-]?\d+)?\b|(?<!\w)\.\d+\b|"
                           r"\b\d+e[+-]?\d+\b)", re.IGNORECASE)
# Expression fragments that are floating-point by project convention: the
# util::units Quantity types expose double value(), and the Strong escape
# hatch raw() is double on the hot (Milliwatts/Ratio) surfaces.
FLOAT_CALLS = re.compile(r"\.value\(\)|\.raw\(\)|\bgauge_or\s*\(|"
                         r"\bstd::(fabs|abs|"
                         r"floor|ceil|round|fmod|sqrt|exp|log|pow)\s*\(")

ALLOW_RE = re.compile(r"capman-lint:\s*allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"capman-lint:\s*allow-file\(([^)]*)\)")


@dataclass
class Finding:
    rule: str          # slug, e.g. "determinism"
    path: str          # repo-relative path
    line: int          # 1-based
    message: str
    snippet: str = ""

    def to_dict(self):
        return {"rule": self.rule, "lnum": SLUGS.get(self.rule, ""),
                "path": self.path, "line": self.line,
                "message": self.message, "snippet": self.snippet}

    def render(self):
        lnum = SLUGS.get(self.rule, "?")
        loc = f"{self.path}:{self.line}"
        out = f"{loc}: [{lnum}/{self.rule}] {self.message}"
        if self.snippet:
            out += f"\n    | {self.snippet.strip()}"
        return out


# ---------------------------------------------------------------------------
# Lexing: blank out comments and strings while preserving offsets, and keep
# the comment text separately (suppressions live there).

def split_code_comments(text: str) -> tuple[str, str]:
    """Return (code, comments), same length as text, newlines preserved.

    In `code`, comment and string/char-literal contents are replaced by
    spaces; in `comments`, everything except comment text is blank.
    """
    n = len(text)
    code = list(text)
    comments = [c if c == "\n" else " " for c in text]
    i = 0
    state = None  # None | 'line' | 'block' | 'str' | 'chr' | 'raw'
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                code[i] = code[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                code[i] = code[i + 1] = " "
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                if i > 0 and text[i - 1] == "R" and (i < 2 or
                                                    not text[i - 2].isalnum()):
                    m = re.match(r'"([^(\s\\]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw"
                        i += 1
                        continue
                state = "str"
                i += 1
                continue
            if c == "'":
                # C++14 digit separators (20'000, 0xFF'FF) are not char
                # literals: an apostrophe between alphanumerics is skipped.
                if i > 0 and text[i - 1].isalnum() and nxt.isalnum():
                    i += 1
                    continue
                state = "chr"
                i += 1
                continue
            i += 1
            continue
        if state == "line":
            if c == "\\" and nxt == "\n":
                # Backslash-continued line comment: the comment swallows
                # the next physical line too (the continuation byte itself
                # stays comment text so suppressions keep their line).
                code[i] = " "
                comments[i] = c
                i += 2
                continue
            if c == "\n":
                state = None
            else:
                code[i] = " "
                comments[i] = c
            i += 1
            continue
        if state == "block":
            if c == "*" and nxt == "/":
                code[i] = code[i + 1] = " "
                state = None
                i += 2
                continue
            if c != "\n":
                code[i] = " "
                comments[i] = c
            i += 1
            continue
        if state == "raw":
            if text.startswith(raw_delim, i):
                for j in range(len(raw_delim)):
                    if text[i + j] != "\n":
                        code[i + j] = " "
                i += len(raw_delim)
                state = None
                continue
            if c != "\n":
                code[i] = " "
            i += 1
            continue
        # state in ('str', 'chr')
        if c == "\\":
            code[i] = " "
            if i + 1 < n and text[i + 1] != "\n":
                code[i + 1] = " "
            i += 2
            continue
        if (state == "str" and c == '"') or (state == "chr" and c == "'"):
            state = None
            i += 1
            continue
        if c != "\n":
            code[i] = " "
        i += 1
    return "".join(code), "".join(comments)


class SourceFile:
    """One parsed source file: blanked code, comments, suppressions."""

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.code, self.comments = split_code_comments(text)
        self.code_lines = self.code.splitlines()
        self.text_lines = text.splitlines()
        self.file_allows: set[str] = set()
        self.line_allows: dict[int, set[str]] = {}
        self.line_reasons: dict[int, dict[str, str]] = {}
        self.bad_suppressions: list[tuple[int, str]] = []
        self._scan_suppressions()

    def _scan_suppressions(self):
        for lineno, comment in enumerate(self.comments.splitlines(), 1):
            for m in ALLOW_FILE_RE.finditer(comment):
                rules, _reason, bad = _parse_allow(m.group(1))
                if bad is not None:
                    self.bad_suppressions.append((lineno, bad))
                self.file_allows.update(rules)
            for m in ALLOW_RE.finditer(comment):
                rules, reason, bad = _parse_allow(m.group(1))
                if bad is not None:
                    self.bad_suppressions.append((lineno, bad))
                covered = [lineno]
                # A comment alone on its line covers the next line of code.
                code_line = (self.code_lines[lineno - 1]
                             if lineno - 1 < len(self.code_lines) else "")
                if not code_line.strip():
                    covered.append(lineno + 1)
                for ln in covered:
                    self.line_allows.setdefault(ln, set()).update(rules)
                    for rule in rules:
                        self.line_reasons.setdefault(ln, {})[rule] = reason

    def allowed(self, rule: str, line: int) -> bool:
        return (rule in self.file_allows or
                rule in self.line_allows.get(line, set()))

    def allow_reason(self, rule: str, line: int) -> str:
        return self.line_reasons.get(line, {}).get(rule, "")

    def line_of_offset(self, offset: int) -> int:
        return self.text.count("\n", 0, offset) + 1

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.text_lines):
            return self.text_lines[line - 1]
        return ""


def _parse_rule_list(raw: str) -> set[str]:
    out = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        out.add(RULES.get(token.upper(), token))
    return out


def _parse_allow(raw: str) -> tuple[set[str], str, str | None]:
    """Parse the inside of allow(...): leading rule tokens, then a reason.

    Returns (rules, reason, bad_token). Tokens are read left to right;
    each that names a known rule (slug or L-number) selects it, and the
    first token that does not ends the rule list — it and everything after
    it form the free-text reason. A reason with no preceding valid rule
    token is a bad suppression (bad_token is that first token).
    """
    tokens = [t.strip() for t in raw.split(",")]
    rules: set[str] = set()
    reason = ""
    bad: str | None = None
    for i, token in enumerate(tokens):
        if not token:
            continue
        slug = RULES.get(token.upper()) or (token if token in SLUGS else None)
        if slug is None:
            if rules:
                reason = ", ".join(tokens[i:]).strip()
            else:
                bad = token
            break
        rules.add(slug)
    return rules, reason, bad


# ---------------------------------------------------------------------------
# A lightweight block parser: maps every {...} region to its kind (function,
# struct/class, namespace) and name, so rules can reason per function body
# and per struct body without a real C++ frontend.

@dataclass
class Block:
    kind: str          # 'function' | 'struct' | 'namespace' | 'other'
    name: str          # unqualified name ('' when unknown)
    qualifier: str     # 'Type' for 'Type::method' definitions, else ''
    owner: str         # innermost enclosing struct/class name, else ''
    start: int         # offset of the opening brace
    end: int           # offset one past the closing brace
    line: int          # 1-based line of the opening brace

    @property
    def is_ctor(self) -> bool:
        if self.kind != "function":
            return False
        return (self.qualifier and self.name == self.qualifier.split("::")[-1]
                ) or (self.owner != "" and self.name == self.owner)


_SIG_FUNC = re.compile(
    r"([A-Za-z_~][\w:<>,\s&*~]*?)\s*\(", re.DOTALL)
_SIG_STRUCT = re.compile(r"\b(?:struct|class)\s+([A-Za-z_]\w*)[^;{]*$")
_SIG_NS = re.compile(r"\bnamespace\s+([\w:]+)?\s*$")


def parse_blocks(sf: SourceFile) -> list[Block]:
    code = sf.code
    blocks: list[Block] = []
    stack: list[tuple[Block | None, int]] = []  # (block|init-brace, boundary)
    boundary = 0  # start of the current "signature" text
    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c in ";":
            boundary = i + 1
        elif c == "{":
            if _is_initializer_brace(code, i):
                # `= {...}`, `{...}` member init, braced call args: not a
                # block — keep accumulating the same signature across it.
                stack.append((None, boundary))
            else:
                sig = " ".join(code[boundary:i].split())
                block = _classify(sig, [b for b, _ in stack if b])
                block.start = i
                block.line = sf.line_of_offset(i)
                stack.append((block, boundary))
            boundary = i + 1
        elif c == "}":
            if stack:
                block, saved_boundary = stack.pop()
                if block is None:
                    boundary = saved_boundary  # initializer: resume signature
                else:
                    block.end = i + 1
                    blocks.append(block)
                    boundary = i + 1
            else:
                boundary = i + 1
        i += 1
    blocks.sort(key=lambda b: b.start)
    return blocks


def _is_initializer_brace(code: str, i: int) -> bool:
    j = i - 1
    while j >= 0 and code[j] in " \t\n":
        j -= 1
    if j < 0:
        return False
    if code[j] in "=,(<[":
        return True
    # `return {...};` / identifier{...} uniform init (but not `struct X {`).
    tail = code[max(0, j - 8):j + 1]
    if tail.endswith("return"):
        return True
    return False


def _classify(sig: str, stack: list[Block]) -> Block:
    owner = ""
    for b in reversed(stack):
        if b.kind == "struct":
            owner = b.name
            break
    m = _SIG_NS.search(sig)
    if m:
        return Block("namespace", m.group(1) or "", "", owner, 0, 0, 0)
    m = _SIG_STRUCT.search(sig)
    if m:
        return Block("struct", m.group(1), "", owner, 0, 0, 0)
    # Function-like: something(...) [const] [noexcept] [: init-list]. The
    # parameter list is the FIRST paren group (later groups belong to the
    # constructor initializer list).
    paren = sig.find("(")
    if paren != -1:
        head = sig[:paren].rstrip()
        m = re.search(r"([A-Za-z_~]\w*)\s*$", head)
        if m and m.group(1) not in ("if", "while", "for", "switch", "catch",
                                    "return", "sizeof", "alignof",
                                    "decltype", "noexcept"):
            name = m.group(1)
            qual = ""
            qm = re.search(r"([A-Za-z_]\w*(?:<[^<>]*>)?(?:::[A-Za-z_]\w*"
                           r"(?:<[^<>]*>)?)*)::~?" + re.escape(name) +
                           r"\s*$", head)
            if qm:
                qual = qm.group(1)
            return Block("function", name, qual, owner, 0, 0, 0)
    return Block("other", "", "", owner, 0, 0, 0)




# ---------------------------------------------------------------------------
# Rule L1: determinism

def check_determinism(sf: SourceFile) -> list[Finding]:
    findings = []
    if not sf.rel.startswith(DETERMINISM_DIRS):
        return findings
    for lineno, line in enumerate(sf.code_lines, 1):
        # Includes are blanked of strings but '#include <random>' survives.
        for pattern, reason in DETERMINISM_BANNED:
            m = pattern.search(line)
            if not m:
                continue
            if sf.allowed("determinism", lineno):
                continue
            findings.append(Finding(
                "determinism", sf.rel, lineno,
                f"nondeterministic call `{m.group(0).strip()}`: {reason}",
                sf.snippet(lineno)))
            break
    return findings


# ---------------------------------------------------------------------------
# Rule L2: ordered-output

RANGE_FOR = re.compile(r"\bfor\s*\(([^();]*?):\s*([^()]*?)\)")
UNORDERED_INLINE = re.compile(r"\bunordered_(map|set)\b")


def collect_unordered_decls(files: list[SourceFile]) -> set[str]:
    """Names of variables/members declared as unordered containers."""
    names = set()
    decl = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
    for sf in files:
        for m in decl.finditer(sf.code):
            close = _match_template(sf.code, m.end() - 1)
            if close == -1:
                continue
            rest = sf.code[close + 1:close + 120]
            nm = re.match(r"[&\s]*([A-Za-z_]\w*)", rest)
            if nm:
                names.add(nm.group(1))
    return names


def _match_template(s: str, open_angle: int) -> int:
    depth = 0
    for i in range(open_angle, min(len(s), open_angle + 2000)):
        if s[i] == "<":
            depth += 1
        elif s[i] == ">":
            depth -= 1
            if depth == 0:
                return i
    return -1


def check_ordered_output(sf: SourceFile, blocks: list[Block],
                         unordered_names: set[str]) -> list[Finding]:
    findings = []
    for block in blocks:
        if block.kind != "function":
            continue
        body = sf.code[block.start:block.end]
        if not OUTPUT_MARKERS.search(body):
            continue
        for m in RANGE_FOR.finditer(body):
            seq = m.group(2).strip()
            is_unordered = bool(UNORDERED_INLINE.search(seq))
            if not is_unordered:
                tail = re.search(r"([A-Za-z_]\w*)\s*(\(\s*\))?\s*$", seq)
                is_unordered = bool(tail) and tail.group(1) in unordered_names
            if not is_unordered:
                continue
            lineno = sf.line_of_offset(block.start + m.start())
            if sf.allowed("ordered-output", lineno):
                continue
            if SORT_MARKERS.search(body):
                continue  # the function establishes an order somewhere
            findings.append(Finding(
                "ordered-output", sf.rel, lineno,
                f"iteration over unordered container `{seq}` in an "
                f"output-writing function ({block.name or 'anonymous'}); "
                "sort first or declare capman-lint: allow(ordered-output)",
                sf.snippet(lineno)))
    return findings


# ---------------------------------------------------------------------------
# Rule L3: config-validate

VALIDATE_DECL = re.compile(r"\bvalidate\s*\(\s*\)\s*const")
VALIDATE_CALL = re.compile(r"([A-Za-z_][\w.\->()]*?)\s*(?:\.|->)\s*"
                           r"validate\s*\(\s*\)")


def check_config_validate(files: list[SourceFile],
                          blocks_by_file: dict[str, list[Block]]
                          ) -> list[Finding]:
    findings = []
    # Pass 1: every *Config struct in a header must declare validate().
    config_structs: dict[str, tuple[SourceFile, Block]] = {}
    for sf in files:
        if not sf.rel.endswith(".h"):
            continue
        for block in blocks_by_file[sf.rel]:
            if block.kind == "struct" and block.name.endswith("Config") \
                    and len(block.name) > len("Config"):
                config_structs[block.name] = (sf, block)
    resolver = _ConfigDeclResolver(files, config_structs)
    for name, (sf, block) in sorted(config_structs.items()):
        body = sf.code[block.start:block.end]
        if VALIDATE_DECL.search(body):
            continue
        if sf.allowed("config-validate", block.line):
            continue
        findings.append(Finding(
            "config-validate", sf.rel, block.line,
            f"struct {name} declares no `validate() const`; every *Config "
            "must be validatable before an engine run",
            sf.snippet(block.line)))

    # Pass 2: reachability. Roots are constructor bodies; closure follows
    # the validate() bodies of configs already proven reachable.
    ctor_calls: set[str] = set()
    validate_calls: dict[str, set[str]] = {}
    for sf in files:
        for block in blocks_by_file[sf.rel]:
            if block.kind != "function":
                continue
            body = sf.code[block.start:block.end]
            called = _resolve_validate_calls(body, sf.rel, resolver)
            if not called:
                continue
            if block.is_ctor:
                ctor_calls.update(called)
            if block.name == "validate":
                owner = block.qualifier.split("::")[-1] if block.qualifier \
                    else block.owner
                if owner in config_structs:
                    validate_calls.setdefault(owner, set()).update(called)
    reachable: set[str] = set()
    frontier = {t for t in ctor_calls if t in config_structs}
    while frontier:
        t = frontier.pop()
        if t in reachable:
            continue
        reachable.add(t)
        frontier.update(v for v in validate_calls.get(t, ())
                        if v in config_structs)
    for name, (sf, block) in sorted(config_structs.items()):
        body = sf.code[block.start:block.end]
        if not VALIDATE_DECL.search(body):
            continue  # already reported above
        if name in reachable:
            continue
        if sf.allowed("config-validate", block.line):
            continue
        findings.append(Finding(
            "config-validate", sf.rel, block.line,
            f"{name}::validate() is unreachable: no constructor or "
            "validated config ever calls it (wire it into "
            "SimConfig::validate() or the owning ctor)",
            sf.snippet(block.line)))
    return findings


class _ConfigDeclResolver:
    """Resolve a validate() receiver name to its *Config type(s).

    Member names repeat across classes (`config_` is declared with six
    different Config types), so declarations are scoped per file and a call
    site only sees decls from its own file plus its direct `#include "..."`
    headers. Names invisible through that scope fall back to the global
    union (permissive, never silently unresolved).
    """

    def __init__(self, files: list[SourceFile], config_structs):
        names = "|".join(re.escape(n) for n in config_structs) \
            or r"\w+Config"
        var_re = re.compile(r"\b(" + names + r")\b(?:\s*[&*])?\s+"
                            r"([A-Za-z_]\w*)\s*(?:[;={),]|$)", re.MULTILINE)
        func_re = re.compile(r"\b(" + names + r")\b\s+([A-Za-z_]\w*)\s*\(")
        self._vars: dict[str, dict[str, set[str]]] = {}
        self._funcs: dict[str, dict[str, set[str]]] = {}
        self._includes: dict[str, list[str]] = {}
        self._global_vars: dict[str, set[str]] = {}
        self._global_funcs: dict[str, set[str]] = {}
        rels = [sf.rel for sf in files]
        for sf in files:
            vmap: dict[str, set[str]] = {}
            fmap: dict[str, set[str]] = {}
            for m in var_re.finditer(sf.code):
                vmap.setdefault(m.group(2), set()).add(m.group(1))
                self._global_vars.setdefault(m.group(2),
                                             set()).add(m.group(1))
            for m in func_re.finditer(sf.code):
                fmap.setdefault(m.group(2), set()).add(m.group(1))
                self._global_funcs.setdefault(m.group(2),
                                              set()).add(m.group(1))
            self._vars[sf.rel] = vmap
            self._funcs[sf.rel] = fmap
            incs = []
            for inc in re.findall(r'#\s*include\s*"([^"]+)"', sf.text):
                incs += [rel for rel in rels if rel.endswith(inc)]
            self._includes[sf.rel] = incs

    def resolve(self, rel: str, name: str, is_func: bool) -> set[str]:
        maps = self._funcs if is_func else self._vars
        out: set[str] = set()
        for scope in [rel] + self._includes.get(rel, []):
            out |= maps.get(scope, {}).get(name, set())
        if not out:
            fallback = self._global_funcs if is_func else self._global_vars
            out = fallback.get(name, set())
        return out


def _resolve_validate_calls(body: str, rel: str,
                            resolver: _ConfigDeclResolver) -> set[str]:
    called = set()
    for m in VALIDATE_CALL.finditer(body):
        chain = re.split(r"\.|->", m.group(1))
        leaf = chain[-1].strip()
        if leaf.endswith("()"):
            called |= resolver.resolve(rel, leaf[:-2].strip(), True)
        else:
            called |= resolver.resolve(rel, leaf, False)
    return called


# ---------------------------------------------------------------------------
# Rule L4: float-compare

CMP_RE = re.compile(r"(?<![<>=!&|+\-*/%^])(==|!=)(?!=)")


TYPED_DECL = re.compile(
    r"\b(double|float|(?:std::)?size_t|(?:unsigned\s+|signed\s+)?"
    r"(?:int|long|short|char)|(?:std::)?u?int(?:8|16|32|64)_t|bool|auto)"
    r"(?:\s*[&*])?\s+([A-Za-z_]\w*)\b")


def collect_typed_decls(sf: SourceFile) -> dict[str, list[tuple[int, bool]]]:
    """Per identifier: (offset, is_float) of every declaration in the file.

    Shadowing is real (`double v` at file scope, `size_t v` in a loop), so
    the *nearest preceding* declaration types an identifier, not the union.
    """
    decls: dict[str, list[tuple[int, bool]]] = {}
    for m in TYPED_DECL.finditer(sf.code):
        is_float = m.group(1) in ("double", "float")
        decls.setdefault(m.group(2), []).append((m.start(), is_float))
    return decls


def check_float_compare(sf: SourceFile) -> list[Finding]:
    if "/tests/" in f"/{sf.rel}" or sf.rel.startswith("tests/"):
        return []
    findings = []
    decls = collect_typed_decls(sf)
    line_starts = [0]
    for line in sf.code_lines:
        line_starts.append(line_starts[-1] + len(line) + 1)

    def leaf_is_float(expr: str, line_end: int) -> bool:
        m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
        if not m:
            return False
        before = [is_f for off, is_f in decls.get(m.group(1), ())
                  if off < line_end]
        return bool(before) and before[-1]

    def is_floaty(expr: str, line_end: int) -> bool:
        if FLOAT_LITERAL.search(expr) or FLOAT_CALLS.search(expr):
            return True
        # Only the *leaf* of a member chain types the operand: `a.size()`
        # ends in a call, `stats.total_ms` ends in an identifier.
        return leaf_is_float(expr, line_end)

    for lineno, line in enumerate(sf.code_lines, 1):
        if "operator" in line or line.lstrip().startswith("#"):
            continue
        for m in CMP_RE.finditer(line):
            left = _operand_left(line[:m.start()])
            right = _operand_right(line[m.end():])
            if "nullptr" in (left, right):
                continue
            line_end = line_starts[lineno]
            if not (is_floaty(left, line_end) or is_floaty(right, line_end)):
                continue
            if sf.allowed("float-compare", lineno):
                continue
            findings.append(Finding(
                "float-compare", sf.rel, lineno,
                f"floating-point `{m.group(1)}` between `{left.strip()}` "
                f"and `{right.strip()}`; compare against a tolerance or "
                "declare capman-lint: allow(float-compare)",
                sf.snippet(lineno)))
            break  # one finding per line is enough
    return findings


def _operand_left(s: str) -> str:
    """The expression ending at the comparison operator (paren-balanced)."""
    depth = 0
    out = []
    for i in range(len(s) - 1, -1, -1):
        c = s[i]
        if c in ")]":
            depth += 1
        elif c in "([":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if c in ";,?{}!|&=":
                break
            if c == ":" and not (i > 0 and s[i - 1] == ":") and \
                    not (i + 1 < len(s) and s[i + 1] == ":"):
                break
        out.append(c)
    return "".join(reversed(out)).strip()


def _operand_right(s: str) -> str:
    """The expression starting after the comparison operator."""
    depth = 0
    out = []
    for i, c in enumerate(s):
        if c in "([":
            depth += 1
        elif c in ")]":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if c in ";,?{}!|&=":
                break
            if c == ":" and not (i > 0 and s[i - 1] == ":") and \
                    not (i + 1 < len(s) and s[i + 1] == ":"):
                break
        out.append(c)
    return "".join(out).strip()


def libclang_float_compare(sf: SourceFile, include_dir: Path,
                           extra_includes: list[str] | None = None):
    """Precise L4 via libclang when the bindings are importable.

    Returns a findings list, or None when libclang is unusable (the caller
    falls back to the regex engine).
    """
    if os.environ.get("CAPMAN_LINT_NO_LIBCLANG"):
        return None
    try:
        from clang import cindex  # type: ignore
        index = cindex.Index.create()
        args = ["-std=c++20", f"-I{include_dir}"]
        args += [f"-I{inc}" for inc in (extra_includes or [])]
        tu = index.parse(str(sf.path), args=args)
        findings = []
        for node in tu.cursor.walk_preorder():
            if node.kind != cindex.CursorKind.BINARY_OPERATOR:
                continue
            if node.location.file is None or \
                    Path(node.location.file.name) != sf.path:
                continue
            tokens = [t.spelling for t in node.get_tokens()]
            if "==" not in tokens and "!=" not in tokens:
                continue
            kids = list(node.get_children())
            if len(kids) == 2 and any(
                    k.type.get_canonical().spelling in
                    ("float", "double", "long double") for k in kids):
                lineno = node.location.line
                if not sf.allowed("float-compare", lineno):
                    findings.append(Finding(
                        "float-compare", sf.rel, lineno,
                        "floating-point equality comparison (libclang); "
                        "compare against a tolerance or declare "
                        "capman-lint: allow(float-compare)",
                        sf.snippet(lineno)))
        return findings
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Rule L5: header-hygiene

def find_compiler(explicit: str | None) -> str | None:
    candidates = [explicit] if explicit else []
    candidates += [os.environ.get("CXX"), "c++", "g++", "clang++"]
    for cand in candidates:
        if not cand:
            continue
        try:
            subprocess.run([cand, "--version"], capture_output=True,
                           check=True)
            return cand
        except (OSError, subprocess.CalledProcessError):
            continue
    return None


def check_header_hygiene(root: Path, headers: list[SourceFile],
                         compiler: str,
                         extra_includes: list[str] | None = None
                         ) -> list[Finding]:
    findings = []
    include_flags = [f"-I{root / 'src'}"]
    include_flags += [f"-I{inc}" for inc in (extra_includes or [])]

    def compile_one(sf: SourceFile):
        if sf.allowed("header-hygiene", 1):
            return None
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cpp", prefix="capman_hdr_",
                delete=False) as tu:
            rel_to_src = Path(sf.rel).relative_to("src").as_posix()
            tu.write(f'#include "{rel_to_src}"\n')
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [compiler, "-std=c++20", *include_flags,
                 "-fsyntax-only", "-Wall", "-Wextra", tu_path],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first = next((ln for ln in proc.stderr.splitlines()
                              if "error:" in ln), proc.stderr.strip()[:200])
                return Finding(
                    "header-hygiene", sf.rel, 1,
                    "header is not self-contained (a TU with only this "
                    f"#include fails to compile): {first.strip()}")
            return None
        finally:
            os.unlink(tu_path)

    workers = min(len(headers), os.cpu_count() or 2) or 1
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        for result in pool.map(compile_one, headers):
            if result:
                findings.append(result)
    return findings


# ---------------------------------------------------------------------------
# Rule L6: unit-safety

# Public surfaces that must trade in util::units strong types.
UNIT_SAFETY_DIRS = ("src/core", "src/device", "src/thermal", "src/battery")

# A raw arithmetic declaration whose identifier ends in a unit suffix. The
# suffix must terminate the name (gamma_mw_per_util carries mW *per* a
# denominator — a genuine double slope, not a power), and the `(?!\s*\()`
# lookahead skips function declarations (derive_budget_mw(...) names its
# return convention, the return type itself is what L6 polices).
UNIT_SUFFIXES = ("mw", "mj", "mc", "us", "pct")
UNIT_DECL = re.compile(
    r"\b(double|float|(?:unsigned\s+|signed\s+)?(?:int|long(?:\s+long)?|"
    r"short)|(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t)"
    r"(?:\s*[&*])?\s+([A-Za-z_]\w*_(?:" + "|".join(UNIT_SUFFIXES) +
    r"))\b(?!\s*\()")

UNIT_TYPE_HINTS = {
    "mw": "util::Milliwatts",
    "mj": "util::Millijoules",
    "mc": "util::MilliCelsius",
    "us": "util::MicroSeconds",
    "pct": "util::Ratio",
}


def check_unit_safety(sf: SourceFile) -> list[Finding]:
    if not sf.rel.endswith((".h", ".hpp")):
        return []
    if not sf.rel.startswith(UNIT_SAFETY_DIRS):
        return []
    findings = []
    for m in UNIT_DECL.finditer(sf.code):
        lineno = sf.line_of_offset(m.start())
        if sf.allowed("unit-safety", lineno):
            continue
        name = m.group(2)
        suffix = name.rsplit("_", 1)[-1]
        hint = UNIT_TYPE_HINTS.get(suffix, "a util::units strong type")
        findings.append(Finding(
            "unit-safety", sf.rel, lineno,
            f"`{m.group(1)} {name}` declares a unit-suffixed surface with a "
            f"raw arithmetic type; use {hint} so mixed-unit arithmetic "
            "fails to compile",
            sf.snippet(lineno)))
    return findings


# ---------------------------------------------------------------------------
# Rule L7: thread-safety

# The annotated wrapper lives here; it is the one file allowed to own a
# raw std::mutex (it *is* the capability).
THREAD_ANNOTATIONS_HEADER = "src/util/thread_annotations.h"

RAW_LOCK_USE = re.compile(
    r"\bstd::(?:recursive_)?mutex\b|"
    r"\bstd::(?:scoped_lock|lock_guard|unique_lock)\b")
MUTEX_MEMBER = re.compile(
    r"\b(?:(?:util::)?Mutex|std::(?:recursive_)?mutex)\s+"
    r"([A-Za-z_]\w*)\s*;")
GUARD_MACRO = re.compile(r"\bCAPMAN_(?:PT_)?GUARDED_BY\s*\(|"
                         r"\bCAPMAN_REQUIRES\s*\(")


def check_thread_safety(sf: SourceFile, blocks: list[Block]) -> list[Finding]:
    if not sf.rel.startswith("src/") or sf.rel == THREAD_ANNOTATIONS_HEADER:
        return []
    findings = []
    # (a) Raw standard mutexes / lock RAII are invisible to clang's
    # -Wthread-safety pass; the util wrappers are drop-in replacements.
    for lineno, line in enumerate(sf.code_lines, 1):
        m = RAW_LOCK_USE.search(line)
        if not m:
            continue
        if sf.allowed("thread-safety", lineno):
            continue
        findings.append(Finding(
            "thread-safety", sf.rel, lineno,
            f"`{m.group(0)}` is unannotated and invisible to clang "
            "-Wthread-safety; use util::Mutex / util::MutexLock "
            "(src/util/thread_annotations.h)",
            sf.snippet(lineno)))
    # (b) A class that owns a mutex must say what the mutex protects:
    # at least one member carries CAPMAN_GUARDED_BY (or the class is
    # explicitly suppressed at the mutex member).
    for block in blocks:
        if block.kind != "struct":
            continue
        body = sf.code[block.start:block.end]
        for m in MUTEX_MEMBER.finditer(body):
            lineno = sf.line_of_offset(block.start + m.start())
            if sf.allowed("thread-safety", lineno):
                continue
            if GUARD_MACRO.search(body):
                continue
            findings.append(Finding(
                "thread-safety", sf.rel, lineno,
                f"class {block.name or '(anonymous)'} owns mutex "
                f"`{m.group(1)}` but no member carries CAPMAN_GUARDED_BY; "
                "annotate the guarded state so -Wthread-safety can check "
                "every access",
                sf.snippet(lineno)))
    return findings


# ---------------------------------------------------------------------------
# Rule L8: raw-unit

RAW_ESCAPE = re.compile(r"\.\s*raw\s*\(\s*\)")


def check_raw_unit(sf: SourceFile) -> list[Finding]:
    if not sf.rel.startswith("src/"):
        return []
    findings = []
    for lineno, line in enumerate(sf.code_lines, 1):
        if not RAW_ESCAPE.search(line):
            continue
        if sf.allowed("raw-unit", lineno):
            if sf.allow_reason("raw-unit", lineno) or \
                    "raw-unit" in sf.file_allows:
                continue
            findings.append(Finding(
                "raw-unit", sf.rel, lineno,
                ".raw() suppression has no reason; write "
                "capman-lint: allow(raw-unit, <why the raw value is safe>)",
                sf.snippet(lineno)))
            continue
        findings.append(Finding(
            "raw-unit", sf.rel, lineno,
            "undeclared strong-type escape `.raw()`; declare "
            "capman-lint: allow(raw-unit, <reason>) on this line or the "
            "line above",
            sf.snippet(lineno)))
    return findings


def check_suppression_syntax(sf: SourceFile) -> list[Finding]:
    """Typoed allow() slugs fail loudly under every rule selection."""
    findings = []
    for lineno, token in sf.bad_suppressions:
        findings.append(Finding(
            "bad-suppression", sf.rel, lineno,
            f"unknown rule `{token}` in capman-lint suppression; known "
            f"rules: {', '.join(sorted(SLUGS))} (a reason must follow a "
            "valid rule token, not replace it)",
            sf.snippet(lineno)))
    return findings


# ---------------------------------------------------------------------------
# compile_commands.json consumption

def load_compile_includes(path: Path) -> list[str]:
    """Extract the -I/-isystem include directories the real build uses."""
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    includes: list[str] = []
    seen = set()
    for entry in entries:
        command = entry.get("command")
        if command is None:
            command = " ".join(entry.get("arguments", []))
        directory = entry.get("directory", ".")
        tokens = command.split()
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            inc = None
            if tok in ("-I", "-isystem") and i + 1 < len(tokens):
                inc = tokens[i + 1]
                i += 1
            elif tok.startswith("-I"):
                inc = tok[2:]
            elif tok.startswith("-isystem"):
                inc = tok[len("-isystem"):]
            if inc:
                resolved = str((Path(directory) / inc).resolve())
                if resolved not in seen:
                    seen.add(resolved)
                    includes.append(resolved)
            i += 1
    return includes


# ---------------------------------------------------------------------------
# Driver

def load_files(root: Path, paths: list[Path]) -> list[SourceFile]:
    files = []
    seen = set()
    for base in paths:
        candidates = ([base] if base.is_file() else
                      sorted(base.rglob("*.h")) + sorted(base.rglob("*.cpp")))
        for path in candidates:
            if path.suffix not in (".h", ".cpp", ".cc", ".hpp"):
                continue
            rel = path.resolve().relative_to(root.resolve()).as_posix()
            if rel in seen or "/build" in f"/{rel}":
                continue
            seen.add(rel)
            files.append(SourceFile(path, rel,
                                    path.read_text(encoding="utf-8")))
    return files


def run_lint(root: Path, paths: list[Path], rules: set[str],
             compiler: str | None = None,
             extra_includes: list[str] | None = None
             ) -> tuple[list[Finding], list[str]]:
    """Run the selected rules; returns (findings, skipped-rule slugs)."""
    files = load_files(root, paths)
    findings: list[Finding] = []
    skipped: list[str] = []
    blocks_by_file = {sf.rel: parse_blocks(sf) for sf in files}

    # Bad suppressions are reported under every rule selection: a typoed
    # slug silently disables nothing, which is exactly the failure mode a
    # suppression grammar must make loud.
    for sf in files:
        findings += check_suppression_syntax(sf)

    if "determinism" in rules:
        for sf in files:
            findings += check_determinism(sf)
    if "ordered-output" in rules:
        unordered = collect_unordered_decls(files)
        for sf in files:
            findings += check_ordered_output(sf, blocks_by_file[sf.rel],
                                             unordered)
    if "config-validate" in rules:
        findings += check_config_validate(files, blocks_by_file)
    if "float-compare" in rules:
        for sf in files:
            clang_findings = libclang_float_compare(sf, root / "src",
                                                    extra_includes)
            findings += (clang_findings if clang_findings is not None
                         else check_float_compare(sf))
    if "header-hygiene" in rules:
        headers = [sf for sf in files if sf.rel.endswith(".h") and
                   sf.rel.startswith("src/")]
        cxx = find_compiler(compiler)
        if cxx is None:
            skipped.append("header-hygiene")
        elif headers:
            findings += check_header_hygiene(root, headers, cxx,
                                             extra_includes)
    if "unit-safety" in rules:
        for sf in files:
            findings += check_unit_safety(sf)
    if "thread-safety" in rules:
        for sf in files:
            findings += check_thread_safety(sf, blocks_by_file[sf.rel])
    if "raw-unit" in rules:
        for sf in files:
            findings += check_raw_unit(sf)

    # Nested blocks can surface the same site twice; keep one per location.
    unique = {}
    for f in findings:
        unique.setdefault((f.rule, f.path, f.line), f)
    findings = sorted(unique.values(),
                      key=lambda f: (f.path, f.line, f.rule))
    return findings, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capman-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories (default: <root>/src)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (default: the linter's repo)")
    parser.add_argument("--rules", default="all",
                        help="comma list of rules (L1..L8 or slugs)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    parser.add_argument("--compiler", default=None,
                        help="C++ compiler for header-hygiene (L5)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json whose include dirs feed "
                        "the L5 compiles and the libclang parse (default: "
                        "<root>/build/compile_commands.json when present)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for lnum, slug in RULES.items():
            print(f"{lnum}  {slug}")
        return EXIT_CLEAN

    if args.rules == "all":
        rules = set(RULES.values())
    else:
        rules = _parse_rule_list(args.rules)
        unknown = rules - set(RULES.values())
        if unknown:
            print(f"capman-lint: unknown rule(s): {sorted(unknown)}",
                  file=sys.stderr)
            return EXIT_USAGE

    root = args.root.resolve()
    paths = [Path(p) for p in args.paths] or [root / "src"]
    for p in paths:
        if not p.exists():
            print(f"capman-lint: no such path: {p}", file=sys.stderr)
            return EXIT_USAGE

    compile_db = args.compile_commands
    if compile_db is None:
        default_db = root / "build" / "compile_commands.json"
        if default_db.is_file():
            compile_db = default_db
    elif not compile_db.is_file():
        print(f"capman-lint: no such compile db: {compile_db}",
              file=sys.stderr)
        return EXIT_USAGE
    extra_includes = load_compile_includes(compile_db) if compile_db else []

    findings, skipped = run_lint(root, paths, rules, args.compiler,
                                 extra_includes)

    if args.json:
        print(json.dumps({
            "findings": [f.to_dict() for f in findings],
            "counts": {slug: sum(1 for f in findings if f.rule == slug)
                       for slug in sorted({f.rule for f in findings})},
            "skipped_rules": skipped,
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        for slug in skipped:
            print(f"capman-lint: rule {SLUGS[slug]}/{slug} skipped "
                  "(no C++ compiler found)", file=sys.stderr)
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"capman-lint: {status}", file=sys.stderr)

    if findings:
        return EXIT_FINDINGS
    if skipped and rules == {"header-hygiene"}:
        return EXIT_SKIP
    return EXIT_CLEAN


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe; exit quietly with
        # the findings status unknowable — treat as usage-level failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_USAGE)
