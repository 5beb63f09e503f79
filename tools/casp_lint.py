#!/usr/bin/env python3
"""casp_lint — static enforcement of repo-wide C++ invariants.

The compiler cannot see these rules and clang-tidy is not guaranteed to be
installed in the reference environment, so this gate runs as a tier-1 CTest
test (see tests/CMakeLists.txt). Rules:

  new-delete      No `new` / `delete` expressions anywhere. The codebase owns
                  memory exclusively through containers and RAII; placement
                  new (`new (addr) T`) is permitted for arena-style code.
  threading       No std::thread / raw mutex / condition_variable outside
                  src/vmpi/. All parallelism must flow through the virtual
                  runtime so the CollectiveChecker and deadlock watchdog see
                  every interaction. (Applies to src/; tests may coordinate
                  with rank threads directly.)
  cast-pairing    Every `reinterpret_cast` must be paired with a
                  `static_assert(std::is_trivially_copyable_v<...>)` in the
                  same scope (heuristic: within the preceding 40 lines) —
                  byte-punning a non-trivially-copyable type through the
                  mailbox is undefined behavior the sanitizers can miss.
  payload-ownership
                  In any file that handles shared `Payload` / `CscView` wire
                  buffers, no `const_cast`. Received arrays are borrowed from
                  a refcounted buffer that other ranks (and possibly the
                  sender) still read, so casting away const is a cross-rank
                  data race. Copy out first (CscView::materialize(),
                  Payload::release_or_copy()). reinterpret_cast on those
                  borrowed arrays additionally falls under cast-pairing: it
                  must carry the trivially-copyable static_assert.
  pragma-once     Every header's first non-comment line is `#pragma once`.
  include-order   Within a contiguous `#include` block, system includes
                  (<...>) precede project includes ("..."), and each group
                  is lexicographically sorted.
  empty-catch     No empty `catch` body for MemoryError or
                  TransientCommError. Both exceptions carry recovery
                  obligations — re-batching / retry / classification — so
                  silently swallowing one hides a budget overrun or a
                  dropped message. Handle it (retry, re-batch, rethrow,
                  record) or let it propagate to vmpi::run's classifier.
  comm-compat     The byte-vector Comm wrappers (send_bytes, recv_bytes,
                  bcast_bytes, ibcast_bytes, bcast_vec, allgather_bytes,
                  alltoall_bytes) were removed from Comm; this rule keeps
                  them from coming back anywhere — tests included. All
                  code uses the payload-first surface (send_payload /
                  Payload::copy_of, recv_payload, bcast_payload,
                  allgather_vec, ...); tests that want a typed broadcast
                  use testing::bcast_typed from tests/test_util.hpp.
  jobspec-single-source
                  SummaOptions is a thin view derived from svc::JobSpec
                  (JobSpec::summa_options()). In src/ and tools/, outside
                  src/svc/ itself, constructing a fresh SummaOptions
                  (`SummaOptions o;` / `SummaOptions{...}`) is forbidden —
                  build a JobSpec and derive the view, so every knob stays
                  serializable, quota-checkable and covered by the one job
                  API. Copying an existing value (`SummaOptions b = a;`)
                  stays allowed: the batching loop and MCL iterations
                  specialize a caller-provided view per step. tests/,
                  bench/ and examples/ are exempt (they exercise the
                  library layer directly).
  ckpt-atomic-write
                  In src/ckpt/, every file-writing open (std::ofstream,
                  std::fstream, fopen) must write to the kTmpSuffix temp
                  path — the atomic-write protocol is tmp + flush +
                  rename, so a reader can never observe a torn final
                  checkpoint file. Opening a final path directly defeats
                  the crash-safety the subsystem exists to provide. The
                  open expression must mention kTmpSuffix on the same
                  line (route writes through atomic_write_file).
  sparse-subview-pack
                  In the sparse-exchange packer (src/**/sparse_comm.*),
                  no `Payload::copy_of` or `.materialize(` — every reply
                  the sender builds must carry block bytes as
                  `Payload::subview` handles of the already-packed block
                  (descriptors may be built fresh with `Payload::wrap`).
                  A deep copy here silently voids the zero-copy send
                  guarantee that bench_sparse_exchange gates on.
  rank-divergent-collective
                  In src/, no collective call (barrier, bcast*/ibcast*,
                  allreduce*, gather*/allgather*, alltoall*,
                  reduce_to_root, split, bcast_wait) lexically inside an
                  `if` whose condition mentions a rank — a collective
                  only some ranks enter (a root-only gather_payload
                  included) is the canonical SPMD deadlock (every rank
                  must participate). Intentional sub-communicator use is
                  allowlisted with `// lint: collective-ok` on the same
                  or preceding line. The `else` branch of a rank guard
                  counts too: it is equally rank-divergent.
  failure-kind-classified
                  In src/, every FailureReport kind string assigned
                  (`kind = "<name>"`) must have an entry in the
                  supervisor's recoverable/non-recoverable classification
                  table (kKindTable in src/vmpi/runtime.cpp). The table is
                  the supervisor's single source of truth: an unclassified
                  kind silently falls through recoverable_failure() as
                  non-recoverable, so a fault class someone meant to be
                  retried would quietly stop being retried. Comparisons
                  (`kind == "..."`) are reads, not introductions, and do
                  not count.
  health-transition-classified
                  In src/, every RankHealth state write
                  (`... = RankHealth::k<State>`) must happen inside
                  RankPool::transition — the single write site that
                  validates the membership state machine's legal edges
                  (alive->suspect/dead, suspect->alive/dead,
                  dead->probation, probation->alive/dead/probation/
                  quarantined; quarantine terminal). A bare assignment
                  anywhere else can fabricate an illegal edge — e.g.
                  resurrect a quarantined flapper straight to alive,
                  skipping the probation handshake. Comparisons
                  (`== / !=`) are reads and do not count, and the
                  whole-vector construction reset
                  `health_.assign(n, RankHealth::kAlive)` (before any
                  edge exists) stays allowed: it carries no `=` into the
                  enum token.
  summa-single-stage-loop
                  In src/summa/, only the stage engine (stage_engine.*)
                  and the need-list exchange (sparse_comm.*) may post or
                  wait a stage exchange: no `ibcast_payload(`,
                  `bcast_wait(` or construction of a `SparseAExchange`
                  elsewhere. The SUMMA stage loop exists once
                  (run_summa_stages); summa2d and symbolic3d supply only
                  the per-stage consumer and the phase labels. A second
                  hand-written loop can drift from the first in message
                  order, pipelining or phase attribution.
  summa-final-sort-in-merge
                  In src/summa/, no `sort_columns(` call (nor any other
                  code use of the name, so a call split over lines or
                  taken through a member pointer counts). The paper sorts
                  the output once, after Merge-Fiber, and that sort is
                  Merge-Fiber's sorted emission: merge_matrices with
                  sort_output emits each column in row order in the same
                  parallel column loop as the merge (a bitmap scan on the
                  dense path), and a lone l = 1 stage partial is sorted in
                  place by sort_columns_in_place. A separate
                  sort_columns() pass is a second, serial sweep over all
                  of local C.

Every rule above scoped to src/ also covers tools/sched_corpus.*, the
casp-verify SPMD corpus kept out of the library (SRC_RULE_PATHS).

Waivers (use sparingly, justify in a comment on the same line):
  // casp-lint: allow(<rule>)        — waives <rule> on this or next line
  // casp-lint: allow-file(<rule>)   — waives <rule> for the whole file
                                       (must appear in the first 40 lines)

Exit status is nonzero if any violation is found.
"""

import argparse
import re
import sys
from pathlib import Path

CXX_DIRS = ("src", "tools", "tests", "bench", "examples")
CXX_EXTS = (".hpp", ".cpp")

ALLOW_LINE_RE = re.compile(r"casp-lint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE_RE = re.compile(r"casp-lint:\s*allow-file\(([a-z-]+)\)")

THREADING_TOKENS = re.compile(
    r"std::(thread|jthread|mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable|condition_variable_any|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b"
)

# `new` expressions: allow placement new `new (addr) T`, flag the rest.
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
# `delete` expressions: `delete p` / `delete[] p`. Deleted functions
# (`= delete`) and `operator delete` are filtered by context.
DELETE_RE = re.compile(r"\bdelete\b")
DELETE_OK_BEFORE = re.compile(r"(=\s*|operator\s*)$")

REINTERPRET_RE = re.compile(r"\breinterpret_cast\b")
TRIVIAL_RE = re.compile(r"is_trivially_copyable")
CAST_SCOPE_LINES = 40

CONST_CAST_RE = re.compile(r"\bconst_cast\b")
PAYLOAD_TYPE_RE = re.compile(r"\b(Payload|CscView)\b")

# Deep-copy constructions banned in the sparse-exchange packer: the only
# sanctioned ways to put block bytes on the wire there are subview handles
# of the packed block (descriptors may be wrapped fresh).
SPARSE_DEEP_COPY_RE = re.compile(r"\bPayload::copy_of\s*\(|\.\s*materialize\s*\(")

# Stage-exchange primitives reserved to the SUMMA stage engine: the dense
# broadcast post/wait and constructing the need-list A exchange (as a
# declaration `SparseAExchange ex(...)`, a temporary, or via make_*<>).
STAGE_LOOP_RE = re.compile(
    r"\b(ibcast_payload|bcast_wait)\s*\(|"
    r"\bSparseAExchange\s*[({]|\bSparseAExchange\s+\w+\s*[({;=]|"
    r"<\s*SparseAExchange\s*>\s*\("
)
# Where the src/ rules apply: the library, plus the casp-verify SPMD corpus,
# which lives beside its only users (tools/casp_verify, tests/vmpi/
# test_sched) but is vmpi program code all the same.
SRC_RULE_PATHS = ("src/", "tools/sched_corpus.")

STAGE_LOOP_OWNERS = ("src/summa/stage_engine.", "src/summa/sparse_comm.")

# A separate final sort pass in the SUMMA layer (it belongs to Merge-Fiber's
# merge_matrices call). Scanned on comment- and string-stripped lines, so
# the bare name catches a call whose `(` sits on the next line.
SUMMA_SORT_RE = re.compile(r"\bsort_columns\b")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"][^>"]+[>"])')

# catch (const MemoryError& e) { <whitespace only> } — after strip_code()
# a comment-only body is whitespace too, which is intended: a comment is
# not a recovery action.
EMPTY_CATCH_RE = re.compile(
    r"\bcatch\s*\(\s*(?:const\s+)?[\w:]*\b"
    r"(MemoryError|TransientCommError)\s*[&\s]*\w*\s*\)\s*\{\s*\}"
)

COMM_COMPAT_RE = re.compile(
    r"\b(send_bytes|recv_bytes|bcast_bytes|ibcast_bytes|bcast_vec|"
    r"allgather_bytes|alltoall_bytes)\s*[(<]"
)

# A fresh SummaOptions construction: declaration with default init or a
# braced temporary. Copy-initialization from an existing value
# (`SummaOptions b = a;`) deliberately does not match.
JOBSPEC_SINGLE_SOURCE_RE = re.compile(
    r"(?<!struct )\bSummaOptions\s*\{|\bSummaOptions\s+\w+\s*[;{]"
)

# File-writing opens in src/ckpt/: an ofstream/fstream construction or
# .open(...), or a C fopen. Plain `std::ifstream` reads are fine.
CKPT_WRITE_OPEN_RE = re.compile(
    r"\bstd::(?:ofstream|fstream)\b|\bfopen\s*\("
)
CKPT_TMP_TOKEN_RE = re.compile(r"\bkTmpSuffix\b")

# A FailureReport kind introduction: `kind = "<name>"` (assignment, not
# the `==`/`!=` comparisons, which only read an existing kind). Scanned on
# comment-stripped-but-string-preserving text, so prose in comments never
# trips it.
KIND_ASSIGN_RE = re.compile(r'\bkind\s*=(?!=)\s*"([a-z_]+)"')
# One entry of the supervisor's classification table:
# {"<kind>", true|false}.
KIND_TABLE_ENTRY_RE = re.compile(r'\{\s*"([a-z_]+)"\s*,\s*(?:true|false)\s*\}')
KIND_TABLE_NAME = "kKindTable"
KIND_TABLE_FILE = "src/vmpi/runtime.cpp"

# A RankHealth state write: `= RankHealth::k<State>` where the `=` is a
# plain assignment (the lookarounds drop `==`, `!=`, `<=`, `>=`). The
# `.assign(n, RankHealth::kAlive)` construction reset never matches: the
# enum token there follows a comma, not an `=`.
HEALTH_ASSIGN_RE = re.compile(r"(?<![=!<>])=(?!=)\s*RankHealth::k\w+")
# The one sanctioned write site; its brace-matched body is exempt.
TRANSITION_DEF_RE = re.compile(r"\bRankPool::transition\s*\(")

# A collective call on a Comm (or sub-Comm): receiver-dotted so plain
# helper functions named e.g. `barrier_us` don't trip the rule.
COLLECTIVE_CALL_RE = re.compile(
    r"[.>]\s*(barrier|bcast_\w+|ibcast_\w+|bcast_wait|allreduce(?:_\w+)?|"
    r"(?:all)?gather_\w+|alltoall_\w+|reduce_to_root|split)\s*\("
)
# An `if` condition that branches on a rank: the identifier `rank`, any
# *_rank/rank_* variable, or a .rank()/->rank() accessor.
RANK_COND_RE = re.compile(r"\b\w*rank\w*\b|[.>]\s*rank\s*\(")
COLLECTIVE_OK_RE = re.compile(r"lint:\s*collective-ok")


def strip_code(text: str, keep_strings: bool = False) -> str:
    """Blank out comments — and, unless keep_strings, string and char
    literals — preserving line structure, so token scans don't trip on
    prose or paths. keep_strings=True serves the rules that inspect
    literal contents (failure-kind-classified) but must still ignore
    commented-out code."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    mode = "raw"
                    out.append(m.group(0) if keep_strings else " " * m.end())
                    i += m.end()
                    continue
            if c == '"':
                mode = "string"
                out.append('"' if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append("'" if keep_strings else " ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append('"' if keep_strings else " ")
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append("'" if keep_strings else " ")
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
        elif mode == "raw":
            if text.startswith(raw_delim, i):
                mode = "code"
                out.append(raw_delim if keep_strings else " " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.errors = []
        self._repo_kind_table = None  # lazily parsed from KIND_TABLE_FILE

    def error(self, rel: str, line_no: int, rule: str, msg: str):
        self.errors.append(f"{rel}:{line_no}: [{rule}] {msg}")

    # -- per-file driver ----------------------------------------------------

    def lint_file(self, path: Path):
        text = path.read_text(encoding="utf-8", errors="replace")
        self.lint_text(path.relative_to(self.root).as_posix(), text)

    def lint_text(self, rel: str, text: str):
        """Run every rule on `text` as if it lived at repo-relative `rel`.
        Split out from lint_file so the --self-test fixtures (which must NOT
        be real .cpp files, or the main gate would scan them) lint under a
        pretend path."""
        raw_lines = text.splitlines()
        code_text = strip_code(text)
        code_lines = code_text.splitlines()

        file_waivers = set()
        for line in raw_lines[:CAST_SCOPE_LINES]:
            for m in ALLOW_FILE_RE.finditer(line):
                file_waivers.add(m.group(1))

        def waived(rule: str, idx: int) -> bool:
            if rule in file_waivers:
                return True
            for probe in (idx, idx - 1):
                if 0 <= probe < len(raw_lines):
                    for m in ALLOW_LINE_RE.finditer(raw_lines[probe]):
                        if m.group(1) == rule:
                            return True
            return False

        in_src = rel.startswith(SRC_RULE_PATHS)
        in_vmpi = rel.startswith("src/vmpi/")

        self.check_new_delete(rel, code_lines, waived)
        if in_src and not in_vmpi:
            self.check_threading(rel, code_lines, waived)
        self.check_comm_compat(rel, code_lines, waived)
        if (in_src or rel.startswith("tools/")) and not rel.startswith(
                "src/svc/"):
            self.check_jobspec_single_source(rel, code_lines, waived)
        if rel.startswith("src/ckpt/"):
            self.check_ckpt_atomic_write(rel, code_lines, waived)
        if in_src:
            self.check_rank_divergent_collective(rel, code_text, raw_lines,
                                                 waived)
            self.check_failure_kind_classified(
                rel, strip_code(text, keep_strings=True), waived)
            self.check_health_transition_classified(rel, code_text, waived)
        self.check_cast_pairing(rel, code_lines, waived)
        self.check_empty_catch(rel, code_text, waived)
        self.check_payload_ownership(rel, code_lines, waived)
        if in_src and "sparse_comm" in rel:
            self.check_sparse_subview_pack(rel, code_lines, waived)
        if rel.startswith("src/summa/") and not rel.startswith(
                STAGE_LOOP_OWNERS):
            self.check_summa_single_stage_loop(rel, code_lines, waived)
        if rel.startswith("src/summa/"):
            self.check_summa_final_sort_in_merge(rel, code_lines, waived)
        if rel.endswith(".hpp"):
            self.check_pragma_once(rel, code_lines, waived)
        self.check_include_order(rel, raw_lines, waived)

    # -- rules --------------------------------------------------------------

    def check_new_delete(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if NEW_RE.search(line) and not waived("new-delete", idx):
                self.error(rel, idx + 1, "new-delete",
                           "`new` expression — use containers/RAII "
                           "(placement new is allowed: `new (addr) T`)")
            for m in DELETE_RE.finditer(line):
                if DELETE_OK_BEFORE.search(line[:m.start()]):
                    continue  # `= delete` / `operator delete`
                if not waived("new-delete", idx):
                    self.error(rel, idx + 1, "new-delete",
                               "`delete` expression — use containers/RAII")

    def check_threading(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            m = THREADING_TOKENS.search(line)
            if m and not waived("threading", idx):
                self.error(rel, idx + 1, "threading",
                           f"std::{m.group(1)} outside src/vmpi/ — all "
                           "parallelism must go through the virtual runtime")

    def check_comm_compat(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            m = COMM_COMPAT_RE.search(line)
            if m and not waived("comm-compat", idx):
                self.error(
                    rel, idx + 1, "comm-compat",
                    f"{m.group(1)} is a removed byte-vector compat wrapper "
                    "— use the payload-first Comm API (send_payload/"
                    "recv_payload/bcast_payload/allgather_vec/...; tests: "
                    "testing::bcast_typed)")

    def check_jobspec_single_source(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if JOBSPEC_SINGLE_SOURCE_RE.search(line) and not waived(
                    "jobspec-single-source", idx):
                self.error(
                    rel, idx + 1, "jobspec-single-source",
                    "fresh SummaOptions construction outside src/svc/ — "
                    "build a svc::JobSpec and derive the view with "
                    "JobSpec::summa_options() (copying an existing value "
                    "is fine)")

    def check_ckpt_atomic_write(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if not CKPT_WRITE_OPEN_RE.search(line):
                continue
            if CKPT_TMP_TOKEN_RE.search(line):
                continue
            if not waived("ckpt-atomic-write", idx):
                self.error(
                    rel, idx + 1, "ckpt-atomic-write",
                    "file-writing open in src/ckpt/ that does not target "
                    "the kTmpSuffix temp path — checkpoint files must be "
                    "written atomically (tmp + flush + rename); route "
                    "writes through atomic_write_file")

    def check_rank_divergent_collective(self, rel, code_text, raw_lines,
                                        waived):
        regions = self._rank_guarded_regions(code_text)
        if not regions:
            return
        for m in COLLECTIVE_CALL_RE.finditer(code_text):
            if not any(lo <= m.start() < hi for lo, hi in regions):
                continue
            idx = code_text.count("\n", 0, m.start())
            ok = False
            for probe in (idx, idx - 1):
                if 0 <= probe < len(raw_lines) and COLLECTIVE_OK_RE.search(
                        raw_lines[probe]):
                    ok = True
            if ok or waived("rank-divergent-collective", idx):
                continue
            self.error(
                rel, idx + 1, "rank-divergent-collective",
                f"collective {m.group(1)}() inside a rank-guarded `if` — "
                "every rank must enter a collective, or only some ranks "
                "wait forever; hoist it out of the branch, or mark "
                "intentional sub-communicator use with "
                "`// lint: collective-ok`")

    @staticmethod
    def _rank_guarded_regions(code_text):
        """[start, end) character ranges of code lexically inside an
        `if (...rank...)` block, its brace-less statement, or the attached
        `else` block."""

        def matching(open_ch, close_ch, start):
            depth = 0
            for j in range(start, len(code_text)):
                if code_text[j] == open_ch:
                    depth += 1
                elif code_text[j] == close_ch:
                    depth -= 1
                    if depth == 0:
                        return j
            return len(code_text)

        def skip_ws(j):
            while j < len(code_text) and code_text[j] in " \t\n":
                j += 1
            return j

        regions = []
        for m in re.finditer(r"\bif\s*\(", code_text):
            paren_open = m.end() - 1
            paren_close = matching("(", ")", paren_open)
            if not RANK_COND_RE.search(code_text[paren_open:paren_close]):
                continue
            body = skip_ws(paren_close + 1)
            if body < len(code_text) and code_text[body] == "{":
                end = matching("{", "}", body)
                regions.append((body, end))
                after = skip_ws(end + 1)
                if code_text.startswith("else", after):
                    tail = skip_ws(after + 4)
                    if tail < len(code_text) and code_text[tail] == "{":
                        regions.append((tail, matching("{", "}", tail)))
                    # `else if (...)` is re-examined by its own `if` match.
            else:
                semi = code_text.find(";", body)
                regions.append(
                    (body, semi if semi != -1 else len(code_text)))
        return regions

    def _kind_table(self, code_with_strings):
        """Classification entries in scope for this file: a kKindTable the
        text defines itself (runtime.cpp, self-test fixtures), else the
        repo's table in src/vmpi/runtime.cpp, parsed once."""
        pos = code_with_strings.find(KIND_TABLE_NAME)
        if pos != -1:
            region = code_with_strings[pos:]
            end = region.find("};")
            if end != -1:
                region = region[:end]
            entries = {m.group(1)
                       for m in KIND_TABLE_ENTRY_RE.finditer(region)}
            if entries:
                return entries
        if self._repo_kind_table is None:
            self._repo_kind_table = set()
            table_path = self.root / KIND_TABLE_FILE
            if table_path.exists():
                text = strip_code(
                    table_path.read_text(encoding="utf-8", errors="replace"),
                    keep_strings=True)
                pos = text.find(KIND_TABLE_NAME)
                if pos != -1:
                    region = text[pos:]
                    end = region.find("};")
                    if end != -1:
                        region = region[:end]
                    self._repo_kind_table = {
                        m.group(1)
                        for m in KIND_TABLE_ENTRY_RE.finditer(region)
                    }
        return self._repo_kind_table

    def check_failure_kind_classified(self, rel, code_with_strings, waived):
        matches = list(KIND_ASSIGN_RE.finditer(code_with_strings))
        if not matches:
            return
        table = self._kind_table(code_with_strings)
        for m in matches:
            kind = m.group(1)
            if kind in table:
                continue
            idx = code_with_strings.count("\n", 0, m.start())
            if waived("failure-kind-classified", idx):
                continue
            self.error(
                rel, idx + 1, "failure-kind-classified",
                f'FailureReport kind "{kind}" has no entry in '
                f"{KIND_TABLE_NAME} ({KIND_TABLE_FILE}) — "
                "recoverable_failure() silently treats unlisted kinds as "
                "non-recoverable; add it to the classification table")

    @staticmethod
    def _transition_bodies(code_text):
        """[start, end) character ranges of RankPool::transition definition
        bodies — the sanctioned RankHealth write site. Declarations and the
        unqualified calls inside pool.cpp don't match the qualified name."""
        regions = []
        for m in TRANSITION_DEF_RE.finditer(code_text):
            brace = code_text.find("{", m.end())
            if brace == -1:
                continue
            depth = 0
            end = len(code_text)
            for j in range(brace, len(code_text)):
                if code_text[j] == "{":
                    depth += 1
                elif code_text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            regions.append((brace, end))
        return regions

    def check_health_transition_classified(self, rel, code_text, waived):
        matches = list(HEALTH_ASSIGN_RE.finditer(code_text))
        if not matches:
            return
        bodies = self._transition_bodies(code_text)
        for m in matches:
            if any(lo <= m.start() < hi for lo, hi in bodies):
                continue
            idx = code_text.count("\n", 0, m.start())
            if waived("health-transition-classified", idx):
                continue
            self.error(
                rel, idx + 1, "health-transition-classified",
                "RankHealth state written outside RankPool::transition — "
                "the transition function is the single write site that "
                "validates the membership state machine's legal edges; a "
                "bare assignment can fabricate an illegal edge (e.g. "
                "resurrect a quarantined rank past the probation "
                "handshake)")

    def check_cast_pairing(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if not REINTERPRET_RE.search(line):
                continue
            lo = max(0, idx - CAST_SCOPE_LINES)
            window = code_lines[lo:idx + 1]
            if any(TRIVIAL_RE.search(w) for w in window):
                continue
            if not waived("cast-pairing", idx):
                self.error(
                    rel, idx + 1, "cast-pairing",
                    "reinterpret_cast without a nearby static_assert("
                    "std::is_trivially_copyable_v<...>) in the same scope")

    def check_empty_catch(self, rel, code_text, waived):
        # Multiline scan: `catch` clauses wrap freely, so match on the
        # whole stripped text and map the offset back to a line number.
        for m in EMPTY_CATCH_RE.finditer(code_text):
            idx = code_text.count("\n", 0, m.start())
            if not waived("empty-catch", idx):
                self.error(
                    rel, idx + 1, "empty-catch",
                    f"empty catch body for {m.group(1)} — this exception "
                    "carries a recovery obligation (retry / re-batch / "
                    "classify); handle it or let vmpi::run classify it")

    def check_payload_ownership(self, rel, code_lines, waived):
        if not any(PAYLOAD_TYPE_RE.search(line) for line in code_lines):
            return
        for idx, line in enumerate(code_lines):
            if CONST_CAST_RE.search(line) and not waived(
                    "payload-ownership", idx):
                self.error(
                    rel, idx + 1, "payload-ownership",
                    "const_cast in a file handling shared Payload/CscView "
                    "buffers — borrowed wire arrays are shared across ranks; "
                    "copy out (materialize()/release_or_copy()) before "
                    "mutating")

    def check_sparse_subview_pack(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if SPARSE_DEEP_COPY_RE.search(line) and not waived(
                    "sparse-subview-pack", idx):
                self.error(
                    rel, idx + 1, "sparse-subview-pack",
                    "payload deep copy in the sparse-exchange packer — "
                    "sends must ship Payload::subview handles of the "
                    "packed block (Payload::wrap for fresh descriptors); "
                    "a copy_of/materialize here breaks the zero-copy "
                    "guarantee bench_sparse_exchange gates on")

    def check_summa_single_stage_loop(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if STAGE_LOOP_RE.search(line) and not waived(
                    "summa-single-stage-loop", idx):
                self.error(
                    rel, idx + 1, "summa-single-stage-loop",
                    "stage exchange posted or waited outside the SUMMA "
                    "stage engine — run the stages through "
                    "run_summa_stages (summa/stage_engine.hpp) and pass "
                    "only the per-stage consumer")

    def check_summa_final_sort_in_merge(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            if SUMMA_SORT_RE.search(line) and not waived(
                    "summa-final-sort-in-merge", idx):
                self.error(
                    rel, idx + 1, "summa-final-sort-in-merge",
                    "sort_columns() pass in the SUMMA layer — the single "
                    "final sort is Merge-Fiber's sorted emission: "
                    "merge_matrices with sort_output = opts.sort_final "
                    "emits each column in row order (a lone l = 1 partial: "
                    "sort_columns_in_place)")

    def check_pragma_once(self, rel, code_lines, waived):
        for idx, line in enumerate(code_lines):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped == "#pragma once":
                return
            if not waived("pragma-once", idx):
                self.error(rel, idx + 1, "pragma-once",
                           "first directive in a header must be #pragma once")
            return
        self.error(rel, 1, "pragma-once", "header lacks #pragma once")

    def check_include_order(self, rel, raw_lines, waived):
        block = []  # list of (idx, token)
        for idx in range(len(raw_lines) + 1):
            m = INCLUDE_RE.match(raw_lines[idx]) if idx < len(raw_lines) else None
            if m:
                block.append((idx, m.group(1)))
                continue
            if len(block) > 1:
                self._check_include_block(rel, block, waived)
            block = []

    def _check_include_block(self, rel, block, waived):
        seen_quote = False
        for idx, token in block:
            if token.startswith('"'):
                seen_quote = True
            elif seen_quote and not waived("include-order", idx):
                self.error(rel, idx + 1, "include-order",
                           f"system include {token} after a project include "
                           "in the same block")
        for style in ("<", '"'):
            group = [(idx, t) for idx, t in block if t.startswith(style)]
            for (idx_a, a), (idx_b, b) in zip(group, group[1:]):
                if a > b and not waived("include-order", idx_b):
                    self.error(rel, idx_b + 1, "include-order",
                               f"{b} breaks sort order (after {a})")

    # -- entry --------------------------------------------------------------

    def run(self) -> int:
        files = []
        for d in CXX_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            files.extend(p for ext in CXX_EXTS for p in base.rglob(f"*{ext}"))
        for path in sorted(files):
            self.lint_file(path)
        if self.errors:
            for e in self.errors:
                print(e)
            print(f"casp_lint: {len(self.errors)} violation(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"casp_lint: OK ({len(files)} files clean)")
        return 0


FIXTURE_RULES_RE = re.compile(r"lint-rules:\s*([a-z, -]+)")
FIXTURE_PATH_RE = re.compile(r"lint-path:\s*(\S+)")


def self_test(root: Path) -> int:
    """Lint the fixture corpus (tests/lint/fixtures/*.cpp.txt) under a
    pretend src/ path and compare against the `// expect-violation` line
    markers. Positive fixtures prove the rule fires where it must; negative
    fixtures prove the allowlist and benign shapes stay silent. Each
    fixture declares the rule(s) it exercises with a `// lint-rules: a,b`
    header line — errors from other rules are ignored, so a fixture only
    tests what it claims to. Fixtures without the header default to
    rank-divergent-collective (the original corpus). A `// lint-path: p`
    header lints the fixture as repo-relative path p instead of
    src/<name>, for rules scoped to one directory or file."""
    fixtures = sorted((root / "tests" / "lint" / "fixtures").glob("*.cpp.txt"))
    if not fixtures:
        print("casp_lint --self-test: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        expected = {
            idx + 1
            for idx, line in enumerate(text.splitlines())
            if "expect-violation" in line
        }
        rules = {"rank-divergent-collective"}
        m = FIXTURE_RULES_RE.search(text)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        pm = FIXTURE_PATH_RE.search(text)
        rel = pm.group(1) if pm else f"src/{path.stem}"
        linter = Linter(root)
        linter.lint_text(rel, text)
        got = {
            int(e.split(":")[1])
            for e in linter.errors
            if any(f"[{rule}]" in e for rule in rules)
        }
        if got == expected:
            print(f"self-test PASS {path.name} "
                  f"({len(expected)} expected violation(s))")
            continue
        failures += 1
        print(f"self-test FAIL {path.name}: expected lines "
              f"{sorted(expected)}, got {sorted(got)}")
        for e in linter.errors:
            print(f"  {e}")
    if failures:
        print(f"casp_lint --self-test: {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    print(f"casp_lint --self-test: OK ({len(fixtures)} fixtures)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixture corpus instead of the repo "
                             "and verify expected violations")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if not (root / "CMakeLists.txt").exists():
        print(f"casp_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
