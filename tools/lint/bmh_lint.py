#!/usr/bin/env python3
"""bmh_lint — project invariant linter for the bmh serving stack.

Checks contracts the generic analyzers (clang-tidy, -Wthread-safety) cannot
express, over the translation units named by a CMake compile database:

  ws-alloc        `_ws`-suffixed functions are the zero-alloc-warm serving
                  path: their bodies must not construct std::vector or
                  std::string or call `new` — scratch memory comes from
                  Workspace leases (ws.vec<T>(...), ws.obj<T>(...)).
  failpoint-site  every BMH_FAILPOINT / BMH_FAILPOINT_CORRUPT site string is
                  unique across the tree and listed in the README's
                  "Failure semantics" site table, so the README can never
                  drift from the compiled-in sites. (Dynamically built
                  metric names like `site + ".evaluations"` are not
                  literals and are outside this rule.)
  memory-order    every std::atomic access spelling an explicit memory_order
                  other than relaxed carries a justifying comment on the
                  same or immediately preceding line — acquire/release/
                  seq_cst are protocol statements and must say which
                  protocol.
  omp-alloc       `#pragma omp parallel` bodies must not allocate: no
                  reserve/resize/assign/insert/push_back/emplace_back member
                  call and no `new`/make_unique/make_shared. A bad_alloc
                  cannot leave an OpenMP region (the runtime terminates), so
                  buffers are sized before the region. The body is the
                  pragma's statement, read lexically: functions it calls
                  are not followed.
  ws-twin         one entry point per kernel: a free function defined as
                  `X` where a free `X_ws` is also defined is an allocating
                  twin of the `_ws` form (its result by value, its scratch
                  from a Workspace of its own); callers pass a Workspace to
                  `X_ws` instead. Checked across every linted file, over
                  unqualified definitions at namespace scope (members are
                  another class's business).
  metric-name     obs instrument names (MetricDomain("..."), .counter("..."),
                  .gauge("..."), .histogram("..."), create_domain("..."),
                  record_phase("...")) are lowercase snake_case tokens, so
                  the exporters' rendered `bmh_<domain>_<metric>` names
                  always match the documented grammar.

Scope: repo mode lints `src/**` (the serving library — the code the
contracts govern); tests and benches deliberately do odd things and are
excluded. `--files` mode lints exactly the named files (used by the fixture
test in tests/lint/).

Suppression: a comment `bmh-lint: allow(<rule>) <justification>` on the
flagged line or the line above suppresses that rule there. The
justification is mandatory; an allow() without one is itself reported
(rule `bare-allow`).

Output: one `path:line: [rule] message` per finding on stdout, sorted;
exit status 1 when anything was found, 0 on a clean tree.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

RULES = ("ws-alloc", "ws-twin", "omp-alloc", "failpoint-site", "memory-order",
         "metric-name")

ALLOW_RE = re.compile(r"bmh-lint:\s*allow\(([a-z-]+)\)\s*(\S?.*)")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out comments and (unless keep_strings) string/char literals,
    preserving line structure (every newline survives) so line numbers in
    the stripped text match the original. Raw strings are handled well
    enough for this codebase (none)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(c + nxt if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; be forgiving
                state = "code"
                out.append("\n")
            else:
                out.append(c if keep_strings else " ")
        i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class SourceFile:
    def __init__(self, path: Path, display: str):
        self.path = path
        self.display = display
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.lines = self.text.splitlines()
        self.stripped = strip_comments_and_strings(self.text)
        self.stripped_lines = self.stripped.splitlines()
        # Comments blanked, string literals kept: failpoint site names live
        # in literals, but doc-comment examples must not count as sites.
        self.code_with_strings = strip_comments_and_strings(
            self.text, keep_strings=True)

    def line(self, number: int) -> str:
        return self.lines[number - 1] if 0 < number <= len(self.lines) else ""

    def allow_on(self, number: int):
        """The allow() directive covering `number`, if any: checks the line
        itself and the line above. Returns (rule, justification) or None."""
        for candidate in (number, number - 1):
            m = ALLOW_RE.search(self.line(candidate))
            if m:
                return m.group(1), m.group(2).strip(), candidate
        return None


def suppressed(src: SourceFile, number: int, rule: str, findings: list) -> bool:
    hit = src.allow_on(number)
    if hit is None:
        return False
    allowed_rule, justification, where = hit
    if allowed_rule != rule:
        return False
    if not justification:
        findings.append(
            Finding(src.display, where, "bare-allow",
                    f"allow({rule}) needs a justification after the ')'"))
    return True


# ------------------------------------------------------------------ ws-alloc

WS_DEF_RE = re.compile(r"\b([A-Za-z_]\w*_ws)\s*\(")
VECTOR_RE = re.compile(r"\bstd\s*::\s*vector\s*<")
STRING_RE = re.compile(r"\bstd\s*::\s*string\b(?!_view)")


def matching(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index just past the bracket matching text[start] (which must be
    open_ch); -1 when unbalanced."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def template_end(text: str, start: int) -> int:
    """Index just past the `>` matching the `<` at text[start]; bails (-1) on
    expressions that are clearly not template argument lists."""
    depth = 0
    for i in range(start, min(len(text), start + 2000)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";":
            return -1
    return -1


def definition_body(text: str, name_end: int) -> int:
    """Index of the `{` opening the body when the identifier ending at
    `name_end` (followed by its parameter list) is a function definition;
    -1 for a declaration or a call."""
    paren_open = text.find("(", name_end)
    if paren_open < 0 or text[name_end:paren_open].strip():
        return -1
    paren_close = matching(text, paren_open, "(", ")")
    if paren_close < 0:
        return -1
    # Definition = an opening brace after the signature (allowing
    # qualifiers like const/noexcept/override and a trailing return). `-`
    # last so the class can't form an accidental range.
    qualifiers = re.match(r"^[\s\w:&<>,*\[\]-]*\{", text[paren_close:paren_close + 200])
    if qualifiers is None:
        return -1
    return paren_close + qualifiers.end() - 1


def check_ws_alloc(src: SourceFile, findings: list) -> None:
    text = src.stripped
    for m in WS_DEF_RE.finditer(text):
        brace_open = definition_body(text, m.end() - 1)
        if brace_open < 0:
            continue
        body_end = matching(text, brace_open, "{", "}")
        if body_end < 0:
            continue
        body = text[brace_open:body_end]
        base = brace_open

        for vm in VECTOR_RE.finditer(body):
            close = template_end(body, vm.end() - 1)
            if close < 0:
                continue
            after = body[close:close + 40].lstrip()
            if after.startswith(("&", "*", "::", ">", ",", ")")):
                continue  # reference/pointer/nested-type use, not a construction
            if re.match(r"^[A-Za-z_(\{]", after):
                ln = line_of(text, base + vm.start())
                if not suppressed(src, ln, "ws-alloc", findings):
                    findings.append(Finding(
                        src.display, ln, "ws-alloc",
                        f"std::vector constructed inside {m.group(1)}() — "
                        "use a Workspace lease (ws.vec<T>())"))
        for sm in STRING_RE.finditer(body):
            after = body[sm.end():sm.end() + 40].lstrip()
            if after.startswith(("&", "*", "::", ",", ")", ";", ">")):
                continue
            if re.match(r"^[A-Za-z_(\{]", after):
                ln = line_of(text, base + sm.start())
                if not suppressed(src, ln, "ws-alloc", findings):
                    findings.append(Finding(
                        src.display, ln, "ws-alloc",
                        f"std::string constructed inside {m.group(1)}() — "
                        "the warm path must not allocate"))
        for nm in re.finditer(r"\bnew\b", body):
            ln = line_of(text, base + nm.start())
            if not suppressed(src, ln, "ws-alloc", findings):
                findings.append(Finding(
                    src.display, ln, "ws-alloc",
                    f"`new` inside {m.group(1)}() — "
                    "the warm path must not allocate"))


# ------------------------------------------------------------------- ws-twin

FUNCTION_NAME_RE = re.compile(r"(?<![\w:])([A-Za-z_]\w*)\s*\(")
NOT_FUNCTIONS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                 "alignof", "decltype", "static_assert"}
NAMESPACE_OPEN_RE = re.compile(r"\bnamespace(?:\s+[\w:]+)?\s*$")


def namespace_scope(text: str) -> bytearray:
    """flags[i] is 1 where every brace enclosing offset i opens a
    namespace: the scope of free function definitions."""
    flags = bytearray(len(text) + 1)
    opened = []  # per open brace: does it open a namespace?
    other_depth = 0
    for i, c in enumerate(text):
        flags[i] = other_depth == 0
        if c == "{":
            is_namespace = NAMESPACE_OPEN_RE.search(text, max(0, i - 200), i) is not None
            opened.append(is_namespace)
            other_depth += not is_namespace
        elif c == "}" and opened:
            other_depth -= not opened.pop()
    return flags


def check_ws_twins(sources: list, findings: list) -> None:
    defined = []  # (name, src, line) of every free function definition
    for src in sources:
        text = src.stripped
        at_namespace_scope = namespace_scope(text)
        for m in FUNCTION_NAME_RE.finditer(text):
            name = m.group(1)
            if (name in NOT_FUNCTIONS or not at_namespace_scope[m.start()]
                    or definition_body(text, m.end(1)) < 0):
                continue
            defined.append((name, src, line_of(text, m.start())))
    ws_forms = {name for name, _, _ in defined if name.endswith("_ws")}
    for name, src, ln in defined:
        if name + "_ws" not in ws_forms or suppressed(src, ln, "ws-twin", findings):
            continue
        findings.append(Finding(
            src.display, ln, "ws-twin",
            f"{name}() is defined beside {name}_ws() — keep one entry point "
            f"per kernel: call {name}_ws with the caller's Workspace"))


# ----------------------------------------------------------------- omp-alloc

OMP_PARALLEL_RE = re.compile(r"^[ \t]*#[ \t]*pragma[ \t]+omp[ \t]+parallel\b", re.MULTILINE)
OMP_ALLOC_RE = re.compile(
    r"(?:\.|->)\s*(reserve|resize|assign|insert|push_back|emplace_back)\s*\("
    r"|\b(new)\b|\b(make_unique|make_shared)\s*<")


def skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def statement_end(text: str, pos: int) -> int:
    """Index just past the C++ statement starting at or after `pos`: a
    braced block, a for/while/if/switch with its controlled statement (and
    an if's else), or a simple statement up to its `;`. -1 when unbalanced."""
    pos = skip_space(text, pos)
    if pos >= len(text):
        return -1
    if text[pos] == "{":
        return matching(text, pos, "{", "}")
    keyword = re.match(r"(for|while|if|switch)\b", text[pos:])
    if keyword:
        paren = skip_space(text, pos + keyword.end())
        if paren >= len(text) or text[paren] != "(":
            return -1
        close = matching(text, paren, "(", ")")
        if close < 0:
            return -1
        end = statement_end(text, close)
        if keyword.group(1) == "if" and end >= 0:
            after = skip_space(text, end)
            if re.match(r"else\b", text[after:]):
                return statement_end(text, after + 4)
        return end
    depth = 0
    for i in range(pos, len(text)):
        c = text[i]
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        elif c == ";" and depth == 0:
            return i + 1
    return -1


def check_omp_alloc(src: SourceFile, findings: list) -> None:
    text = src.stripped
    for m in OMP_PARALLEL_RE.finditer(text):
        # The pragma runs to the end of its line, backslash continuations
        # included; its body is the statement after it.
        line_end = m.end()
        while True:
            newline = text.find("\n", line_end)
            if newline < 0:
                return
            if text[line_end:newline].rstrip().endswith("\\"):
                line_end = newline + 1
                continue
            break
        body_end = statement_end(text, newline + 1)
        if body_end < 0:
            continue
        for am in OMP_ALLOC_RE.finditer(text, newline + 1, body_end):
            name = am.group(1) or am.group(2) or am.group(3)
            ln = line_of(text, am.start())
            if suppressed(src, ln, "omp-alloc", findings):
                continue
            findings.append(Finding(
                src.display, ln, "omp-alloc",
                f"`{name}` inside a #pragma omp parallel body — size buffers "
                "before the region (an exception cannot leave it)"))


# ------------------------------------------------------------ failpoint-site

FAILPOINT_RE = re.compile(r"\bBMH_FAILPOINT(?:_CORRUPT)?\s*\(\s*\"([^\"]+)\"")


def readme_failure_sites(readme: Path) -> set:
    """Backticked tokens inside the README's "Failure semantics" section."""
    try:
        text = readme.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return set()
    m = re.search(r"^##+\s+Failure semantics\s*$(.*?)(?=^##\s|\Z)", text,
                  re.MULTILINE | re.DOTALL)
    if m is None:
        return set()
    return set(re.findall(r"`([a-z0-9_.]+)`", m.group(1)))


def check_failpoints(sources: list, readme: Path, findings: list) -> None:
    listed = readme_failure_sites(readme) if readme else None
    seen = {}
    for src in sources:
        for m in FAILPOINT_RE.finditer(src.code_with_strings):
            site = m.group(1)
            ln = line_of(src.code_with_strings, m.start())
            if suppressed(src, ln, "failpoint-site", findings):
                continue
            if site in seen:
                findings.append(Finding(
                    src.display, ln, "failpoint-site",
                    f'duplicate failpoint site "{site}" '
                    f"(first at {seen[site]})"))
            else:
                seen[site] = f"{src.display}:{ln}"
            if listed is not None and site not in listed:
                findings.append(Finding(
                    src.display, ln, "failpoint-site",
                    f'failpoint site "{site}" is not listed in the README '
                    "failure-semantics site table"))


# -------------------------------------------------------------- memory-order

MEMORY_ORDER_RE = re.compile(
    r"\bmemory_order(?:_|::\s*)(acquire|release|acq_rel|seq_cst|consume)\b")


def has_comment(line: str) -> bool:
    # A bmh-lint directive is not a justification: allow(<rule>) runs through
    # suppressed() (which demands its own justification text), and an allow
    # for a *different* rule must not silence this one.
    if ALLOW_RE.search(line):
        return False
    stripped = strip_comments_and_strings(line)
    if "//" in line and "//" not in stripped:
        return True
    if "/*" in line and "/*" not in stripped:
        return True
    if "*/" in line and "*/" not in stripped:
        return True
    s = line.strip()
    return s.startswith(("*", "//", "/*"))  # inside a block comment


def check_memory_order(src: SourceFile, findings: list) -> None:
    flagged = set()
    for number, line in enumerate(src.stripped_lines, start=1):
        m = MEMORY_ORDER_RE.search(line)
        if m is None or number in flagged:
            continue
        if suppressed(src, number, "memory-order", findings):
            continue
        if has_comment(src.line(number)) or has_comment(src.line(number - 1)):
            continue
        flagged.add(number)
        findings.append(Finding(
            src.display, number, "memory-order",
            f"memory_order_{m.group(1)} without a justifying comment on "
            "this or the preceding line"))


# --------------------------------------------------------------- metric-name

METRIC_CALL_RE = re.compile(
    r"(?:\.\s*(?:counter|gauge|histogram)|\bcreate_domain|\brecord_phase|"
    r"\bMetricDomain\s+\w+|\bMetricDomain)\s*[({]\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def check_metric_names(src: SourceFile, findings: list) -> None:
    for m in METRIC_CALL_RE.finditer(src.text):
        name = m.group(1)
        if METRIC_NAME_RE.match(name):
            continue
        ln = line_of(src.text, m.start())
        if suppressed(src, ln, "metric-name", findings):
            continue
        findings.append(Finding(
            src.display, ln, "metric-name",
            f'metric name "{name}" does not match the bmh_<domain>_<metric> '
            "grammar component [a-z][a-z0-9_]*"))


# -------------------------------------------------------------------- driver

def compile_db_sources(compile_db: Path, repo_root: Path) -> list:
    entries = json.loads(compile_db.read_text(encoding="utf-8"))
    src_dir = (repo_root / "src").resolve()
    picked = []
    seen = set()
    for entry in entries:
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry["directory"]) / f
        f = f.resolve()
        if src_dir not in f.parents:
            continue
        if f in seen or not f.exists():
            continue
        seen.add(f)
        picked.append(f)
    # Headers never appear in the compile database; the contracts live in
    # them too (annotated members, inline hot paths), so walk src/ for them.
    for header in sorted(src_dir.rglob("*.hpp")):
        if header.resolve() not in seen:
            picked.append(header.resolve())
            seen.add(header.resolve())
    return sorted(picked)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compile-db", type=Path,
                        help="compile_commands.json to enumerate TUs from")
    parser.add_argument("--repo-root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--readme", type=Path,
                        help="README to check failpoint sites against "
                             "(default: <repo-root>/README.md in repo mode)")
    parser.add_argument("--files", nargs="*", type=Path,
                        help="lint exactly these files (fixture mode)")
    args = parser.parse_args(argv)

    repo_root = args.repo_root.resolve()
    if args.files:
        paths = [(p, str(p)) for p in args.files]
        readme = args.readme
    else:
        if args.compile_db is None:
            for candidate in ("build", "build-lint"):
                db = repo_root / candidate / "compile_commands.json"
                if db.exists():
                    args.compile_db = db
                    break
        if args.compile_db is None or not args.compile_db.exists():
            print("bmh_lint: no compile_commands.json found; configure with "
                  "cmake first or pass --compile-db", file=sys.stderr)
            return 2
        paths = [(p, str(p.relative_to(repo_root)) if repo_root in p.parents
                  else str(p))
                 for p in compile_db_sources(args.compile_db, repo_root)]
        readme = args.readme if args.readme else repo_root / "README.md"

    sources = []
    for path, display in paths:
        try:
            sources.append(SourceFile(Path(path), display))
        except OSError as e:
            print(f"bmh_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2

    findings: list = []
    for src in sources:
        check_ws_alloc(src, findings)
        check_omp_alloc(src, findings)
        check_memory_order(src, findings)
        check_metric_names(src, findings)
    check_failpoints(sources, readme, findings)
    check_ws_twins(sources, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"bmh_lint: {len(findings)} finding(s) in "
              f"{len(sources)} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
