#!/usr/bin/env python3
"""Project lint pass: rules clang-tidy cannot express, plus a clang-tidy
driver when a binary is available.

Rules (see DESIGN.md "Static analysis & lock discipline"):

  naked-mutex           std::mutex / std::condition_variable / std::lock_guard
                        / std::unique_lock / std::scoped_lock are banned
                        outside src/common/thread_annotations.h; use the
                        annotated Mutex / MutexLock / CondVar wrappers so the
                        clang thread-safety analysis sees every lock.

  ts-suppression        SCHEMBLE_NO_THREAD_SAFETY_ANALYSIS (or the raw
                        attribute) must not appear outside
                        thread_annotations.h: the analysis is satisfied, not
                        silenced.

  hot-path              Inside a SCHEMBLE_HOT function body, heap-allocation
                        expressions (new / make_unique / make_shared /
                        malloc) are banned outright, and container-growth
                        calls (push_back / resize / reserve / ...) are only
                        allowed when the function routes growth through the
                        repo's grow-event telemetry (ResizeTracked / GrowTo /
                        an explicit grow_events increment) or the line
                        carries `// hot-ok: <reason>`.

  fp-determinism        src/ is golden-pinned (bit-identical metrics across
                        compilers at -ffp-contract=off), so fused-multiply-
                        add intrinsics, FP_CONTRACT pragmas, fast-math hints
                        and nondeterministic parallel reductions are banned.

  policy-serialization  Inside src/runtime/, calls to the stateful
                        ServingPolicy entry point ->OnArrival must carry a
                        `// serialized(mu_)` marker on the same or the
                        preceding line, documenting that the call is made
                        under the domain mutex. Planning goes through the
                        const PlanOnView / CreatePlanState path, off-lock.

  domain-crossing       Inside src/runtime/, calls into a scheduler domain's
                        inbox surface (.PushRouted on an object) must carry
                        a `// crosses(domain)` marker on the same or the
                        preceding line. The arrival pump is the only code
                        that calls into a domain from outside, through this
                        inbox entry point and the published load atomics,
                        never through a domain's mutex; the marker makes
                        every crossing grep-able and forces any new
                        cross-domain traffic through an audited surface.

  arrival-pump          Inside src/runtime/, the body of any ArrivalPump*
                        function may only use the domain inbox surface and
                        published atomics: every mutex primitive —
                        MutexLock, Mutex declarations, .Lock()/.Unlock()/
                        .TryLock(), guard .Acquire()/.Release(), CV waits/
                        notifies, or touching a `mu_` member — is an error
                        with NO marker escape. The arrival pipeline's whole
                        point is that ingest never contends on a domain
                        mutex; code that needs one belongs in the domain's
                        admitter, not the pump.

  batch-workspace       Inside src/runtime/, constructing a TaskBatch must
                        carry a `// batch-workspace` marker on the same or
                        the preceding line: worker loops reuse ONE
                        per-worker workspace (reserved to the batch cap,
                        growth routed through grow_events + ScopedGrowGuard)
                        so the coalescing drain never heap-allocates per
                        batch. Pointer/reference uses are free — passing
                        the workspace around is the approved pattern.

  timed-wait            Inside src/runtime/, every timed wait must end when
                        its virtual deadline passes. Raw sleep_for /
                        sleep_until are banned (sleep through Clock). A
                        CondVar WaitFor's duration must be built by
                        RealDuration: the argument calls it, or names a
                        variable the file initializes from an expression
                        that calls it. A thread spawned from a lambda
                        (std::thread / std::jthread construction or
                        .emplace_back of a lambda) must call
                        SetExactTimerSlack() as its first statement, or the
                        default 50 us timer slack stretches every wait.
                        No marker escape.

  stress-rng            Inside src/stress/ and tests/stress/, rand() /
                        std::random_device / std::mt19937 (and friends) are
                        banned: the stress harness's replay-from-seed
                        guarantee holds only while every random draw flows
                        through the one Lcg whose whole state is the printed
                        seed. Hidden entropy sources would make a nightly
                        failure unreproducible.

  blocking-under-lock   Inside src/, blocking calls — queue operations that
                        can wait (Push / PushAll / Pop / PopN /
                        CloseAndDrain), clock sleeps (SleepUntil /
                        sleep_for / sleep_until) and condition-variable
                        waits on a DIFFERENT mutex — are banned inside a
                        MutexLock scope or a SCHEMBLE_REQUIRES function
                        body unless the line (or the preceding one) carries
                        `// blocking-ok: <reason>`. Waiting on the mutex the
                        scope itself holds is the normal CV pattern and is
                        always allowed; a MutexLock guard's Release() /
                        Acquire() windows suspend the rule. Holding a lock
                        across a blocking call is how lock-order cycles
                        (and priority inversions) are born; the runtime
                        plans off-lock by design.

  relaxed-atomic        Inside src/, std::memory_order_relaxed requires a
                        `// relaxed-ok: <reason>` marker on the same line
                        or above the contiguous block of relaxed lines it
                        covers. Relaxed loads/stores are correct for
                        monotonic telemetry counters and advisory load
                        hints, and subtly wrong nearly everywhere else; the
                        marker records which case the author claims.

  atomic-double         Inside src/, std::atomic<double> is banned unless
                        the line (or the preceding one) carries
                        `// atomic-double-ok: <reason>`. Its fetch_add is a
                        compare-exchange loop that retries under
                        contention; accumulate into a per-thread shard and
                        merge after the threads join (MetricSink).

  backlog-pricing       Inside src/, calling BacklogUs( is an error outside
                        src/models/model_profile.* (where it is defined)
                        and src/serving/placement.* (the one availability
                        projection both servers place tasks with). No
                        marker escape: a second projection would let a
                        policy's estimate and the placement that follows it
                        drift apart.

  lock-rank             Every Mutex declared inside src/ must place itself
                        in the global rank table: the declaration (or its
                        next line) names a LockRank::k* constant, or
                        carries `// ranked: <where>` when the rank is a
                        constructor parameter (MpmcQueue). The rule also
                        cross-checks the three copies of the rank table —
                        the LockRank enum (src/common/lock_order.h), the
                        acquired_after anchor chain
                        (src/common/thread_annotations.h) and the DESIGN.md
                        table — for identical order, so they cannot drift
                        apart silently.

Exit status is non-zero when any rule fires or clang-tidy (when run)
reports a diagnostic. Run from the repo root, or pass --repo.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

# thread_annotations.h implements the annotated primitives over the naked
# ones; lock_order.h implements the lock-order validator, which cannot be
# built on the Mutex it validates.
LINT_EXEMPT = {os.path.join("src", "common", "thread_annotations.h"),
               os.path.join("src", "common", "lock_order.h")}

# Deliberate-violation snippets driven by tests/static/lint_fixtures_test.py,
# which lints each one under its declared `// lint-path:` and asserts the
# declared rules fire. Linted there, never as part of the real tree.
LINT_FIXTURES_DIR = os.path.join("tests", "static", "lint_fixtures")

NAKED_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable|condition_variable_any|lock_guard|unique_lock|"
    r"scoped_lock)\b")

TS_SUPPRESSION_RE = re.compile(
    r"SCHEMBLE_NO_THREAD_SAFETY_ANALYSIS|no_thread_safety_analysis")

HOT_ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()|"  # `new T`; placement new `new (buf)` is alloc-free
    r"\bstd::make_unique\b|\bstd::make_shared\b|"
    r"\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(")

HOT_GROWTH_RE = re.compile(
    r"[.>](push_back|emplace_back|resize|reserve|insert|assign|append|"
    r"emplace)\s*\(")

GROWTH_TRACKED_RE = re.compile(r"grow_events|ResizeTracked|GrowTo")

HOT_OK_RE = re.compile(r"//\s*hot-ok:")

POLICY_STATEFUL_RE = re.compile(r"->\s*OnArrival\s*\(")

SERIALIZED_OK_RE = re.compile(r"//\s*serialized\(mu_\)")

# Calls on an object (not declarations/definitions, which use `::` or a
# bare name) into a scheduler domain's cross-domain inbox surface.
DOMAIN_CROSSING_RE = re.compile(r"(->|\.)\s*PushRouted\s*\(")

CROSSES_OK_RE = re.compile(r"//\s*crosses\(domain\)")

# Signature line of an arrival-pump function (the trace-ingest fast path).
ARRIVAL_PUMP_SIG_RE = re.compile(r"\bArrivalPump\w*\s*\(")

# Mutex primitives an arrival pump must never touch: guard construction,
# Mutex declarations, lock/unlock calls, guard re-lock windows, CV
# wait/notify, or a `mu_` member. Pumps talk to domains exclusively
# through the inbox surface and published atomics.
ARRIVAL_PUMP_MUTEX_RE = re.compile(
    r"\bMutexLock\b|\bMutex\b|\bmu_\b|"
    r"[.>](Lock|TryLock|Unlock|Acquire|Release|Wait|WaitFor|"
    r"NotifyOne|NotifyAll)\s*\(")

# Raw OS sleeps: runtime code sleeps through Clock, whose SteadyClock skips
# waits that have already ended.
RAW_SLEEP_RE = re.compile(r"\bsleep_for\s*\(|\bsleep_until\s*\(")

TIMED_WAIT_RE = re.compile(r"[.>]WaitFor\s*\(")

# The one virtual-to-real conversion (simcore/clock.h).
REAL_DURATION_RE = re.compile(r"\bRealDuration\s*\(")

# A variable initialized from an expression: `name = expr;` or
# `name{expr};` / `name(expr);`. A lookahead, so overlapping candidates
# (a function name swallowing the declarations after it) all match.
INIT_RE = re.compile(r"(?=\b(\w+)\s*(?:=\s*|[({])([^;]*);)")

# A lambda handed to a new thread: std::thread / std::jthread construction
# (named or temporary) or an emplace_back into a thread container.
THREAD_SPAWN_RE = re.compile(
    r"(?:\bstd::j?thread\s*(?:\w+\s*)?[({]|"
    r"[.>]emplace_back\s*\()\s*\[")

SLACK_FIRST_RE = re.compile(r"^(?:\w+::)*SetExactTimerSlack\s*\(\s*\)$")

# A TaskBatch object being constructed (declaration-with-name or a
# temporary). Pointer/reference parameters (`TaskBatch*`, `TaskBatch&`)
# deliberately do not match: passing the reusable workspace around is the
# approved pattern.
BATCH_CTOR_RE = re.compile(r"\bTaskBatch\s+\w+|\bTaskBatch\s*[({]")

BATCH_OK_RE = re.compile(r"//\s*batch-workspace")

# Entropy sources that would break seed-replayability in the stress
# harness. `\brand\s*\(` catches C rand() without matching srand/strtoull;
# the std:: engines and distributions cover <random>.
STRESS_RNG_RE = re.compile(
    r"(?<![\w:])rand\s*\(|\bsrand\s*\(|"
    r"\bstd::(random_device|mt19937(_64)?|minstd_rand0?|ranlux\w+|"
    r"knuth_b|default_random_engine)\b")

# Calls that can block the calling thread: queue operations that wait for
# space/items, clock sleeps, and CV waits. Try* variants deliberately do
# not match (the [.>] anchor sits right before the name).
BLOCKING_CALL_RE = re.compile(
    r"[.>](PushAll|Push|PopN|Pop|CloseAndDrain|SleepUntil)\s*\(|"
    r"\bsleep_for\s*\(|\bsleep_until\s*\(")

# A CV wait and the mutex expression it waits on (first argument).
CV_WAIT_RE = re.compile(r"[.>](?:WaitFor|Wait)\s*\(\s*&?\s*([A-Za-z_][\w.]*)")

BLOCKING_OK_RE = re.compile(r"//\s*blocking-ok:")

# `MutexLock guard(&expr)` / `MutexLock guard{&expr}`: opens a locked
# region over `expr` until the enclosing brace closes.
MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+(\w+)\s*[({]\s*&\s*([\w.>-]*\w)")

# SCHEMBLE_REQUIRES(mu_) on a function whose body follows inline: the body
# is a locked region over every listed mutex.
REQUIRES_RE = re.compile(r"SCHEMBLE_REQUIRES\s*\(([^)]*)\)")

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")

RELAXED_OK_RE = re.compile(r"//\s*relaxed-ok:")

ATOMIC_DOUBLE_RE = re.compile(r"\bstd::atomic\s*<\s*(?:long\s+)?double\s*>")

ATOMIC_DOUBLE_OK_RE = re.compile(r"//\s*atomic-double-ok:")

# A Mutex being declared (member or local). MutexLock, Mutex:: scope uses,
# and pointer/reference parameters deliberately do not match.
MUTEX_DECL_RE = re.compile(r"\bMutex\s+\w+\s*[;({=]|\bMutex\s+\w+\s+SCHEMBLE")

RANKED_OK_RE = re.compile(r"//\s*ranked:")

LOCK_RANK_USE_RE = re.compile(r"\bLockRank::k\w+")

BACKLOG_CALL_RE = re.compile(r"\bBacklogUs\s*\(")

# The batch latency model defines the backlog price; the placement module
# is the one projection that applies it.
BACKLOG_PRICING_HOMES = (os.path.join("src", "models", "model_profile."),
                         os.path.join("src", "serving", "placement."))

FP_BANNED = [
    (re.compile(r"\bstd::fmaf?\b|\b__builtin_fmaf?\b"),
     "fused multiply-add breaks the -ffp-contract=off bit-stability pin"),
    (re.compile(r"FP_CONTRACT"),
     "FP_CONTRACT pragma overrides the project-wide -ffp-contract=off"),
    (re.compile(r"ffast-math|funsafe-math"),
     "fast-math flags break bit-identical golden metrics"),
    (re.compile(r"\bstd::reduce\b|\bstd::transform_reduce\b|"
                r"std::execution::par"),
     "unordered reductions are nondeterministic; accumulate left-to-right"),
]


def strip_comments_and_strings(line):
    """Blanks out string/char literals and comments for token scans. Keeps
    the line length stable so column hints survive. Crude (no multi-line
    awareness) but sufficient for this codebase's style."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            out.append(" " if c != in_str else c)
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
        elif c == "/" and i + 1 < n and line[i + 1] in "/*":
            break  # rest of line is (or starts) a comment
        else:
            out.append(c)
        i += 1
    return "".join(out)


def find_blocking_under_lock(lines, stripped):
    """Yields (line_number, message) for blocking calls made while a lock
    is statically known to be held: inside a `MutexLock` guard scope
    (minus its Release()/Acquire() windows) or inside the inline body of a
    SCHEMBLE_REQUIRES function. CV waits on a mutex the enclosing region
    itself holds are the normal condition-variable pattern and never
    flagged. Line-based with brace tracking, like the rest of this linter:
    crude but sufficient for the project style."""
    scopes = []  # {kind, var, mutexes, depth, active}
    pending_requires = None  # mutexes awaiting their body's opening brace
    depth = 0
    for i, code in enumerate(stripped):
        raw = lines[i]
        line_no = i + 1

        m = REQUIRES_RE.search(code)
        if m:
            mutexes = [a.strip().lstrip("&!") for a in m.group(1).split(",")]
            pending_requires = [mu for mu in mutexes if mu]

        # Guard declarations open a scope at the depth that encloses them.
        gm = MUTEXLOCK_RE.search(code)
        if gm:
            at = gm.start()
            local = depth + code[:at].count("{") - code[:at].count("}")
            scopes.append({"kind": "guard", "var": gm.group(1),
                           "mutexes": [gm.group(2)], "depth": local,
                           "active": True})

        for scope in scopes:
            if scope["kind"] != "guard":
                continue
            if re.search(rf"\b{re.escape(scope['var'])}\s*\.\s*Release\s*\(",
                         code):
                scope["active"] = False
            if re.search(rf"\b{re.escape(scope['var'])}\s*\.\s*Acquire\s*\(",
                         code):
                scope["active"] = True

        # Flag blocking calls visible in any active region. The guard's own
        # declaration line cannot also be a blocking call site.
        held = [mu for s in scopes if s["active"] for mu in s["mutexes"]]
        if held and BLOCKING_CALL_RE.search(code) is None and \
                CV_WAIT_RE.search(code) is None:
            pass  # fast path: nothing blocking on this line
        elif held:
            prev = lines[i - 1] if i >= 1 else ""
            if not (BLOCKING_OK_RE.search(raw) or BLOCKING_OK_RE.search(prev)):
                cv = CV_WAIT_RE.search(code)
                if cv and cv.group(1) in held:
                    pass  # waiting on the held mutex: the CV pattern
                elif BLOCKING_CALL_RE.search(code) or cv:
                    what = (BLOCKING_CALL_RE.search(code) or cv).group(0)
                    yield line_no, (
                        f"blocking call `{what.strip()}` while holding "
                        f"{', '.join(held)}; blocking under a lock invites "
                        "lock-order cycles — move it off-lock (snapshot/"
                        "plan/commit) or justify with "
                        "`// blocking-ok: <reason>`")

        # Brace accounting closes guard scopes and opens REQUIRES bodies.
        for ch in code:
            if ch == "{":
                depth += 1
                if pending_requires is not None:
                    scopes.append({"kind": "requires", "var": None,
                                   "mutexes": pending_requires,
                                   "depth": depth, "active": True})
                    pending_requires = None
            elif ch == "}":
                depth -= 1
                scopes = [s for s in scopes if s["depth"] <= depth]
            elif ch == ";" and pending_requires is not None:
                pending_requires = None  # declaration only, no inline body


def call_arguments(code, open_paren):
    """Splits the argument list of the call whose '(' sits at `open_paren`
    in `code` into top-level argument strings. Returns None when the
    parentheses never close."""
    depth = 0
    args = []
    start = open_paren + 1
    for k in range(open_paren, len(code)):
        c = code[k]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(code[start:k])
                return [a.strip() for a in args]
        elif c == "," and depth == 1:
            args.append(code[start:k])
            start = k + 1
    return None


def find_timed_wait_violations(stripped):
    """Yields (line_number, message) for waits in runtime code that could
    outlive their virtual deadline: raw OS sleeps, CondVar WaitFor calls
    whose duration does not come from RealDuration, and thread spawns whose
    lambda does not set exact timer slack first."""
    code = "\n".join(stripped)

    def line_of(pos):
        return code.count("\n", 0, pos) + 1

    for m in RAW_SLEEP_RE.finditer(code):
        yield line_of(m.start()), (
            f"raw `{m.group(0).strip()}` in runtime code; sleep through "
            "Clock::SleepUntil / SleepFor, which converts to real "
            "nanoseconds and skips waits that have already ended")

    helper_built = {m.group(1) for m in INIT_RE.finditer(code)
                    if REAL_DURATION_RE.search(m.group(2))}
    for m in TIMED_WAIT_RE.finditer(code):
        args = call_arguments(code, m.end() - 1)
        duration = args[1] if args is not None and len(args) > 1 else ""
        if REAL_DURATION_RE.search(duration) or duration in helper_built:
            continue
        yield line_of(m.start()), (
            f"WaitFor duration `{duration or '?'}` is not built by "
            "RealDuration (simcore/clock.h); convert the virtual wait "
            "there, directly or through a variable initialized from it")

    for m in THREAD_SPAWN_RE.finditer(code):
        body = code.find("{", m.end())
        end = code.find(";", body) if body >= 0 else -1
        first = code[body + 1:end].strip() if end >= 0 else ""
        if SLACK_FIRST_RE.match(first):
            continue
        yield line_of(m.start()), (
            "thread spawned without SetExactTimerSlack() as the lambda's "
            "first statement; the default 50 us timer slack makes every "
            "timed wait on the thread overrun its deadline")


def find_marked_function_bodies(text, marker_re):
    """Yields (start_line, body_lines) for every function whose signature
    line matches `marker_re`. The body is delimited by the first '{' after
    the marker and its brace match (code stripped of comments/strings
    line-by-line); a ';' before any '{' means the match was a declaration
    (or a plain call) with no inline body, which is skipped."""
    lines = text.split("\n")
    stripped = [strip_comments_and_strings(l) for l in lines]
    for idx, raw in enumerate(stripped):
        if not marker_re.search(raw):
            continue
        depth = 0
        body = []
        started = False
        declaration_only = False
        for j in range(idx, len(lines)):
            for ch in stripped[j]:
                if ch == "{":
                    depth += 1
                    started = True
                elif ch == "}":
                    depth -= 1
                elif ch == ";" and not started:
                    declaration_only = True
                    break
            if declaration_only:
                break
            body.append(j)
            if started and depth <= 0:
                break
        if started and not declaration_only:
            yield idx + 1, body


HOT_MARKER_RE = re.compile(r"SCHEMBLE_HOT")


def find_hot_function_bodies(text):
    """Yields (start_line, body_lines) for every SCHEMBLE_HOT function."""
    yield from find_marked_function_bodies(text, HOT_MARKER_RE)


class Linter:
    def __init__(self, repo):
        self.repo = repo
        self.errors = []

    def error(self, path, line, rule, message):
        self.errors.append(f"{path}:{line}: [{rule}] {message}")

    def lint_file(self, rel):
        if rel.startswith(LINT_FIXTURES_DIR + os.sep):
            return
        path = os.path.join(self.repo, rel)
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            self.error(rel, 0, "io", f"unreadable: {e}")
            return
        lines = text.split("\n")
        exempt = rel in LINT_EXEMPT

        if not exempt:
            for i, raw in enumerate(lines, 1):
                code = strip_comments_and_strings(raw)
                m = NAKED_MUTEX_RE.search(code)
                if m:
                    self.error(rel, i, "naked-mutex",
                               f"use the annotated primitives from "
                               f"common/thread_annotations.h instead of "
                               f"{m.group(0)}")
                if TS_SUPPRESSION_RE.search(code):
                    self.error(rel, i, "ts-suppression",
                               "thread-safety analysis must not be "
                               "suppressed outside thread_annotations.h")

        if rel.startswith("src" + os.sep):
            for i, raw in enumerate(lines, 1):
                code = strip_comments_and_strings(raw)
                for pattern, why in FP_BANNED:
                    if pattern.search(code):
                        self.error(rel, i, "fp-determinism", why)
                if ATOMIC_DOUBLE_RE.search(code):
                    prev = lines[i - 2] if i >= 2 else ""
                    if not (ATOMIC_DOUBLE_OK_RE.search(raw) or
                            ATOMIC_DOUBLE_OK_RE.search(prev)):
                        self.error(rel, i, "atomic-double",
                                   "std::atomic<double> fetch_add is a CAS "
                                   "loop that retries under contention; "
                                   "accumulate per thread and merge after "
                                   "join, or mark `// atomic-double-ok: "
                                   "<reason>`")
                if (BACKLOG_CALL_RE.search(code) and
                        not rel.startswith(BACKLOG_PRICING_HOMES)):
                    self.error(rel, i, "backlog-pricing",
                               "BacklogUs called outside the placement "
                               "module; project availability and place "
                               "tasks through serving/placement.h so one "
                               "rule prices every backlog")

        if rel.startswith("src" + os.sep) and not exempt:
            stripped = [strip_comments_and_strings(l) for l in lines]
            for line_no, message in find_blocking_under_lock(lines, stripped):
                self.error(rel, line_no, "blocking-under-lock", message)
            for i, raw in enumerate(lines, 1):
                code = strip_comments_and_strings(raw)
                if RELAXED_RE.search(code):
                    # A marker covers its own line plus the contiguous
                    # block of relaxed lines below it (counter banks like
                    # StatsSnapshot would need a marker per line otherwise,
                    # fighting the 80-column format check).
                    covered = RELAXED_OK_RE.search(raw) is not None
                    j = i - 2
                    gap = 0
                    while not covered and j >= 0:
                        if RELAXED_OK_RE.search(lines[j]):
                            covered = True
                        elif RELAXED_RE.search(
                                strip_comments_and_strings(lines[j])):
                            gap = 0
                            j -= 1
                        elif gap == 0:
                            # One non-relaxed line is tolerated inside a
                            # block: multi-line statements put the operand
                            # and the memory_order on different lines.
                            gap = 1
                            j -= 1
                        else:
                            break
                    if not covered:
                        self.error(rel, i, "relaxed-atomic",
                                   "memory_order_relaxed without a "
                                   "`// relaxed-ok: <reason>` marker on this "
                                   "or the preceding line; relaxed ordering "
                                   "is right for monotonic telemetry and "
                                   "advisory hints only — say which this is")
                if MUTEX_DECL_RE.search(code):
                    nxt = lines[i] if i < len(lines) else ""
                    prev = lines[i - 2] if i >= 2 else ""
                    if not (LOCK_RANK_USE_RE.search(code) or
                            LOCK_RANK_USE_RE.search(
                                strip_comments_and_strings(nxt)) or
                            RANKED_OK_RE.search(raw) or
                            RANKED_OK_RE.search(nxt) or
                            RANKED_OK_RE.search(prev)):
                        self.error(rel, i, "lock-rank",
                                   "Mutex declared without a LockRank::k* "
                                   "on this or the next line; place the "
                                   "lock in the global rank table "
                                   "(src/common/lock_order.h) or mark "
                                   "`// ranked: <where>` when the rank is "
                                   "a constructor parameter")

        if rel.startswith(os.path.join("src", "runtime") + os.sep):
            for i, raw in enumerate(lines, 1):
                code = strip_comments_and_strings(raw)
                if not POLICY_STATEFUL_RE.search(code):
                    continue
                prev = lines[i - 2] if i >= 2 else ""
                if SERIALIZED_OK_RE.search(raw) or SERIALIZED_OK_RE.search(prev):
                    continue
                self.error(rel, i, "policy-serialization",
                           "OnArrival called from runtime code without a "
                           "`// serialized(mu_)` marker; the call must be "
                           "under the domain mutex (add the marker on this "
                           "or the preceding line)")
            for i, raw in enumerate(lines, 1):
                code = strip_comments_and_strings(raw)
                if not DOMAIN_CROSSING_RE.search(code):
                    continue
                prev = lines[i - 2] if i >= 2 else ""
                if CROSSES_OK_RE.search(raw) or CROSSES_OK_RE.search(prev):
                    continue
                self.error(rel, i, "domain-crossing",
                           "call into a scheduler domain's inbox surface "
                           "without a `// crosses(domain)` marker on this "
                           "or the preceding line; cross-domain traffic "
                           "must go through the audited inbox entry points "
                           "and be grep-able")
            for i, raw in enumerate(lines, 1):
                code = strip_comments_and_strings(raw)
                if not BATCH_CTOR_RE.search(code):
                    continue
                if "struct TaskBatch" in code:
                    continue  # the type's own definition
                prev = lines[i - 2] if i >= 2 else ""
                if BATCH_OK_RE.search(raw) or BATCH_OK_RE.search(prev):
                    continue
                self.error(rel, i, "batch-workspace",
                           "TaskBatch constructed without a "
                           "`// batch-workspace` marker on this or the "
                           "preceding line; worker loops must reuse one "
                           "per-worker workspace (reserved to the batch "
                           "cap, growth tracked by grow_events) instead of "
                           "allocating a batch per coalescing drain")
            stripped = [strip_comments_and_strings(l) for l in lines]
            for line_no, message in find_timed_wait_violations(stripped):
                self.error(rel, line_no, "timed-wait", message)
            for start, body in find_marked_function_bodies(
                    text, ARRIVAL_PUMP_SIG_RE):
                for j in body:
                    code = strip_comments_and_strings(lines[j])
                    m = ARRIVAL_PUMP_MUTEX_RE.search(code)
                    if m:
                        self.error(rel, j + 1, "arrival-pump",
                                   f"mutex primitive `{m.group(0).strip()}` "
                                   "inside an arrival-pump body (starting "
                                   f"at line {start}); pumps may only use "
                                   "the domain inbox surface and published "
                                   "atomics — there is no marker escape, "
                                   "move the locking into the domain's "
                                   "admitter instead")

        if rel.startswith((os.path.join("src", "stress") + os.sep,
                           os.path.join("tests", "stress") + os.sep)):
            for i, raw in enumerate(lines, 1):
                code = strip_comments_and_strings(raw)
                m = STRESS_RNG_RE.search(code)
                if m:
                    self.error(rel, i, "stress-rng",
                               f"{m.group(0).strip()} in the stress harness "
                               "breaks replay-from-seed; draw through the "
                               "scenario's Lcg (stress/lcg.h) instead")

        for start, body in find_hot_function_bodies(text):
            body_text = "\n".join(strip_comments_and_strings(lines[j])
                                  for j in body)
            tracked = GROWTH_TRACKED_RE.search(body_text) is not None
            for j in body:
                raw = lines[j]
                if HOT_OK_RE.search(raw):
                    continue
                code = strip_comments_and_strings(raw)
                if HOT_ALLOC_RE.search(code):
                    self.error(rel, j + 1, "hot-path",
                               "heap allocation in a SCHEMBLE_HOT function "
                               "(add `// hot-ok: <reason>` only if truly "
                               "unavoidable)")
                elif HOT_GROWTH_RE.search(code) and not tracked:
                    self.error(rel, j + 1, "hot-path",
                               "untracked container growth in a SCHEMBLE_HOT "
                               "function (body starting at line "
                               f"{start}): route it through ResizeTracked / "
                               "GrowTo / a grow_events counter")


ENUM_RANK_RE = re.compile(
    r"enum class LockRank[^{]*\{(.*?)\}", re.S)

ANCHOR_RE = re.compile(
    r"inline Mutex (\w+)_anchor"
    r"(?:\s+SCHEMBLE_ACQUIRED_AFTER\((\w+)_anchor\))?\s*\{\s*"
    r"LockRank::(k\w+)", re.S)

NUM_RANKS_RE = re.compile(r"kNumLockRanks\s*=\s*(\d+)")


def check_rank_table(repo):
    """Cross-checks the three copies of the global lock-rank table: the
    LockRank enum (source of truth), the acquired_before/after anchor
    chain the static analysis reads, and the human-facing DESIGN.md table.
    Returns a list of error strings; empty means consistent."""
    enum_path = os.path.join("src", "common", "lock_order.h")
    chain_path = os.path.join("src", "common", "thread_annotations.h")
    design_path = "DESIGN.md"
    errors = []

    def read(rel):
        try:
            with open(os.path.join(repo, rel), encoding="utf-8") as f:
                return f.read()
        except OSError as e:
            errors.append(f"{rel}:0: [lock-rank] unreadable: {e}")
            return ""

    enum_text = read(enum_path)
    m = ENUM_RANK_RE.search(enum_text)
    enum_ranks = []
    if not m:
        errors.append(f"{enum_path}:0: [lock-rank] LockRank enum not found")
    else:
        enum_ranks = re.findall(r"\b(k\w+)\s*=\s*\d+", m.group(1))
    n = NUM_RANKS_RE.search(enum_text)
    if n and enum_ranks and int(n.group(1)) != len(enum_ranks):
        errors.append(
            f"{enum_path}:0: [lock-rank] kNumLockRanks = {n.group(1)} but "
            f"the enum lists {len(enum_ranks)} ranks")

    chain_text = read(chain_path)
    chain = ANCHOR_RE.findall(chain_text)
    chain_ranks = [rank for _, _, rank in chain]
    if enum_ranks and chain_ranks != enum_ranks:
        errors.append(
            f"{chain_path}:0: [lock-rank] anchor chain order "
            f"{chain_ranks} != LockRank enum order {enum_ranks}")
    for idx, (name, after, _) in enumerate(chain):
        want = chain[idx - 1][0] if idx > 0 else None
        if (after or None) != want:
            errors.append(
                f"{chain_path}:0: [lock-rank] anchor {name}_anchor is "
                f"ACQUIRED_AFTER({after or 'nothing'}_anchor); the chain "
                f"must follow the enum, expected "
                f"{want + '_anchor' if want else 'no predecessor'}")

    design_ranks = [r for line in read(design_path).split("\n")
                    if line.lstrip().startswith("|")
                    for r in re.findall(r"LockRank::(k\w+)", line)]
    if enum_ranks and design_ranks != enum_ranks:
        errors.append(
            f"{design_path}:0: [lock-rank] rank-table rows {design_ranks} "
            f"!= LockRank enum order {enum_ranks}; update the DESIGN.md "
            "\"Static analysis & lock discipline\" table")
    return errors


def repo_sources(repo, roots=("src", "tests", "bench", "examples")):
    out = []
    for root in roots:
        top = os.path.join(repo, root)
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    out.append(os.path.relpath(os.path.join(dirpath, name),
                                               repo))
    return sorted(out)


def changed_sources(repo, base):
    """Fast path: only files that differ from `base` (falls back to the
    full set when git fails, e.g. a shallow clone without the base ref)."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", base, "--"],
            cwd=repo, capture_output=True, text=True, check=True).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    return [f for f in diff.split("\n")
            if f.endswith((".h", ".cc")) and
            f.split(os.sep, 1)[0] in ("src", "tests", "bench", "examples")]


def run_clang_tidy(repo, build_dir, files, jobs):
    """Runs clang-tidy over the given .cc files via compile_commands.json.
    Returns (ran, ok). Missing binary or database => skipped (ran=False):
    the container may not ship clang-tidy; CI always does."""
    binary = None
    for name in ("clang-tidy", "clang-tidy-20", "clang-tidy-19",
                 "clang-tidy-18", "clang-tidy-17", "clang-tidy-16",
                 "clang-tidy-15", "clang-tidy-14"):
        binary = shutil.which(name)
        if binary:
            break
    cdb = os.path.join(build_dir, "compile_commands.json")
    if not binary:
        print("lint: clang-tidy not found; skipping the tidy pass "
              "(CI runs it)")
        return False, True
    if not os.path.exists(cdb):
        print(f"lint: {cdb} not found; configure with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON to run clang-tidy")
        return False, True
    with open(cdb, encoding="utf-8") as f:
        known = {entry["file"] for entry in json.load(f)}
    targets = [f for f in files
               if f.endswith(".cc") and f.startswith("src" + os.sep) and
               os.path.join(repo, f) in known]
    if not targets:
        print("lint: no clang-tidy targets in scope")
        return True, True
    ok = True
    # Batch to keep command lines sane; clang-tidy parallelism is per-file.
    for i in range(0, len(targets), max(1, jobs)):
        batch = targets[i:i + max(1, jobs)]
        procs = [subprocess.Popen(
            [binary, "-p", build_dir, "--quiet", os.path.join(repo, f)],
            cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for f in batch]
        for f, proc in zip(batch, procs):
            out, err = proc.communicate()
            if proc.returncode != 0 or "warning:" in out or "error:" in out:
                ok = False
                sys.stdout.write(out)
                sys.stderr.write(err)
                print(f"lint: clang-tidy failed on {f}")
    return True, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=os.getcwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--build-dir", default="build",
                        help="build dir holding compile_commands.json")
    parser.add_argument("--clang-tidy", action="store_true",
                        help="also run clang-tidy over src/ (skipped with a "
                             "notice when no binary is installed)")
    parser.add_argument("--changed-only", metavar="BASE", default=None,
                        help="lint only files changed vs the given git ref "
                             "(CI fast path); falls back to the full tree")
    parser.add_argument("-j", "--jobs", type=int,
                        default=os.cpu_count() or 4)
    args = parser.parse_args()

    repo = os.path.abspath(args.repo)
    build_dir = args.build_dir
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(repo, build_dir)

    files = None
    if args.changed_only:
        files = changed_sources(repo, args.changed_only)
        if files is None:
            print(f"lint: git diff vs {args.changed_only} failed; "
                  "linting the full tree")
    if files is None:
        files = repo_sources(repo)

    linter = Linter(repo)
    for rel in files:
        linter.lint_file(rel)
    linter.errors.extend(check_rank_table(repo))

    tidy_ok = True
    if args.clang_tidy:
        _, tidy_ok = run_clang_tidy(repo, build_dir, files, args.jobs)

    for e in linter.errors:
        print(e)
    checked = len(files)
    if linter.errors or not tidy_ok:
        print(f"lint: FAILED ({len(linter.errors)} rule violation(s) "
              f"across {checked} file(s)"
              + ("" if tidy_ok else "; clang-tidy reported diagnostics")
              + ")")
        return 1
    print(f"lint: OK ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
