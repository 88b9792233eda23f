"""checks: the pcc_analyze check families over the cppast IR.

Four families (see CONTRIBUTING.md "Concurrency discipline" for the
catalog):

  shared-write              raw stores reaching memory visible to other
                            iterations of a parallel region, including
                            through local pointer aliases and one level of
                            helper-function calls.
  shared-cursor-emission    fetch_add-cursor output loops (direct subscript
                            or via a local index) that bypass emit.hpp.
  workspace-escape          spans/pointers carved from a *locally owned*
                            workspace arena escaping the owning scope;
                            plus workspace mutation inside parallel bodies
                            (a workspace is not thread-safe).
  hygiene                   std::function, allocation, rand/time, and
                            iteration-order-dependent hash traversal inside
                            parallel bodies and registry run_* impls.

Plus the annotation audit: `// lint: private-write(<invariant>)` must carry
non-empty text and anchor a store expression; `// analyze: suppress(check:
reason)` (and the legacy `// lint: allow(rule: reason)`) must carry a
reason and actually suppress something.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import cppast
from cppast import (
    CallExpr,
    Decl,
    FunctionDef,
    Group,
    LambdaExpr,
    LexedFile,
    Store,
    flat_text,
    iter_tokens,
)

# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

# Calls whose lambda arguments run once per index across workers. The value
# is the index of the lambda parameter whose distinct values make plain
# writes disjoint ("owner index"), or None when no such parameter exists
# (par_do halves, frontier pieces that may share a vertex, ...).
PARALLEL_CONTEXTS: dict[str, int | None] = {
    "parallel_for": 0,
    "parallel_do": None,
    "par_do": None,
    "emit_pack": 0,
    "count_then_emit": 0,
    "frontier_edge_for": None,
    "fix_split_pieces": None,
    "add_new_centers": 0,
    "tabulate": 0,
    "map": 0,
    "reduce": 0,
    "reduce_ws": 0,
    "reduce_sum": 0,
    "reduce_sum_ws": 0,
    "reduce_max": 0,
    "reduce_min": 0,
    "scan_exclusive_into": 0,
    "scan_exclusive_span": 0,
    "pack_index_into": 0,
    "pack_into": 0,
    "filter_into": 0,
    "edge_map": None,
}

# The atomics.hpp vocabulary (plus std::atomic member spellings): a store
# expressed through these is disciplined by construction.
ATOMIC_HELPERS = {
    "cas", "write_min", "write_max", "write_once", "read_once",
    "atomic_load", "atomic_store", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "fetch_xor", "compare_exchange_strong",
    "compare_exchange_weak", "exchange", "test_and_set", "store", "load",
}

# Library calls that write through an argument (argument indices listed).
# A call to one of these inside a parallel region is a store to whatever
# the destination argument aliases.
KNOWN_WRITERS: dict[str, tuple[int, ...]] = {
    "memcpy": (0,),
    "memmove": (0,),
    "memset": (0,),
    "copy": (2,),
    "copy_n": (2,),
    "copy_backward": (2,),
    "move_backward": (2,),
    "fill": (0,),
    "fill_n": (0,),
    "iota": (0,),
    "swap": (0, 1),
    "uninitialized_copy": (2,),
    "uninitialized_fill": (0,),
}

ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared", "to_string",
}

ALLOC_METHODS = {"resize", "reserve", "push_back", "emplace_back",
                 "emplace", "insert", "append", "shrink_to_fit"}

RAND_TIME_CALLS = {"rand", "srand", "random", "drand48", "lrand48",
                   "time", "clock", "gettimeofday", "clock_gettime"}

CHECK_NAMES = [
    "shared-write",
    "shared-cursor-emission",
    "workspace-escape",
    "workspace-take-in-parallel",
    "std-function-in-parallel",
    "alloc-in-parallel",
    "rand-time-in-parallel",
    "hash-iteration-order",
    "orphaned-annotation",
    "empty-annotation",
    "unused-suppression",
]

# Legacy parallel_lint rule names accepted in `lint: allow(...)` markers.
LEGACY_RULE_MAP = {
    "raw-captured-write": "shared-write",
    "shared-cursor-emission": "shared-cursor-emission",
    "std-function-in-parallel": "std-function-in-parallel",
    "rand-in-parallel": "rand-time-in-parallel",
}

MARKER_PRIVATE = re.compile(r"lint:\s*private-write\s*\(([^)]*)\)")
MARKER_SUPPRESS = re.compile(
    r"(?:analyze:\s*suppress|lint:\s*allow)\s*\(\s*([a-z-]+)\s*:?([^)]*)\)")


# ---------------------------------------------------------------------------
# Findings & file context
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    path: str
    line: int
    col: int
    check: str
    message: str
    function: str = ""
    region_line: int = 0
    suppressed: bool = False
    suppress_reason: str = ""

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: warning: "
                f"[{self.check}] {self.message}")


@dataclass
class Annotation:
    line: int
    reason: str
    kind: str  # 'private-write' | 'suppress'
    check: str = ""  # suppress target
    used: bool = False
    anchored: bool = False


@dataclass
class FileContext:
    lf: LexedFile
    functions: list[FunctionDef]
    private_write: dict[int, Annotation] = field(default_factory=dict)
    suppress: dict[int, list[Annotation]] = field(default_factory=dict)
    all_store_lines: set[int] = field(default_factory=set)

    def private_write_at(self, line: int) -> Annotation | None:
        for ln in (line, line - 1):
            a = self.private_write.get(ln)
            if a is not None:
                return a
        return None

    def suppression_at(self, line: int, check: str) -> Annotation | None:
        for ln in (line, line - 1):
            for a in self.suppress.get(ln, ()):
                if a.check == check:
                    return a
        return None


def build_file_context(lf: LexedFile) -> FileContext:
    ctx = FileContext(lf, cppast.find_functions(lf))
    for c in lf.comments:
        m = MARKER_PRIVATE.search(c.text)
        if m:
            ctx.private_write[c.line] = Annotation(
                c.line, m.group(1).strip(), "private-write")
        for m in MARKER_SUPPRESS.finditer(c.text):
            check = m.group(1).strip()
            check = LEGACY_RULE_MAP.get(check, check)
            ctx.suppress.setdefault(c.line, []).append(Annotation(
                c.line, m.group(2).strip(" :"), "suppress", check))
    for s in cppast.find_stores(lf.nodes, skip_lambda_bodies=False):
        ctx.all_store_lines.add(s.line)
    # Known-writer calls and atomic-helper calls also anchor annotations
    # (the annotated "store" may be a memcpy or a CAS loop).
    for call in cppast.find_calls(lf.nodes):
        if call.name in KNOWN_WRITERS or call.name in ATOMIC_HELPERS:
            ctx.all_store_lines.add(call.line)
    return ctx


# ---------------------------------------------------------------------------
# Scopes & regions
# ---------------------------------------------------------------------------


@dataclass
class Region:
    kind: str  # context call name
    lam: LambdaExpr
    owner: str | None  # induction parameter name, if any
    scope_chain: list[dict[str, Decl]]  # outermost-first, excl. lambda
    fn: FunctionDef
    call_line: int
    # names declared inside the region body (locals — includes params)
    locals: dict[str, Decl] = field(default_factory=dict)

    def lookup(self, name: str):
        if name in self.locals:
            return "local", self.locals[name]
        for scope in reversed(self.scope_chain):
            if name in scope:
                return "captured", scope[name]
        return "unknown", None


def _lambda_scope(lam: LambdaExpr) -> dict[str, Decl]:
    scope: dict[str, Decl] = {}
    for p in lam.params:
        scope.setdefault(p.name, p)
    cppast.collect_decls(lam.body, into=scope, skip_lambda_bodies=True)
    for c in lam.captures:
        if c.is_init:
            scope.setdefault(c.name, Decl(c.name, "auto", c.init, lam.line,
                                          lam.col))
    return scope


def find_regions(fn: FunctionDef) -> list[Region]:
    """Parallel regions in a function, including regions nested inside
    other regions' bodies (each gets the full enclosing scope chain)."""
    regions: list[Region] = []
    fn_scope: dict[str, Decl] = {}
    for p in fn.params:
        fn_scope.setdefault(p.name, p)
    cppast.collect_decls(fn.body, into=fn_scope, skip_lambda_bodies=True)

    def scan(siblings: list, chain: list[dict[str, Decl]]) -> None:
        i = 0
        while i < len(siblings):
            x = siblings[i]
            if not x.is_group() and x.kind == "id" and \
                    x.text in PARALLEL_CONTEXTS:
                # template args then an argument list
                j = i + 1
                if j < len(siblings) and not siblings[j].is_group() and \
                        siblings[j].text == "<":
                    depth = 0
                    while j < len(siblings):
                        y = siblings[j]
                        if y.is_group():
                            break
                        if y.text == "<":
                            depth += 1
                        elif y.text == ">":
                            depth -= 1
                            if depth == 0:
                                j += 1
                                break
                        elif y.text == ">>":
                            depth -= 2
                            if depth <= 0:
                                j += 1
                                break
                        elif y.text in (";", "{"):
                            break
                        j += 1
                if j < len(siblings) and siblings[j].is_group() and \
                        siblings[j].opener == "(":
                    owner_idx = PARALLEL_CONTEXTS[x.text]
                    for arg in cppast.split_commas(siblings[j].kids):
                        k = 0
                        while k < len(arg):
                            lam = cppast._lambda_at(arg, k)
                            if lam is not None:
                                owner = None
                                if owner_idx is not None and \
                                        len(lam.params) > owner_idx:
                                    owner = lam.params[owner_idx].name
                                reg = Region(x.text, lam, owner,
                                             list(chain), fn, x.line)
                                reg.locals = _lambda_scope(lam)
                                regions.append(reg)
                                # nested regions inside this body
                                scan(lam.body.kids, chain + [reg.locals])
                                k = lam.end_index
                                continue
                            if arg[k].is_group():
                                scan(arg[k].kids, chain)
                            k += 1
                    i = j + 1
                    continue
            if x.is_group():
                if x.opener == "[":
                    lam = cppast._lambda_at(siblings, i)
                    if lam is not None:
                        # non-region lambda: scan its body in an extended
                        # chain so regions inside helpers are still found
                        scan(lam.body.kids, chain + [_lambda_scope(lam)])
                        i = lam.end_index
                        continue
                scan(x.kids, chain)
            i += 1

    scan(fn.body.kids, [fn_scope])
    return regions


# ---------------------------------------------------------------------------
# Injectivity of index expressions in the owner parameter
# ---------------------------------------------------------------------------


def _strip_casts(nodes: list) -> list:
    """Peel `static_cast<T>(e)`, `T(e)`-style single-group wrappers and
    parentheses down to the underlying expression."""
    while True:
        if len(nodes) == 1 and nodes[0].is_group() and \
                nodes[0].opener == "(":
            nodes = nodes[0].kids
            continue
        # static_cast < T > ( e )  /  size_t ( e )
        if nodes and not nodes[0].is_group() and nodes[0].kind == "id":
            if nodes[-1].is_group() and nodes[-1].opener == "(":
                mid = nodes[1:-1]
                mid_ok = all(
                    (not m.is_group()) and
                    (m.kind in ("id", "num") or
                     m.text in ("<", ">", ">>", "::", "*", "&", ","))
                    for m in mid)
                if mid_ok:
                    nodes = nodes[-1].kids
                    continue
        return nodes


def _split_additive(nodes: list) -> list[tuple[str, list]] | None:
    """Split an expression at top-level + and -; None if other top-level
    operators (besides * inside parts) make the shape unhandled."""
    parts: list[tuple[str, list]] = []
    cur: list = []
    sign = "+"
    for x in nodes:
        if not x.is_group() and x.kind == "punct":
            if x.text in ("+", "-"):
                if cur:
                    parts.append((sign, cur))
                cur = []
                sign = x.text
                continue
            if x.text in ("*", "<<", "::", ".", "->"):
                cur.append(x)
                continue
            return None
        cur.append(x)
    if cur:
        parts.append((sign, cur))
    return parts or None


def _ids_in(nodes: list):
    for t in iter_tokens(nodes):
        if t.kind == "id":
            yield t.text


_VALUE_METHODS = {"size", "empty", "ssize", "length", "count"}


def _pointer_escape(nodes: list, names: set[str]) -> bool:
    """True iff an identifier from `names` appears in pointer-carrying
    position in the expression: the span/pointer itself (bare, `.data()`,
    `.subspan(...)`, `&x[i]`) rather than a value read (`x[i]`,
    `x.size()`), which copies and cannot dangle."""

    def walk(siblings: list) -> bool:
        for i, x in enumerate(siblings):
            if x.is_group():
                if walk(x.kids):
                    return True
                continue
            if x.kind != "id" or x.text not in names:
                continue
            prev = siblings[i - 1] if i > 0 else None
            if prev is not None and not prev.is_group() and \
                    prev.text in (".", "->", "::"):
                continue  # member of some other object sharing the name
            if prev is not None and not prev.is_group() and prev.text == "&":
                return True  # address-of: a pointer even through a subscript
            nxt = siblings[i + 1] if i + 1 < len(siblings) else None
            if nxt is not None and nxt.is_group() and nxt.opener == "[":
                continue  # x[i]: a value read, not the span itself
            if nxt is not None and not nxt.is_group() and \
                    nxt.text in (".", "->"):
                mem = siblings[i + 2] if i + 2 < len(siblings) else None
                if mem is not None and not mem.is_group() and \
                        mem.text in _VALUE_METHODS:
                    continue  # x.size(): a value
            return True
        return False

    return walk(nodes)


_CAST_HEADS = {"static_cast", "const_cast", "reinterpret_cast"}
_INT_TYPE_HEADS = {"int", "unsigned", "long", "short", "signed", "size_t",
                   "ptrdiff_t", "uint32_t", "uint64_t", "int32_t", "int64_t",
                   "uintptr_t", "intptr_t"}


def _is_worker_id_call(nodes: list) -> bool:
    """True iff the expression is exactly a (possibly qualified, possibly
    cast-wrapped) call `worker_id()` — e.g. `worker_id()`,
    `pcc::parallel::worker_id()`, `static_cast<size_t>(worker_id())`.
    NOTE: does not use _strip_casts, which would peel the nullary call
    itself; only recognized cast spellings are descended so `f(worker_id())`
    with an arbitrary `f` is NOT accepted."""
    while True:
        toks = [x for x in nodes if not (not x.is_group() and x.text == "::")]
        if len(toks) == 1 and toks[0].is_group() and toks[0].opener == "(":
            nodes = toks[0].kids
            continue
        if len(toks) < 2:
            return False
        call = toks[-1]
        if not (call.is_group() and call.opener == "(" and
                all(not t.is_group() for t in toks[:-1])):
            return False
        if not call.kids:
            return (toks[-2].text == "worker_id" and
                    all(t.kind == "id" for t in toks[:-1]))
        head = toks[0].text
        if head in _CAST_HEADS or (len(toks) == 2 and
                                   head in _INT_TYPE_HEADS):
            nodes = call.kids
            continue
        return False


def worker_slot_index(sub: list, worker_locals: set[str]) -> bool:
    """True iff the subscript pins the touched cell to the calling worker:
    exactly `worker_id()` or exactly a local initialized from worker_id().
    Distinct workers get distinct slots and a worker re-writing its own
    slot races with nobody, so such stores are per-owner private — the
    per-worker slot pattern (each worker owns the cell at its own
    index). Deliberately narrow: any arithmetic
    around the id (`worker_id() + i`, `base - worker_id()`) can collide
    across workers and stays flagged."""
    if _is_worker_id_call(sub):
        return True
    toks = [x for x in _strip_casts(sub)
            if not (not x.is_group() and x.text == "::")]
    return (len(toks) == 1 and not toks[0].is_group() and
            toks[0].text in worker_locals)


def injective_in_owner(nodes: list, owner: str | None, is_invariant) -> bool:
    """True iff the index expression provably takes distinct values for
    distinct values of `owner` while everything else is loop-invariant:
    `i`, `i ± inv`, `inv ± i`, `i * LIT`, `LIT * i`, `i << LIT`, and sums
    of one such owner term with invariant terms."""
    if owner is None:
        return False
    nodes = _strip_casts(nodes)
    parts = _split_additive(nodes)
    if parts is None:
        return False
    owner_parts = []
    for sign, part in parts:
        # Checked BEFORE stripping: _strip_casts treats the nullary call
        # `worker_id()` itself as a cast-like wrapper and peels it to
        # nothing, which would make the part look vacuously invariant.
        # worker_id() varies per THREAD, not per iteration: an owner term
        # plus a worker offset can collide across workers (wid 0 at i=5 ==
        # wid 1 at i=4), so it is never a loop-invariant offset.
        if "worker_id" in set(_ids_in(part)):
            return False
        part = _strip_casts(part)
        ids = set(_ids_in(part))
        if owner in ids:
            owner_parts.append((sign, part))
        else:
            if not all(is_invariant(n) for n in ids):
                return False
    if len(owner_parts) != 1:
        return False
    _, part = owner_parts[0]
    toks = [x for x in part if not (not x.is_group() and x.text == "::")]
    # bare owner
    if len(toks) == 1 and not toks[0].is_group() and toks[0].text == owner:
        return True
    # owner * LIT | LIT * owner | owner << LIT
    if len(toks) == 3 and all(not t.is_group() for t in toks):
        a, op, b = toks
        if op.text in ("*", "<<"):
            if a.text == owner and b.kind == "num":
                return True
            if op.text == "*" and b.text == owner and a.kind == "num":
                return True
    return False


# ---------------------------------------------------------------------------
# Alias resolution
# ---------------------------------------------------------------------------


@dataclass
class Origin:
    name: str | None  # ultimate base, None if unresolvable
    cat: str  # 'local' | 'captured' | 'unknown'
    decl: Decl | None
    binding: str  # 'inj' | 'inv' | 'other' — offset shape vs owner


def resolve_origin(name: str, region: Region, depth: int = 0) -> Origin:
    cat, decl = region.lookup(name)
    if cat != "local" or decl is None:
        return Origin(name, cat, decl, "inv")
    if not (decl.is_pointer_like() or decl.is_ref()):
        return Origin(name, cat, decl, "inv")
    init = _strip_casts(list(decl.init)) if decl.init else []
    if not init:
        return Origin(name, cat, decl, "inv")
    if depth >= 3:
        return Origin(name, "unknown", decl, "other")

    def invariant(n: str) -> bool:
        return n not in region.locals

    # `&X[e]` → base X offset e
    if not init[0].is_group() and init[0].text == "&":
        rest = init[1:]
        base_tok = rest[0] if rest and not rest[0].is_group() else None
        if base_tok is not None and base_tok.kind == "id" and \
                len(rest) >= 2 and rest[1].is_group() and \
                rest[1].opener == "[":
            inner = resolve_origin(base_tok.text, region, depth + 1)
            idx = rest[1].kids
            if injective_in_owner(idx, region.owner, invariant):
                b = "inj" if inner.binding in ("inv",) else "other"
            elif all(invariant(n) for n in _ids_in(idx)):
                b = inner.binding
            else:
                b = "other"
            return Origin(inner.name, inner.cat, inner.decl, b)

    # additive: base (.data() | bare | alias) [+ offsets]
    parts = _split_additive(init)
    if parts is None:
        return Origin(name, "unknown", decl, "other")
    base_origin: Origin | None = None
    inj_parts = 0
    other = False
    for _, part in parts:
        part = _strip_casts(part)
        ptoks = [x for x in part if not (not x.is_group() and
                                         x.text == "::")]
        base_candidate = None
        if ptoks and not ptoks[0].is_group() and ptoks[0].kind == "id":
            nxt = ptoks[1] if len(ptoks) > 1 else None
            if nxt is None or (not nxt.is_group() and
                               nxt.text in (".", "->")) or \
                    (nxt.is_group() and nxt.opener == "["):
                base_candidate = ptoks[0].text
        if base_candidate is not None and base_origin is None:
            cat2, decl2 = region.lookup(base_candidate)
            if decl2 is None or decl2.is_pointer_like() or \
                    decl2.is_container():
                # `X.data()` / `X` / `X.begin()` — a memory base
                sub = next((x for x in ptoks[1:] if x.is_group() and
                            x.opener == "["), None)
                inner = resolve_origin(base_candidate, region, depth + 1)
                if sub is not None:
                    if injective_in_owner(sub.kids, region.owner,
                                          invariant):
                        inj_parts += 1
                    elif not all(invariant(n) for n in _ids_in(sub.kids)):
                        other = True
                base_origin = inner
                continue
        # offset part
        ids = set(_ids_in(part))
        if region.owner is not None and region.owner in ids:
            if injective_in_owner(part, region.owner, invariant):
                inj_parts += 1
            else:
                other = True
        elif not all(invariant(n) for n in ids):
            other = True
    if base_origin is None:
        return Origin(name, "unknown", decl, "other")
    if other or base_origin.binding == "other":
        binding = "other"
    elif inj_parts == 1 or base_origin.binding == "inj":
        binding = "inj" if inj_parts + (base_origin.binding == "inj") == 1 \
            else "other"
    else:
        binding = "inv"
    return Origin(base_origin.name, base_origin.cat, base_origin.decl,
                  binding)


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class Analyzer:
    def __init__(self, contexts: dict[str, FileContext]):
        self.contexts = contexts
        self.findings: list[Finding] = []
        # cross-file function index for one-level callee resolution
        self.fn_index: dict[str, list[FunctionDef]] = {}
        for ctx in contexts.values():
            for fn in ctx.functions:
                self.fn_index.setdefault(fn.name, []).append(fn)
        self._callee_cache: dict[int, dict[str, list]] = {}

    # -- plumbing -----------------------------------------------------------

    def report(self, ctx: FileContext, line: int, col: int, check: str,
               message: str, fn: FunctionDef | None = None,
               region: Region | None = None) -> None:
        f = Finding(ctx.lf.path, line, col, check, message,
                    fn.qualname if fn else "",
                    region.call_line if region else 0)
        if check == "shared-write":
            a = ctx.private_write_at(line)
            if a is not None and a.reason:
                a.used = True
                return
        sup = ctx.suppression_at(line, check)
        if sup is not None and sup.reason:
            sup.used = True
            f.suppressed = True
            f.suppress_reason = sup.reason
        self.findings.append(f)

    # -- entry --------------------------------------------------------------

    def run(self) -> list[Finding]:
        for ctx in self.contexts.values():
            seen_bodies: set[int] = set()
            for fn in ctx.functions:
                # nested function defs are listed on their own; skip bodies
                # we already visited through an enclosing definition
                if id(fn.body) in seen_bodies:
                    continue
                seen_bodies.add(id(fn.body))
                self.check_function(ctx, fn)
        for ctx in self.contexts.values():
            self.audit_annotations(ctx)
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.check))
        return self.findings

    # -- per function -------------------------------------------------------

    def check_function(self, ctx: FileContext, fn: FunctionDef) -> None:
        regions = find_regions(fn)
        region_coords = {(r.lam.line, r.lam.col) for r in regions}
        for region in regions:
            self.check_region(ctx, fn, region, region_coords)
        self.check_workspace_escape(ctx, fn)
        if fn.name.startswith("run_") or fn.name == "run":
            self.check_hygiene(ctx, fn, fn.body.kids, region=None,
                               include_alloc=False)

    # -- region checks ------------------------------------------------------

    def check_region(self, ctx: FileContext, fn: FunctionDef,
                     region: Region, region_coords: set) -> None:
        body = region.lam.body.kids
        cursor_locals = {
            name for name, d in region.locals.items()
            if d.init and any(n == "fetch_add" for n in _ids_in(d.init))
        }
        for store in cppast.find_stores(body, skip_lambda_bodies=True):
            self.check_store(ctx, fn, region, store, cursor_locals)
        self.check_region_calls(ctx, fn, region)
        self.check_hygiene(ctx, fn, body, region, include_alloc=True)
        # Non-region lambdas defined directly in this body: when invoked
        # here their stores run on this region's threads — analyze them in
        # the region's scope. Lambdas that are arguments of a (nested)
        # parallel context are their own regions and are skipped.
        def walk(siblings: list, chain: list) -> None:
            i = 0
            while i < len(siblings):
                x = siblings[i]
                if x.is_group():
                    if x.opener == "[":
                        lam = cppast._lambda_at(siblings, i)
                        if lam is not None:
                            if (lam.line, lam.col) in region_coords:
                                i = lam.end_index
                                continue
                            inner = Region(region.kind, lam, None,
                                           chain, fn, region.call_line)
                            inner.locals = _lambda_scope(lam)
                            for store in cppast.find_stores(
                                    lam.body.kids,
                                    skip_lambda_bodies=True):
                                self.check_store(ctx, fn, inner, store,
                                                 set())
                            walk(lam.body.kids, chain + [inner.locals])
                            i = lam.end_index
                            continue
                    walk(x.kids, chain)
                i += 1

        walk(body, region.scope_chain + [region.locals])

    def check_store(self, ctx: FileContext, fn: FunctionDef, region: Region,
                    store: Store, cursor_locals: set[str]) -> None:
        lv = store.lvalue

        # `T& p = expr;` / `T* p = expr;`: the `=` is a declaration
        # initializer binding a fresh local, not a write through it.
        if store.op == "=" and lv.base is not None and not lv.indirect \
                and not lv.member and not lv.subscripts:
            d = region.locals.get(lv.base)
            if d is not None and d.init and d.line == store.line:
                return

        def invariant(n: str) -> bool:
            return n not in region.locals

        # shared-cursor: subscript computed with fetch_add, directly or
        # through a local initialized from fetch_add
        for sub in lv.subscripts:
            ids = set(_ids_in(sub))
            if "fetch_add" in ids or (ids & cursor_locals):
                self.report(
                    ctx, store.line, store.col, "shared-cursor-emission",
                    "subscript computed from a fetch_add shared cursor; "
                    "emitters contend on one cache line and output order "
                    "depends on the schedule. Use emit_pack / "
                    "count_then_emit / frontier_edge_for "
                    "(parallel/emit.hpp)", fn, region)
                return

        target_shared = False
        what = lv.base or "a dereference"

        if lv.this_member:
            target_shared = True
            what = "this->" + (lv.base or "?")
        elif lv.base is None:
            target_shared = True
        else:
            cat, decl = region.lookup(lv.base)
            if cat == "local" and decl is not None:
                if decl.is_atomic():
                    return
                if decl.is_ref() or ((decl.is_pointer_like() or
                                      decl.is_container()) and
                                     (lv.indirect or lv.member or
                                      lv.subscripts)):
                    origin = resolve_origin(lv.base, region)
                    if origin.cat == "local":
                        od = origin.decl
                        if od is not None and (od.is_container() or
                                               od.is_arena()):
                            return  # storage owned by this iteration
                        if od is not None and not od.is_pointer_like():
                            return
                        # local pointer of unknown provenance: treat as
                        # shared only if it has no resolvable origin at all
                        if origin.binding == "other":
                            target_shared = True
                        else:
                            return
                    elif origin.binding == "inj":
                        return  # alias pinned to an owner-owned slot
                    else:
                        target_shared = True
                        what = f"`{lv.base}` (aliases `{origin.name}`)" \
                            if origin.name and origin.name != lv.base \
                            else f"`{lv.base}`"
                else:
                    return  # plain local value
            elif cat == "captured" and decl is not None:
                if decl.is_atomic():
                    return
                by_ref = region.lam.captures_name(lv.base) and \
                    region.lam.capture_by_ref(lv.base)
                if decl.is_scalar_value() and not by_ref and \
                        not lv.subscripts and not lv.indirect and \
                        not lv.member:
                    return  # mutable by-value copy, private
                target_shared = True
                what = f"`{lv.base}`"
            else:
                # unknown: file-scope / class member / template name
                target_shared = True
                what = f"`{lv.base}`"

        if not target_shared:
            return
        # owner-indexed disjointness: any subscript level injective in the
        # owner parameter makes the touched cells iteration-private; a
        # subscript that is exactly the calling worker's id pins the cell
        # to one thread (per-worker slot pattern)
        worker_locals = {
            name for name, d in region.locals.items()
            if d.init and _is_worker_id_call(list(d.init))
        }
        for sub in lv.subscripts:
            if injective_in_owner(sub, region.owner, invariant):
                return
            if worker_slot_index(sub, worker_locals):
                return
        self.report(
            ctx, store.line, store.col, "shared-write",
            f"raw write through captured {what} inside a "
            f"{region.kind} body; route it through parallel/atomics.hpp, "
            "index it injectively by the region's owner parameter, or "
            "state the disjointness invariant with "
            "`// lint: private-write(<invariant>)`", fn, region)

    # -- one-level callee resolution ----------------------------------------

    def _callee_param_stores(self, callee: FunctionDef) -> dict[str, list]:
        """param name -> [(line, col, annotated)] raw stores through that
        parameter in the callee body (one level, no recursion)."""
        cached = self._callee_cache.get(id(callee))
        if cached is not None:
            return cached
        ctx = self.contexts.get(callee.path)
        out: dict[str, list] = {}
        pnames = {p.name: p for p in callee.params}
        scope: dict[str, Decl] = dict(pnames)
        cppast.collect_decls(callee.body, into=scope,
                             skip_lambda_bodies=False)
        # one-level aliases of params
        alias_of: dict[str, str] = {}
        for name, d in scope.items():
            if name in pnames or not (d.is_pointer_like() or d.is_ref()):
                continue
            ids = [n for n in _ids_in(d.init)] if d.init else []
            for n in ids:
                if n in pnames:
                    alias_of[name] = n
                    break
        for store in cppast.find_stores(callee.body.kids,
                                        skip_lambda_bodies=False):
            lv = store.lvalue
            if lv.base is None:
                continue
            pname = None
            if lv.base in pnames and (lv.indirect or lv.member or
                                      lv.subscripts or
                                      pnames[lv.base].is_ref()):
                pname = lv.base
            elif lv.base in alias_of and (lv.indirect or lv.subscripts or
                                          lv.member):
                pname = alias_of[lv.base]
            if pname is None:
                continue
            p = pnames[pname]
            if p.is_atomic() or not (p.is_pointer_like() or
                                     p.is_container()):
                continue
            if _const_protected(p.type_text):
                continue
            annotated = False
            if ctx is not None:
                a = ctx.private_write_at(store.line)
                annotated = a is not None and bool(a.reason)
            out.setdefault(pname, []).append(
                (store.line, store.col, annotated))
        self._callee_cache[id(callee)] = out
        return out

    def check_region_calls(self, ctx: FileContext, fn: FunctionDef,
                           region: Region) -> None:
        def invariant(n: str) -> bool:
            return n not in region.locals

        for call in cppast.find_calls(region.lam.body.kids,
                                      skip_lambda_bodies=True):
            if call.name in ATOMIC_HELPERS or \
                    call.name in PARALLEL_CONTEXTS:
                continue
            # carving from the arena inside the region: the bump cursor is
            # plain state, so concurrent take() calls race
            if call.name in ("take", "take_bytes") and call.base is not None:
                cat, decl = region.lookup(call.base)
                if decl is None or decl.is_arena() or decl.is_arena_ref():
                    self.report(
                        ctx, call.line, call.col,
                        "workspace-take-in-parallel",
                        f"`{call.base}.{call.name}()` inside a "
                        f"{region.kind} body: the arena bump cursor is not "
                        "synchronized across iterations; take spans before "
                        "entering the region", fn, region)
                continue
            # library writers: the destination argument is a store target
            if call.name in KNOWN_WRITERS:
                for di in KNOWN_WRITERS[call.name]:
                    if di >= len(call.args):
                        continue
                    shared = self._arg_shared_base(call.args[di], region)
                    if shared is not None:
                        self.report(
                            ctx, call.line, call.col, "shared-write",
                            f"{call.name}() writes through captured "
                            f"`{shared}` inside a {region.kind} body; "
                            "prove disjointness with `// lint: "
                            "private-write(<invariant>)` or restructure "
                            "through parallel/emit.hpp", fn, region)
                continue
            defs = self.fn_index.get(call.name)
            if not defs or len(defs) > 4:
                continue
            for callee in defs:
                if callee is fn:
                    continue
                pstores = self._callee_param_stores(callee)
                if not pstores:
                    continue
                nargs = min(len(call.args), len(callee.params))
                for ai in range(nargs):
                    pname = callee.params[ai].name
                    raw = [s for s in pstores.get(pname, ()) if not s[2]]
                    if not raw:
                        continue
                    shared = self._arg_shared_base(call.args[ai], region)
                    if shared is None:
                        continue
                    line0, col0, _ = raw[0]
                    self.report(
                        ctx, call.line, call.col, "shared-write",
                        f"helper `{callee.name}` "
                        f"({_rel(callee.path)}:{line0}) stores through "
                        f"parameter `{pname}`, which receives captured "
                        f"`{shared}` here; the store is raw for every "
                        "caller in a parallel region — use atomics in the "
                        "helper or annotate the store there", fn, region)

    def _arg_shared_base(self, arg: list, region: Region) -> str | None:
        """If an argument expression passes memory shared across
        iterations, return the base name; None if private/invariant-safe."""
        nodes = _strip_casts(list(arg))

        def invariant(n: str) -> bool:
            return n not in region.locals

        toks = [x for x in nodes if not (not x.is_group() and
                                         x.text in ("::",))]
        if not toks:
            return None
        # &X[inj] → iteration-private element
        if not toks[0].is_group() and toks[0].text == "&":
            rest = toks[1:]
            if rest and not rest[0].is_group() and rest[0].kind == "id" \
                    and len(rest) >= 2 and rest[1].is_group() and \
                    rest[1].opener == "[":
                if injective_in_owner(rest[1].kids, region.owner,
                                      invariant):
                    return None
                return self._shared_name(rest[0].text, region)
            return None
        base_tok = toks[0]
        if base_tok.is_group() or base_tok.kind != "id":
            return None
        name = base_tok.text
        # X | X.data() | X.data() + inj
        rest = toks[1:]
        if rest:
            # method call chain on X is fine; check a trailing +offset
            parts = _split_additive(toks)
            if parts and len(parts) > 1:
                tail_ids = set()
                inj = False
                for _, part in parts[1:]:
                    if injective_in_owner(part, region.owner, invariant):
                        inj = True
                    else:
                        tail_ids |= set(_ids_in(part))
                if inj and all(invariant(n) for n in tail_ids):
                    return None  # X.data() + i*k : private slice base
        cat, decl = region.lookup(name)
        if cat == "local" and decl is not None:
            if not (decl.is_pointer_like() or decl.is_container()):
                return None
            origin = resolve_origin(name, region)
            if origin.cat == "local" or origin.binding == "inj":
                return None
            return origin.name or name
        if cat == "captured" and decl is not None:
            if decl.is_pointer_like() or decl.is_container():
                return name
            return None
        return None  # unknown names: too little info, stay quiet

    def _shared_name(self, name: str, region: Region) -> str | None:
        cat, decl = region.lookup(name)
        if cat == "local":
            return None
        if decl is not None and not (decl.is_pointer_like() or
                                     decl.is_container()):
            return None
        return name

    # -- workspace escape ---------------------------------------------------

    def check_workspace_escape(self, ctx: FileContext,
                               fn: FunctionDef) -> None:
        scope: dict[str, Decl] = {}
        for p in fn.params:
            scope.setdefault(p.name, p)
        cppast.collect_decls(fn.body, into=scope, skip_lambda_bodies=False)
        arenas = {n for n, d in scope.items()
                  if d.is_arena() and n not in {p.name for p in fn.params}}
        if not arenas:
            return
        # taint: locals initialized from a local arena's take()/data()
        tainted: set[str] = set()
        for _ in range(3):
            grew = False
            for n, d in scope.items():
                if n in tainted or not d.init:
                    continue
                ids = set(_ids_in(d.init))
                if ids & arenas:
                    # only memory-yielding uses taint (take/data/chain)
                    txt = flat_text(d.init)
                    if re.search(r"\b(take|data|take_bytes)\b", txt) or \
                            ids & tainted:
                        tainted.add(n)
                        grew = True
                elif ids & tainted:
                    if d.is_pointer_like() or d.is_container() or \
                            "span" in d.type_text or d.type_text == "auto":
                        tainted.add(n)
                        grew = True
            if not grew:
                break

        params = {p.name: p for p in fn.params}

        def is_escape_target(lv) -> str | None:
            if lv.this_member:
                return "a class member"
            if lv.base is None:
                return None
            if lv.base in scope and lv.base not in params:
                return None  # local
            if lv.base in params:
                p = params[lv.base]
                if (p.is_ref() or p.is_pointer_like()) and \
                        (lv.indirect or lv.member or lv.subscripts or
                         p.is_ref()):
                    if p.is_arena_ref():
                        return None
                    return f"out-parameter `{lv.base}`"
                return None
            # not local, not param: member or global
            return f"`{lv.base}` (not function-local)"

        # stores whose RHS carries tainted memory into an escaping target
        for store in cppast.find_stores(fn.body.kids,
                                        skip_lambda_bodies=False):
            carries = _pointer_escape(store.rhs, tainted)
            if not carries:
                rhs_ids = set(_ids_in(store.rhs))
                txt = flat_text(store.rhs)
                carries = bool(rhs_ids & arenas and
                               re.search(r"\b(take|data)\b", txt))
            if not carries:
                continue
            target = is_escape_target(store.lvalue)
            if target is None:
                continue
            self.report(
                ctx, store.line, store.col, "workspace-escape",
                f"memory carved from locally-owned workspace "
                f"`{sorted(arenas)[0]}` is stored into {target}, which "
                "outlives the arena's scope; the span dangles once the "
                "workspace resets or is destroyed", fn)
        # return statements that carry tainted memory out
        self._check_escape_returns(ctx, fn, arenas, tainted)

    def _check_escape_returns(self, ctx: FileContext, fn: FunctionDef,
                              arenas: set[str], tainted: set[str]) -> None:
        def walk(siblings: list) -> None:
            i = 0
            while i < len(siblings):
                x = siblings[i]
                if x.is_group():
                    walk(x.kids)
                    i += 1
                    continue
                if x.kind == "id" and x.text == "return":
                    j = i + 1
                    expr: list = []
                    while j < len(siblings):
                        y = siblings[j]
                        if not y.is_group() and y.kind == "punct" and \
                                y.text == ";":
                            break
                        expr.append(y)
                        j += 1
                    ids = set(_ids_in(expr))
                    txt = flat_text(expr)
                    if _pointer_escape(expr, tainted) or \
                            (ids & arenas and
                             re.search(r"\btake\b", txt)):
                        self.report(
                            ctx, x.line, x.col, "workspace-escape",
                            "returning memory carved from a "
                            "locally-owned workspace arena; the arena "
                            "dies with this scope and the returned "
                            "span/pointer dangles", fn)
                    i = j
                    continue
                i += 1

        walk(fn.body.kids)

    # -- hygiene ------------------------------------------------------------

    def check_hygiene(self, ctx: FileContext, fn: FunctionDef, body: list,
                      region: Region | None, include_alloc: bool) -> None:
        where = f"a {region.kind} body" if region else \
            f"registry hot path `{fn.qualname}`"

        # token-level: std::function, raw new
        toks = list(iter_tokens(body))
        for k, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text == "function" and k >= 2 and \
                    toks[k - 1].text == "::" and toks[k - 2].text == "std":
                self.report(
                    ctx, t.line, t.col, "std-function-in-parallel",
                    f"std::function inside {where}: type-erased callables "
                    "heap-allocate and synchronize; use a template "
                    "parameter or a function pointer", fn, region)
            elif t.text == "new" and include_alloc and region is not None:
                prev = toks[k - 1] if k > 0 else None
                if prev is None or prev.text != "operator":
                    self.report(
                        ctx, t.line, t.col, "alloc-in-parallel",
                        f"operator new inside {where}: parallel bodies "
                        "must draw scratch from the caller's workspace "
                        "arena, not the system allocator", fn, region)

        # call-level
        for call in cppast.find_calls(body):
            if call.name in RAND_TIME_CALLS and call.base in (None, "std"):
                self.report(
                    ctx, call.line, call.col, "rand-time-in-parallel",
                    f"{call.name}() inside {where}: hidden global state "
                    "(and a syscall for time sources); use "
                    "parallel/random.hpp's counter-based rng and hoist "
                    "time reads out of the region", fn, region)
            elif include_alloc and region is not None and \
                    call.name in ALLOC_CALLS:
                self.report(
                    ctx, call.line, call.col, "alloc-in-parallel",
                    f"{call.name}() allocates inside {where}; draw from "
                    "the workspace arena instead", fn, region)
            elif include_alloc and region is not None and \
                    call.base is not None and call.name in ALLOC_METHODS:
                # growing a container inside the body; private local
                # vectors still allocate — the discipline is arena scratch.
                # The repo's hash_map/hash_map64/hash_table are fixed
                # capacity (CAS-slot insert, no rehash), so insert() on
                # them never allocates.
                cat, decl = region.lookup(call.base)
                if decl is not None and re.search(
                        r"\bhash_(map64|map|table|set)\b", decl.type_text):
                    continue
                if decl is None or decl.is_container():
                    self.report(
                        ctx, call.line, call.col, "alloc-in-parallel",
                        f"`{call.base}.{call.name}()` may allocate inside "
                        f"{where}; pre-size outside the region or use the "
                        "workspace arena", fn, region)
            elif call.name == "begin" and call.base is not None:
                self._maybe_hash_iteration(ctx, fn, region, call.base,
                                           call.line, call.col, where)

        # range-for over unordered containers
        self._hash_range_for(ctx, fn, region, body, where)

        # container declarations allocate
        if include_alloc and region is not None:
            for name, d in _body_decls(body).items():
                if d.is_container() and not d.is_ref() and \
                        "span" not in d.type_text:
                    self.report(
                        ctx, d.line, d.col, "alloc-in-parallel",
                        f"`{name}` ({d.type_text.strip()}) is an "
                        f"allocating container declared inside {where}; "
                        "use workspace spans", fn, region)

    def _maybe_hash_iteration(self, ctx, fn, region, base, line, col,
                              where) -> None:
        decl = None
        if region is not None:
            _, decl = region.lookup(base)
        else:
            scope: dict[str, Decl] = {p.name: p for p in fn.params}
            cppast.collect_decls(fn.body, into=scope,
                                 skip_lambda_bodies=False)
            decl = scope.get(base)
        if decl is not None and decl.is_unordered():
            self.report(
                ctx, line, col, "hash-iteration-order",
                f"iterating hash container `{base}` inside {where}: "
                "traversal order is seed/rehash-dependent, which makes "
                "output nondeterministic; iterate a sorted snapshot or "
                "key order instead", fn, region)

    def _hash_range_for(self, ctx, fn, region, body, where) -> None:
        def walk(siblings: list) -> None:
            i = 0
            while i < len(siblings):
                x = siblings[i]
                if not x.is_group() and x.kind == "id" and \
                        x.text == "for" and i + 1 < len(siblings) and \
                        siblings[i + 1].is_group() and \
                        siblings[i + 1].opener == "(":
                    kids = siblings[i + 1].kids
                    for k, y in enumerate(kids):
                        if not y.is_group() and y.kind == "punct" and \
                                y.text == ":":
                            range_ids = [n for n in
                                         _ids_in(kids[k + 1 :])]
                            for nm in range_ids[:1]:
                                self._maybe_hash_iteration(
                                    ctx, fn, region, nm,
                                    x.line, x.col, where)
                            break
                if x.is_group():
                    walk(x.kids)
                i += 1

        walk(body)

    # -- annotation audit ---------------------------------------------------

    def audit_annotations(self, ctx: FileContext) -> None:
        for line, a in sorted(ctx.private_write.items()):
            if not a.reason:
                self.report(
                    ctx, line, 1, "empty-annotation",
                    "lint: private-write() with empty invariant text; "
                    "state the disjointness argument or delete the "
                    "annotation")
                continue
            anchored = line in ctx.all_store_lines or \
                (line + 1) in ctx.all_store_lines
            a.anchored = anchored
            if not anchored:
                self.report(
                    ctx, line, 1, "orphaned-annotation",
                    "lint: private-write annotation no longer anchors a "
                    "store expression (the store moved or was deleted); "
                    "move or remove it")
        for line, anns in sorted(ctx.suppress.items()):
            for a in anns:
                if not a.reason:
                    self.report(
                        ctx, line, 1, "empty-annotation",
                        f"suppression for [{a.check}] with no reason "
                        "text; suppressions must explain themselves")
                elif a.check not in CHECK_NAMES:
                    self.report(
                        ctx, line, 1, "unused-suppression",
                        f"suppression names unknown check `{a.check}` "
                        f"(catalog: {', '.join(CHECK_NAMES)})")
                elif not a.used:
                    self.report(
                        ctx, line, 1, "unused-suppression",
                        f"suppression for [{a.check}] matched no finding; "
                        "stale suppressions hide future regressions — "
                        "remove it")


def _body_decls(body: list) -> dict[str, Decl]:
    g = Group("{", 0, 0, list(body))
    return cppast.collect_decls(g, skip_lambda_bodies=True)


def _const_protected(type_text: str) -> bool:
    t = type_text
    if "span" in t:
        return bool(re.search(r"span\s*<\s*const\b", t))
    return "const" in t.split()


def _rel(path: str) -> str:
    for marker in ("/src/", "/tools/", "/tests/", "/bench/"):
        k = path.find(marker)
        if k >= 0:
            return path[k + 1 :]
    return path
