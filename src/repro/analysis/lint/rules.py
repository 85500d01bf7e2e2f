"""The repo-specific determinism / state-safety rules.

Every rule here guards a property the resilience and campaign layers
rely on: bit-identical replay (no wall-clock, no unseeded RNG, no
unordered iteration feeding results), exact-compare hygiene in metrics
code, no per-iteration copies in the hot loops, no fork-unsafe module
state, and narrow exception handling in the fault-tolerant layers where
a swallowed error means silent data loss.
"""

from __future__ import annotations

import ast

from .core import FileContext, LintRule, Severity, dotted_call_name, register

# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.ctime",
    "time.gmtime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}


@register
class WallClockRule(LintRule):
    """Wall-clock reads make simulated results differ run to run.

    Simulation and analysis code must use simulated time or, for
    profiling, ``time.perf_counter``/``time.monotonic`` (never fed into
    results). The campaign supervisor is excluded: it legitimately
    enforces real-world deadlines on worker processes.
    """

    name = "wall-clock"
    severity = Severity.ERROR
    description = "wall-clock call (time.time / datetime.now) in a simulation path"
    path_exclude = ("campaign/",)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_call_name(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock call {dotted}() in a simulation path; use simulated "
                "time, or perf_counter/monotonic for profiling-only output",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------
_STDLIB_GLOBAL_RNG = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "seed", "vonmisesvariate",
}
_NUMPY_LEGACY_RNG = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "choice", "shuffle", "permutation", "seed", "uniform", "normal",
    "standard_normal", "poisson", "binomial", "exponential", "bytes",
}


@register
class UnseededRngRule(LintRule):
    """Global or unseeded RNG breaks seeded-replay determinism.

    Flags the ``random`` module's global functions, numpy's legacy
    ``np.random.*`` global-state API, and ``Random()`` /
    ``default_rng()`` / ``RandomState()`` constructed without a seed.
    Seeded generator objects (``np.random.default_rng(seed)``,
    ``random.Random(seed)``) are the sanctioned idiom.
    """

    name = "unseeded-rng"
    severity = Severity.ERROR
    description = "global/unseeded random number generation"

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_call_name(node.func)
        if dotted:
            self._check(node, dotted)
        self.generic_visit(node)

    def _check(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        unseeded = not node.args and not any(
            kw.arg in ("seed", "x") for kw in node.keywords
        )
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in _STDLIB_GLOBAL_RNG:
                self.report(
                    node,
                    f"{dotted}() uses the process-global RNG; use a seeded "
                    "random.Random(seed) instance",
                )
            elif parts[1] == "Random" and unseeded:
                self.report(node, "random.Random() without a seed")
        elif len(parts) >= 2 and parts[-2] == "random" and parts[0] in ("np", "numpy"):
            if parts[-1] in _NUMPY_LEGACY_RNG:
                self.report(
                    node,
                    f"{dotted}() uses numpy's legacy global RNG; use "
                    "np.random.default_rng(seed)",
                )
            elif parts[-1] in ("default_rng", "RandomState") and unseeded:
                self.report(node, f"{dotted}() without a seed")
        elif parts[-1] in ("default_rng", "RandomState") and unseeded:
            self.report(node, f"{dotted}() without a seed")


# ----------------------------------------------------------------------
# float-equality
# ----------------------------------------------------------------------
def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEqualityRule(LintRule):
    """Exact ``==``/``!=`` against a float literal in stats/metrics code.

    Accumulated floating-point metrics rarely compare exactly equal;
    such comparisons silently change behaviour across platforms and
    optimisation levels. Compare with a tolerance (``math.isclose``) or
    restructure around an ordered comparison.
    """

    name = "float-equality"
    severity = Severity.WARNING
    description = "exact == / != comparison with a float"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_float_literal(left) or _is_float_literal(right):
                self.report(
                    node,
                    "exact float comparison; use math.isclose or an "
                    "ordered comparison (<=, >=)",
                )
                break
        self.generic_visit(node)


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset",
}
_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}


@register
class UnorderedIterationRule(LintRule):
    """Iterating a ``set``/``frozenset`` yields a run-dependent order.

    Set iteration order depends on insertion history and hash
    randomisation; when such a loop feeds results, RNG draws, or output
    rows, replays diverge. Wrap the iterable in ``sorted(...)`` (or
    consume it order-insensitively). Tracks names assigned set values
    within the enclosing scope, so ``s = {...}; for x in s`` is caught.
    """

    name = "unordered-iteration"
    severity = Severity.WARNING
    description = "iteration over an unordered set/frozenset"

    def __init__(self, ctx: FileContext):
        super().__init__(ctx)
        self._scopes: list[dict[str, bool]] = [{}]
        self._exempt: set[int] = set()

    # -- scope handling -------------------------------------------------
    def _push_scope(self, node: ast.AST) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _push_scope
    visit_AsyncFunctionDef = _push_scope
    visit_ClassDef = _push_scope

    def _is_setish(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_setish(node.func.value)
            ):
                return True
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope:
                    return scope[node.id]
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        setish = self._is_setish(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._scopes[-1][target.id] = setish
        self.generic_visit(node)

    # -- exemptions: comprehensions consumed order-insensitively --------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in _ORDER_INSENSITIVE_CONSUMERS:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    self._exempt.add(id(arg))
        self.generic_visit(node)

    # -- the checks -----------------------------------------------------
    def _flag(self, node: ast.AST, where: str) -> None:
        self.report(
            node,
            f"iteration over an unordered set in {where}; wrap in sorted(...) "
            "so replays and result ordering are deterministic",
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_setish(node.iter):
            self._flag(node, "a for loop")
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST, kind: str) -> None:
        if id(node) not in self._exempt:
            for gen in node.generators:
                if self._is_setish(gen.iter):
                    self._flag(node, kind)
                    break
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, "a list comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, "a generator expression")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, "a dict comprehension")


# ----------------------------------------------------------------------
# hot-path-copy
# ----------------------------------------------------------------------
@register
class HotPathCopyRule(LintRule):
    """Per-iteration array copies in the simulator's hot loops.

    The epoch loop's performance contract is allocation-free iteration:
    chunk fields are strided views and stay that way. A
    ``np.ascontiguousarray`` or zero-argument ``.copy()`` inside a
    ``for``/``while`` body in the hot packages re-materialises the
    buffer every iteration — the page-fault tax on fresh multi-megabyte
    temporaries dominated the profile before the fused-path work.
    Hoist the copy out of the loop, reuse a scratch buffer, or suppress
    inline where a copy is semantically required (e.g. detaching state
    snapshots).
    """

    name = "hot-path-copy"
    severity = Severity.WARNING
    description = "array copy (ascontiguousarray / .copy()) inside a hot loop"
    path_scope = ("repro/core/", "repro/memctrl/", "repro/dram/",
                  "repro/trace/", "repro/workloads/")

    def __init__(self, ctx: FileContext):
        super().__init__(ctx)
        self._loop_depth = 0

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_While = _visit_loop

    def _visit_function(self, node: ast.AST) -> None:
        # a nested def's body runs when called, not per iteration of the
        # enclosing loop — reset the depth inside it
        depth, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = depth

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_depth:
            dotted = dotted_call_name(node.func)
            if dotted and dotted.split(".")[-1] == "ascontiguousarray":
                self.report(
                    node,
                    "ascontiguousarray inside a loop re-materialises the "
                    "buffer every iteration; hoist it out or reuse scratch",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "copy"
                and not node.args
                and not node.keywords
            ):
                self.report(
                    node,
                    ".copy() inside a loop allocates per iteration; hoist "
                    "it out, reuse scratch, or suppress if the copy detaches "
                    "state on purpose",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# fork-safety
# ----------------------------------------------------------------------
_LOCK_CONSTRUCTORS = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier",
}
_LOCK_MODULES = {"threading", "multiprocessing", "mp"}
_RNG_CONSTRUCTORS = {"default_rng", "RandomState", "Generator"}


@register
class ForkSafetyRule(LintRule):
    """Module-level state that breaks under CampaignSupervisor's fork.

    Campaign workers are forked processes: module globals are duplicated
    into every child at fork time. Three classes of global are traps —

    * RNG objects (``np.random.default_rng`` / ``RandomState`` /
      ``random.Random``): every worker inherits the *same* generator
      state, so "independent" workers draw identical streams;
    * ``np.memmap`` handles: the children share the parent's file
      descriptor and mapping, so writes race and offsets interleave;
    * locks (``threading``/``multiprocessing``): a lock held at fork
      time is copied in the locked state and deadlocks the child.

    Construct these per-worker (inside the worker function or an
    initializer) instead of at import time.
    """

    name = "fork-safety"
    severity = Severity.WARNING
    description = (
        "module-level RNG/memmap/lock state duplicated into forked "
        "campaign workers"
    )
    path_exclude = ("tests/",)

    def __init__(self, ctx: FileContext):
        super().__init__(ctx)
        self._function_depth = 0

    def _visit_function(self, node: ast.AST) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if self._function_depth == 0:
            dotted = dotted_call_name(node.func)
            if dotted:
                self._check(node, dotted)
        self.generic_visit(node)

    def _check(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        head, tail = parts[0], parts[-1]
        if tail in _LOCK_CONSTRUCTORS and head in _LOCK_MODULES:
            self.report(
                node,
                f"module-level {dotted}(): a lock held at fork time is "
                "inherited locked and deadlocks campaign workers; create "
                "it per-worker",
            )
        elif tail == "memmap" and head in ("np", "numpy"):
            self.report(
                node,
                f"module-level {dotted}(): forked campaign workers share "
                "the mapping and file descriptor; open the memmap inside "
                "the worker",
            )
        elif tail == "open_memmap":
            self.report(
                node,
                f"module-level {dotted}(): forked campaign workers share "
                "the mapping and file descriptor; open the memmap inside "
                "the worker",
            )
        elif (
            tail in _RNG_CONSTRUCTORS
            and len(parts) >= 2
            and parts[-2] == "random"
        ) or dotted in ("random.Random",):
            self.report(
                node,
                f"module-level {dotted}(): forked campaign workers "
                "inherit identical RNG state and draw the same stream; "
                "seed a generator per-worker",
            )


# ----------------------------------------------------------------------
# broad-except
# ----------------------------------------------------------------------
@register
class BroadExceptRule(LintRule):
    """Bare/over-broad ``except`` in the fault-tolerance layers.

    ``campaign/`` and ``resilience/`` exist to classify failures;
    a blanket handler there converts a specific, retryable error into
    an undiagnosable one. Catch the concrete exception types, or
    suppress inline at a deliberate crash-isolation boundary.
    """

    name = "broad-except"
    severity = Severity.WARNING
    description = "bare or over-broad except in campaign/ or resilience/"
    path_scope = ("campaign/", "resilience/")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare except: catches everything, including "
                              "KeyboardInterrupt; name the exception types")
        else:
            names = []
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                if isinstance(t, ast.Name):
                    names.append(t.id)
            broad = [n for n in names if n in ("Exception", "BaseException")]
            if broad:
                self.report(
                    node,
                    f"except {', '.join(broad)} in a fault-classification layer; "
                    "catch the concrete retryable types",
                )
        self.generic_visit(node)
