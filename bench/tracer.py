"""Spans and counters recorded at medgraph's module boundaries.

The tracer replaces each public function of the traced modules with a
wrapper, in every medgraph module namespace that holds a reference to it,
so calls between modules and inside a module are both seen.  The program
itself is not changed; `uninstall` puts the original functions back.

A span is (id, name, start, end, parent id).  A span's self time is its
duration minus the time covered by its child spans.  Spans stay in memory
until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Modules whose public functions are wrapped.  In `cli` only `main` is
# wrapped, so that `cli.main` self time is argument parsing, file reading
# and JSON output rather than being split across the cmd_* handlers.
TRACED_MODULES = ("graph", "metric", "medians", "lp", "oracle",
                  "recognizers", "families", "benzenoid", "cli")
_ONLY = {"cli": ("main",)}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self_s
        self.outer_s = Counter()      # module -> time in its outermost spans
        self.counters = Counter()
        self.root_labels: dict[int, str] = {}
        self.per_root = defaultdict(lambda: {"solves": 0, "pairs": set(),
                                             "matrices": set()})
        self.oracle_calls: list[tuple] = []
        self._stack: list[list] = []   # [span id, name, child time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self._hooks = {"lp.build_Duv": self._after_build_duv,
                       "lp.lp_feasible_strict": self._after_lp,
                       "oracle.brute_force_oracle": self._after_oracle}

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        self.spans.append((frame[0], frame[1], t0, t1,
                           parent[0] if parent else None))
        st = self.stats[frame[1]]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]
        module = frame[1].split(".", 1)[0]
        if parent is None or parent[1].split(".", 1)[0] != module:
            self.outer_s[module] += dur
        if parent is not None:
            parent[2] += dur

    @contextlib.contextmanager
    def root(self, kind: str, label: str):
        """A root span ("job" or "check") for one job."""
        frame = self._enter(kind)
        self.root_labels[frame[0]] = label
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, t0, time.perf_counter())

    def _root_id(self) -> int | None:
        return self._stack[0][0] if self._stack else None

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, t0, time.perf_counter())
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result
        return wrapper

    # ---------------------------------------------------------- counters
    # Hooks run after the span has closed, so their cost is in no span.

    def _after_build_duv(self, fn, args, kwargs, mat) -> None:
        self.counters["lp.matrix_entries"] += len(mat.entries) * len(mat.cols)

    def _after_lp(self, fn, args, kwargs, res) -> None:
        mat = args[0] if args else kwargs["mat"]
        self.counters["lp.feasible"] += bool(res.feasible)
        rec = self.per_root[self._root_id()]
        rec["solves"] += 1
        rec["pairs"].add((min(mat.u, mat.v), max(mat.u, mat.v)))
        rec["matrices"].add(mat.entries)

    def _after_oracle(self, fn, args, kwargs, hit) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self.counters["oracle.hits"] += hit is not None
        self.oracle_calls.append((a["g"], a["d"], a["p"], a["max_weight"]))

    # ------------------------------------------------------ install/undo

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"medgraph.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr in _ONLY.get(short, (attr,))):
                    name = f"{short}.{attr}"
                    self.originals[name] = obj
                    wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "medgraph" and not modname.startswith("medgraph."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # ----------------------------------------------------------- results

    def value(self, name: str, field: str) -> float:
        calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": own}[field]

    def root_time(self, kind: str) -> float:
        return self.stats.get(kind, (0, 0.0, 0.0))[1]

    def write_spans(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [[sid, index[name], start - t0, end - t0, parent]
                for sid, name, start, end, parent in
                sorted(self.spans, key=lambda s: s[0])]
        doc = {"columns": ["id", "name", "start_s", "end_s", "parent"],
               "names": names, "roots": self.root_labels, "spans": rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ------------------------------------------------- matrix equivalence

def _rank(values: list) -> list[int]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


class _Colored:
    """An integer matrix with row colours refined against its columns.

    Colours are ranks of values built only from entries and earlier
    colours, so a row or column permutation of the matrix gets the same
    colours, permuted the same way.
    """

    def __init__(self, entries, cols, colors: list):
        self.entries, self.cols = entries, cols
        m = len(entries)
        colors = _rank(colors)
        while True:
            cc = _rank([tuple(sorted(zip(colors, col))) for col in cols])
            new = _rank([(colors[i], tuple(sorted(zip(cc, entries[i]))))
                         for i in range(m)])
            if len(set(new)) == len(set(colors)):
                break
            colors = new
        self.rows = new
        self.signature = tuple(sorted(Counter(
            (new[i], cc[j], entries[i][j])
            for i in range(m) for j in range(len(cols))).items()))

    def tied(self) -> int | None:
        sizes = Counter(self.rows)
        return min((c for c, k in sizes.items() if k > 1), default=None)

    def individualize(self, r: int) -> "_Colored":
        return _Colored(self.entries, self.cols,
                        [(c, i != r) for i, c in enumerate(self.rows)])

    def sorted_columns(self) -> list:
        order = sorted(range(len(self.rows)), key=self.rows.__getitem__)
        return sorted(tuple(col[i] for i in order) for col in self.cols)


def _isomorphic(a: _Colored, b: _Colored) -> bool:
    if a.signature != b.signature:
        return False
    tied = a.tied()
    if tied is None:
        return a.sorted_columns() == b.sorted_columns()
    a2 = a.individualize(a.rows.index(tied))
    tried = set()
    for s, c in enumerate(b.rows):
        # rows with identical entries are interchangeable: try one of them
        if c != tied or b.entries[s] in tried:
            continue
        tried.add(b.entries[s])
        if _isomorphic(a2, b.individualize(s)):
            return True
    return False


class MatrixClasses:
    """Counts integer matrices up to row and column permutation."""

    def __init__(self):
        self._reps: dict[tuple, list[_Colored]] = {}
        self.count = 0

    def add(self, entries: tuple[tuple[int, ...], ...]) -> None:
        x = _Colored(entries, list(zip(*entries)), [0] * len(entries))
        reps = self._reps.setdefault((len(entries), len(x.cols), x.signature), [])
        if not any(_isomorphic(x, rep) for rep in reps):
            reps.append(x)
            self.count += 1
