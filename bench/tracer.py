"""Outside-in span tracer for the artinfix benchmark.

The tracer wraps public functions and methods of the artinfix modules from
outside; nothing in ``src/`` knows about it.  A module-level function is
replaced in *every* module namespace that binds it, because the package
imports functions by name (``classifier`` and ``deligne`` hold their own
references to ``word_equal``, ``member_of_parabolic`` and
``canonical_form``).  Methods are replaced on their class.  Every original is
restored when the tracer is uninstalled.

Only calls made inside a benchmark operation count: while ``op_id`` is
negative (building inputs, checking results) a wrapper calls straight through
and records nothing.  Each wrapped call inside an operation records a span
in memory: name, start, end, parent span and operation id.  Self time is a span's length minus the time its child
spans cover; calls are synchronous and single-threaded, so child spans never
overlap and that cover is the sum of their lengths.  Cheap, very frequent
functions are counted without spans.  Result hooks count outcomes (verdict
status, method, search expansions, flags) at the call boundary.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path, result hook name or None).  Spans: timed calls.
SPANNED = [
    ("oracle", "word_equal", "word_equal"),
    ("oracle", "member_of_parabolic", "member_of_parabolic"),
    ("oracle", "canonical_form", None),
    ("deligne", "build_ball", "build_ball"),
    ("deligne", "fixed_vertices", "fixed_vertices"),
    ("deligne", "DeligneBall.resolve", "resolve"),
    ("deligne", "displacement_field", None),
    ("deligne", "compatibility_probe", None),
    ("classifier", "classify", None),
    ("classifier", "verify_report", None),
    ("classifier", "reduce_isogredience", None),
    ("classifier", "ellipticity", None),
    ("classifier", "classify_elliptic", None),
    ("classifier", "classify_hyperbolic", None),
    ("classifier", "centralizer_case", None),
    ("garside", "DihedralEngine.from_letters", None),
    ("hnn", "BSAut.apply", None),
    ("dihedral", "dihedral_fix", None),
    ("dihedral", "brute_fixed", None),
    ("dihedral", "subgroup_ball", None),
    ("dihedral", "tree_fixed_set", None),
    ("words", "free_reduce", None),
    ("cli", "main", None),
] + [
    ("amalgam", name, None)
    for name in (
        "am_from_tokens", "am_mul", "am_inv", "am_from_artin",
        "am_to_artin", "am_cyclic_reduce", "am_is_elliptic", "am_is_central",
        "am_translation_length", "am_elliptic_data",
    )
]

# Counted only: called so often that a span each would dominate the cost.
COUNTED = [
    ("garside", "DihedralEngine.mul"),
    ("hnn", "bs_mul"),
    ("words", "odd_components"),
    ("words", "abelianization_vector"),
    ("presentation", "DefiningGraph.__hash__"),
]


def _hook_word_equal(counts, args, kwargs, verdict):
    counts["oracle.word_equal.status." + verdict.status] += 1
    counts["oracle.word_equal.method." + verdict.method] += 1
    counts["oracle.word_equal.expansions"] += verdict.expansions


def _hook_member(counts, args, kwargs, res):
    counts["oracle.member_of_parabolic.status." + res.status] += 1
    counts["oracle.member_of_parabolic.expansions"] += res.expansions


def _hook_build_ball(counts, args, kwargs, ball):
    counts["deligne.build_ball.vertices"] += len(ball.vertices)
    counts["deligne.build_ball.degraded"] += int(ball.degraded)


def _hook_fixed_vertices(counts, args, kwargs, result):
    counts["deligne.fixed_vertices.lower_bound"] += int(result[1])


def _hook_resolve(counts, args, kwargs, vid):
    counts["deligne.DeligneBall.resolve.none"] += int(vid is None)


HOOKS = {
    "word_equal": _hook_word_equal,
    "member_of_parabolic": _hook_member,
    "build_ball": _hook_build_ball,
    "fixed_vertices": _hook_fixed_vertices,
    "resolve": _hook_resolve,
}


def package_namespaces():
    """The artinfix package and its loaded modules."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "artinfix" or name.startswith("artinfix."))
    ]


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Context manager that installs the wrappers and restores them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_child = array("d")
        self.counts = _Counts()
        self.canonical_inputs: set = set()
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn, hook):
        idx = len(self.names)
        self.names.append(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, child = self.span_parent, self.span_op, self.span_child
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            child.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                parent = stack[-1]
                if parent >= 0:
                    child[parent] += t1 - t0
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _canonical_hook(self, fn):
        seen = self.canonical_inputs
        tracer = self

        @functools.wraps(fn)
        def wrapper(graph, word):
            # Keyed on plain tuples so that recording it hashes no DefiningGraph.
            if tracer.op_id >= 0:
                seen.add((graph.vertices, graph.edge_list, tuple(word)))
            return fn(graph, word)

        return wrapper

    # -- installation -------------------------------------------------------
    def _replace(self, module_name: str, path: str, make):
        import importlib

        module = importlib.import_module("artinfix." + module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            self._patches.append((owner, attr, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for ns in package_namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._patches.append((ns, key, original))

    def install(self) -> "Tracer":
        import artinfix.cli  # noqa: F401  (bind cli.main before patching)

        for module_name, path, hook in SPANNED:
            name = f"{module_name}.{path}"
            hook_fn = HOOKS.get(hook) if hook else None
            if name == "oracle.canonical_form":
                self._replace(
                    module_name, path,
                    lambda fn, n=name: self._span(n, self._canonical_hook(fn), None),
                )
            else:
                self._replace(
                    module_name, path,
                    lambda fn, n=name, h=hook_fn: self._span(n, fn, h),
                )
        for module_name, path in COUNTED:
            name = f"{module_name}.{path}"
            self._replace(module_name, path, lambda fn, n=name: self._counter(n, fn))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------
    def span_stats(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names = self.names
        for sid in range(len(self.span_start)):
            row = out[names[self.span_name[sid]]]
            dur = self.span_end[sid] - self.span_start[sid]
            row[0] += 1
            row[1] += dur
            row[2] += dur - self.span_child[sid]
        return {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in out.items()}

    def children_of(self, parent_name: str) -> list[list[str]]:
        """For every span named parent_name, the names of its direct children."""
        target = self.names.index(parent_name)
        kids: dict[int, list[str]] = {}
        for sid in range(len(self.span_start)):
            if self.span_name[sid] == target:
                kids[sid] = []
            parent = self.span_parent[sid]
            if parent in kids:
                kids[parent].append(self.names[self.span_name[sid]])
        return list(kids.values())

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header next to one binary file of arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = [
            ("name", self.span_name), ("start", self.span_start),
            ("end", self.span_end), ("parent", self.span_parent),
            ("op", self.span_op),
        ]
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays],
            "counts": dict(self.counts),
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
