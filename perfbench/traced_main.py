"""Traced entry point: run one permsort command and record spans around it.

    python3 traced_main.py SPANS_JSON permsort-args...

``SPANS_JSON`` receives, when the process exits, one JSON object:

    {"import_s": seconds taken by `import permsort.cli`,
     "spans": [[name, start, end, parent index or -1], ...],
     "validated_swaps": swaps passed to validate_decomposition, summed}

The swap count is taken here, not from the printed output: the package
validates each decomposition at several levels (per cycle, whole, again in
the command line), and ``bench`` prints no sequence at all.

Before ``permsort.cli.main`` runs, every module attribute in the package
that names one of the ``TRACED`` public functions is replaced by a wrapper
that records one span per call, so calls between modules are caught
wherever they are made from. Nothing inside permsort is changed on disk.
Needs the checkout's ``src`` on PYTHONPATH, as the untraced run does.
"""
from __future__ import annotations

import atexit
import json
import sys
import time

TRACED = {
    "permsort.costs": ("parse_cost_input", "from_pairs"),
    "permsort.optimize": ("optimize_costs", "all_pairs_optimize", "bellman_ford",
                          "expand_decomposition"),
    "permsort.mld": ("min_cost_mld", "std_decomposition"),
    "permsort.multicycle": ("decompose", "permutation_lower_bound", "merge_cycles"),
    "permsort.permutation": ("validate_decomposition",),
    # _cayley_graph is private, but its cold build is most of an oracle command
    "permsort.oracle": ("mcd_exact", "_cayley_graph"),
    "permsort.cli": ("main",),
}


class SpanRecorder:
    """Spans of one process, kept in memory and written out at exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.validated_swaps = 0

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        validates = name == "permutation.validate_decomposition"

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, clock(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            if validates:
                self.validated_swaps += len(args[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = clock()

        return traced

    def write(self, path: str, import_s: float):
        with open(path, "w") as f:
            json.dump({"import_s": import_s, "spans": self.spans,
                       "validated_swaps": self.validated_swaps}, f)


def install(recorder: SpanRecorder):
    """Swap each traced function for its wrapper at every attribute naming it."""
    wrappers = {}
    for mod_name, names in TRACED.items():
        module = sys.modules.get(mod_name)
        if module is None:
            continue
        layer = mod_name.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue    # renamed or removed: its metrics read 0
            wrappers[id(fn)] = recorder.wrap(f"{layer}.{name.lstrip('_')}", fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "permsort" and not mod_name.startswith("permsort."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and callable(value):
                setattr(module, attr, wrappers[id(value)])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import permsort.cli
    import_s = time.perf_counter() - t0
    recorder = SpanRecorder()
    install(recorder)
    atexit.register(recorder.write, out_path, import_s)
    return permsort.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
