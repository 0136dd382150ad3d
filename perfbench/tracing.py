"""Span recording around the public functions of the symcube modules.

Imported only inside a program process (``probe.py --trace``).  install()
replaces every binding of each traced function in the symcube package,
so ``symcube.multiplicity.dim_weight`` and ``symcube.dims.dim_weight``
both lead to the same wrapper.  Each wrapper opens a span (name, start,
parent) on a stack and closes it on return or raise.  A closed span is
folded at once into totals for its (parent, name) pair: the largest
operation opens about four million spans, far too many to keep one
record each.  Self time is a span's duration minus the durations of its
child spans, which in one thread never overlap.  The totals stay in
memory and are written out once, when the process ends.
"""

import importlib
from time import perf_counter

# (module, function) pairs whose spans the benchmark records.
TRACED = [
    ("cli", "main"),
    ("multiplicity", "decompose_symmetric_power"),
    ("multiplicity", "multiplicity_sym"),
    ("dims", "dim_weight"),
    ("dims", "dim_closed_form"),
    ("dims", "dim_by_convolution"),
    ("characters", "character_symmetric_power"),
    ("characters", "greedy_decompose"),
    ("characters", "character_irrep"),
    ("core", "character_sub"),
    ("core", "parse_character"),
    ("core", "weight_of_monomial"),
    ("oracle", "enumerate_character"),
    ("oracle", "convolution_bruteforce"),
    ("oracle", "c2_bruteforce"),
]
MODULES = ("core", "dims", "multiplicity", "characters", "oracle", "cli")


class Recorder:
    """Open-span stack plus per-(parent, name) totals for one process."""

    def __init__(self):
        self.stack = []  # open spans: [name, start, time covered by children]
        self.edges = {}  # (parent, name) -> [calls, total_s, self_s]
        self.closed_form_args = set()  # distinct normalized indices seen
        self.nonzero_multiplicities = 0

    def wrap(self, name, func):
        stack, edges = self.stack, self.edges
        if name == "dims.dim_closed_form":
            seen = self.closed_form_args

            def observe(args, result):
                seen.add(args)
        elif name == "multiplicity.multiplicity_sym":
            def observe(args, result):
                if result:
                    self.nonzero_multiplicities += 1
        else:
            observe = None

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0]
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - span[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                key = (parent[0] if parent else "", name)
                totals = edges.get(key)
                if totals is None:
                    totals = edges[key] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - span[2]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def summary(self):
        """JSON-ready totals: one row per (parent, name) edge."""
        return {
            "edges": [
                {"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (parent, name), (calls, total, self_s)
                in sorted(self.edges.items())
            ],
            "closed_form_distinct": len(self.closed_form_args),
            "multiplicity_nonzero": self.nonzero_multiplicities,
        }


def install():
    """Wrap every traced function wherever symcube binds it by name."""
    recorder = Recorder()
    modules = [importlib.import_module("symcube")] + [
        importlib.import_module(f"symcube.{mod}") for mod in MODULES
    ]
    for mod, func_name in TRACED:
        home = importlib.import_module(f"symcube.{mod}")
        original = getattr(home, func_name, None)
        if original is None:
            continue  # a later version may drop a function; it reports 0 calls
        wrapper = recorder.wrap(f"{mod}.{func_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return recorder
