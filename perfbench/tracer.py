"""Spans and counters recorded by wrapping tribelief's public functions.

Each wrapped function is replaced on every ``tribelief`` module that bound
it, so ``from .semantics import value_profile`` in ``operators`` and
``ranking`` is traced along with ``semantics.value_profile`` itself.  Spans
stay in memory (start, end and parent) until ``write``; a layer's self time
is its span minus the spans of its children.
"""

import csv
import gzip
import sys
from array import array
from time import perf_counter


COUNTERS = []  # every counter a hook below adds to, in definition order


def _count(counter, measure):
    COUNTERS.append(counter)

    def hook(counters, args, result):
        counters[counter] += measure(args, result)

    return hook


_PAIRS = _count("operators.pairs_checked", lambda args, result: result.pairs_checked)

# module -> {function: counter hook or None}
LAYERS = {
    "syntax": {"parse": _count("syntax.parse.chars", lambda args, result: len(args[0])), "render": None},
    "semantics": {
        # the sum of 3**n over calls: a profile has one value per world
        "value_profile": _count("semantics.value_profile.worlds", lambda args, result: len(result)),
        "eval_formula": None,
    },
    "ranking": {"formula_of_ranking": None, "ranking_of_formula": None},
    "operators": {
        "sweep_all_tables": _count("operators.sweep_total", lambda args, result: result.total),
        "check_characterization": _PAIRS,
        "postulate_formula": None,
        "apply_semantic": None,
        "check_ci_postulates": _PAIRS,
    },
    "definability": {
        "closure": _count("definability.closure.members", lambda args, result: len(result)),
        "verify_nondefinability": None,
        "apply_op": None,
    },
    "cli": {"main": None},
}

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        # one entry per finished span, in the order spans end
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, seconds spent in children]

    def wrap(self, name, fn, hook=None):
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.calls[index] += 1
                self.self_s[index] += end - start - frame[1]
                self.span_id.append(span_id)
                self.span_parent.append(parent)
                self.span_name.append(index)
                self.span_start.append(start)
                self.span_end.append(end)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self, package="tribelief"):
        """Wrap every function in LAYERS on each module of ``package`` that bound it."""
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"{package}.{module_name}"]
            for fn_name, hook in functions.items():
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original, hook)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)

    def layers(self):
        """{name: (calls, self seconds)} for every wrapped function."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path):
        """Write the spans as gzip'd CSV: id, parent, name, start_us, end_us."""
        origin = min(self.span_start, default=0.0)
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("id", "parent", "name", "start_us", "end_us"))
            for i in range(len(self.span_id)):
                out.writerow((
                    self.span_id[i],
                    self.span_parent[i],
                    self.names[self.span_name[i]],
                    round((self.span_start[i] - origin) * 1e6, 1),
                    round((self.span_end[i] - origin) * 1e6, 1),
                ))
