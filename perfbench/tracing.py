"""Spans around the calls into each layer, recorded from outside the program.

Each wrapped name is replaced at the place its caller looks it up (the
module global, or the class attribute for a method), so the program
itself is unchanged.  A span holds its name, start, end, parent span and
pair id.  Spans stay in memory in flat arrays and are written out when
the run ends.  A span's self time is its duration minus the time of its
direct children; calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

ROOTS = ("decision.decide_sp", "decision.replay_certificate")


def _hit(result):
    return (("hits", result is not None),)


def _size(key):
    return lambda result: ((key, len(result)),)


def _first_size(key):
    return lambda result: ((key, len(result[0])),)


def _km(result):
    return (("nodes", len(result.nodes)), ("capped", result.capped))


def _finite(result):
    return (("finite", result.status == "finite"),)


def _explored(result):
    return (("states", result.states_explored),)


def _w_states(result):
    return (("states", len(result.automaton.states)),)


# (module, attribute, result counters).  Every name sits where the calling
# code looks it up at run time.
WRAPPED = (
    ("decision", "sp_falsify", _hit),
    ("decision", "decide_alf_pre_finite", None),
    ("decision", "decide_alf_zero_finite", _finite),
    ("decision", "decide_sp_via_net", None),
    ("decision", "check_closure_prefix", _explored),
    ("decision", "check_closure_zero", _explored),
    ("oracle", "iterated_shuffle_upto", _size("words")),
    ("oracle", "one_factor_removals", _size("removals")),
    ("petri", "karp_miller", _km),
    ("petri", "reachable_markings", _first_size("markings")),
    ("petri", "build_product", _first_size("states")),
    ("petri", "build_np_v_full", None),
    ("representation", "build_w_delta", _w_states),
)


class Tracer:
    def __init__(self):
        self.labels: list = []
        self.name = array("i")
        self.parent = array("i")
        self.pair = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # summed duration of direct children
        self.stack: list = []
        self.pair_id = -1
        # (root label, label, counter) -> summed value
        self.counters: dict = defaultdict(int)

    def wrap(self, label: str, fn, count=None):
        nid = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            parent = stack[-1] if stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.pair.append(self.pair_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.child.append(0.0)
            root = self.labels[self.name[stack[0]]] if stack else label
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if parent >= 0:
                    self.child[parent] += t1 - t0
            if count is not None:
                for key, value in count(result):
                    self.counters[(root, label, key)] += value
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every name of WRAPPED, the engine's successors method and
        the two root entry points of `package` (the imported shufflecheck)."""
        for module, attr, count in WRAPPED:
            mod = getattr(package, module)
            setattr(mod, attr, self.wrap(f"{module}.{attr}", getattr(mod, attr), count))
        engine = package.engine.ShuffleEngine
        engine.successors = self.wrap("engine.successors", engine.successors)
        for label in ROOTS:
            module, attr = label.split(".")
            mod = getattr(package, module)
            setattr(mod, attr, self.wrap(label, getattr(mod, attr)))

    def summary(self) -> dict:
        """{root label: {label: {calls, s, self_s, <counters>}}}.

        Spans of one label are counted under the root entry point (decide
        or replay) that caused them; every span has one of the two roots,
        because the run calls the program only through them.
        """
        out = {
            r: {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in self.labels}
            for r in ROOTS
        }
        n = len(self.name)
        root = array("i", [0]) * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            stats = out[self.labels[self.name[root[i]]]][self.labels[self.name[i]]]
            dur = self.end[i] - self.start[i]
            stats["calls"] += 1
            stats["s"] += dur
            stats["self_s"] += dur - self.child[i]
        for (r, label, key), value in self.counters.items():
            out[r][label][key] = value
        return out

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "labels.json").write_text(json.dumps(self.labels) + "\n")
        for column in ("name", "parent", "pair", "start", "end"):
            with open(directory / f"{column}.{getattr(self, column).typecode}", "wb") as fh:
                getattr(self, column).tofile(fh)
