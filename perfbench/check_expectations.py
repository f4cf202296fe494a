"""Cross-check the benchmark's expected outcomes with a word-level brute force.

Usage: python3 perfbench/check_expectations.py [--maxlen L]

Independent of the decision code: it reads the generated automaton text
itself and imports nothing from shufflecheck.  Interleaving membership is a
direct search over the multiset of open components.

* random-general: every recorded "fails" must have a counterexample of
  length at most L, and every recorded "holds" must have none.
* modular-net: the hand-derived witness of every "fails" pair (m copies of
  P's word, whose counted letters sum to a multiple of k, minus one copy)
  must be a real counterexample; "holds" pairs must have none up to L.
* deep-fragment: no counterexample up to L in prefix mode (the rule's
  proof covers all lengths; this only guards the generator).

Exits 0 when every pair agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


class Automaton:
    """Reader for the text that workloads.py writes."""

    def __init__(self, text: str):
        self.delta = {}
        for line in text.splitlines():
            key, _, value = line.partition(":")
            parts = value.split()
            if key == "initial":
                self.initial = parts[0]
            elif key == "finals":
                self.finals = frozenset(parts)
            elif key == "trans":
                q, a, p = parts
                self.delta[(q, a)] = p
        # keep only states on a path from the initial state to a final one
        fwd = self._closure({self.initial}, lambda q: [p for (s, _), p in self.delta.items() if s == q])
        back = self._closure(set(self.finals), lambda p: [s for (s, _), t in self.delta.items() if t == p])
        self.useful = fwd & back

    @staticmethod
    def _closure(seed, step):
        seen, todo = set(seed), list(seed)
        while todo:
            for nxt in step(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return frozenset(seen)

    def run(self, w):
        q = self.initial
        for a in w:
            q = self.delta.get((q, a))
            if q is None:
                return None
        return q

    def accepts(self, w) -> bool:
        return self.run(w) in self.finals


class Shuffle:
    """Membership in the iterated shuffle of P's nonempty words.

    prefix=True allows components that stop at any useful state (prefixes
    of P-words) instead of at a final state.
    """

    def __init__(self, P: Automaton, prefix: bool):
        self.P = P
        self.closable = P.useful if prefix else P.finals
        self.member = lru_cache(maxsize=None)(self._member)

    def _member(self, w) -> bool:
        P = self.P
        configs = {()}
        for a in w:
            nxt = set()
            for c in configs:
                p = P.delta.get((P.initial, a))
                if p in P.useful:
                    nxt.add(tuple(sorted(c + (p,))))
                for i, q in enumerate(c):
                    p = P.delta.get((q, a))
                    if p in P.useful:
                        nxt.add(tuple(sorted(c[:i] + (p,) + c[i + 1 :])))
            configs = nxt
            if not configs:
                return False
        return any(all(q in self.closable for q in c) for c in configs)

    def components(self, w):
        """Position tuples of w that spell a nonempty component."""
        P = self.P

        def rec(i, q, picked):
            if picked and q in self.closable:
                yield picked
            for j in range(i, len(w)):
                p = P.delta.get((q, w[j]))
                if p in P.useful:
                    yield from rec(j + 1, p, picked + (j,))

        return rec(0, P.initial, ())


def counterexample(P: Automaton, V: Automaton, prefix: bool, maxlen: int):
    """The first (w, remainder) up to maxlen that breaks closure, or None."""
    sh = Shuffle(P, prefix)
    for n in range(1, maxlen + 1):
        for w in itertools.product("ab", repeat=n):
            if not (V.accepts(w) and sh.member(w)):
                continue
            for pos in sh.components(w):
                taken = set(pos)
                u = tuple(a for i, a in enumerate(w) if i not in taken)
                if sh.member(u) and not V.accepts(u):
                    return w, u
    return None


def modular_witness(pid: str):
    """(w, remainder) that the modular-net rule predicts for a fails pair."""
    word, counted, k = pid.split(":")
    c = word.count(counted[1])
    m = next(m for m in itertools.count(1) if (m * c) % int(k) == 0)
    return tuple(word * m), tuple(word * (m - 1))


def check(workload: str, maxlen: int) -> list:
    expected = json.loads((HERE / "expected" / f"{workload}.json").read_text())
    problems = []
    for pid, (p_text, v_text, mode, want) in workloads.family(workload, expected).items():
        P, V = Automaton(p_text), Automaton(v_text)
        prefix = mode == "prefix"
        if want == "fails" and workload == "modular-net":
            w, u = modular_witness(pid)
            sh = Shuffle(P, prefix)
            ok = sh.member(w) and V.accepts(w) and sh.member(u) and not V.accepts(u)
        elif want in ("fails", "holds"):
            found = counterexample(P, V, prefix, maxlen)
            ok = (found is not None) == (want == "fails")
        else:
            ok = True  # unknown claims nothing
        if not ok:
            problems.append(f"{workload} {pid}: expected {want}, brute force disagrees")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--maxlen", type=int, default=8)
    args = ap.parse_args(argv)
    problems = []
    for workload in workloads.WORKLOADS:
        found = check(workload, args.maxlen)
        print(f"{workload}: {'ok' if not found else f'{len(found)} disagreements'}")
        problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
