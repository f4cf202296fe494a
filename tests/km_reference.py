"""Karp–Miller on dense tuple markings, the reference for `petri.karp_miller`.

`shufflecheck.petri.karp_miller` runs on packed int markings; this is the
same tree built the textbook way, one tuple of counts per marking with
OMEGA for an unbounded count, so a test can require the two trees to agree
node for node.  It reads only the net's positional pre- and post-sets,
each arc of weight 1, and has no overflow rule: its counts are exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import add, ge
from typing import Optional

from shufflecheck.petri import DEFAULT_KM_NODE_CAP, OMEGA, KMResult


@dataclass(slots=True)
class DenseNode:
    marking: tuple  # with OMEGA where the count is unbounded
    parent: Optional["DenseNode"]
    via: Optional[str]
    accelerated: bool = False


def _path_to_root(node: DenseNode) -> list:
    path = []
    while node.parent is not None:
        path.append(node.via)
        node = node.parent
    path.reverse()
    return path


def karp_miller(net, m0, node_cap: int = DEFAULT_KM_NODE_CAP, stop_at=()) -> KMResult:
    """The Karp–Miller tree of `net` from the CounterVector m0, with the
    node order, acceleration rule and pump that `petri.karp_miller`
    documents.  It stops at the first node that covers a dense marking of
    stop_at, of any counts: on targets with no counter token, that mark
    one place of each of the net's groups, this is `petri.karp_miller`'s
    stop at a target's group value."""
    width = len(net.places)
    effect = []
    for inputs, outputs in zip(net.pre, net.post):
        e = [0] * width
        for i in inputs:
            e[i] -= 1
        for i in outputs:
            e[i] += 1
        effect.append(tuple(e))

    def covers_any(m):
        return any(all(map(ge, m, t)) for t in stop_at)

    start = net.marking(m0)
    root = DenseNode(start, None, None)
    nodes = [root]
    if covers_any(start):
        return KMResult(False, nodes, None, stopped=True)
    processed = {start}
    queue = deque([root])
    pump = None
    unbounded = False
    while queue:
        node = queue.popleft()
        nm = node.marking
        for j, t in enumerate(net.order):
            if not all(nm[i] >= 1 for i in net.pre[j]):
                continue
            m = tuple(map(add, nm, effect[j]))
            accelerated = False
            anc = node
            while anc is not None:
                am = anc.marking
                if m != am and all(map(ge, m, am)):
                    if pump is None and OMEGA not in nm:
                        prefix = _path_to_root(anc)
                        full = _path_to_root(node) + [t]
                        pump = (tuple(prefix), tuple(full[len(prefix):]))
                    m = tuple([OMEGA if x > y else x for x, y in zip(m, am)])
                    accelerated = unbounded = True
                anc = anc.parent
            if m in processed:
                continue
            processed.add(m)
            child = DenseNode(m, node, t, accelerated)
            nodes.append(child)
            if covers_any(m):
                return KMResult(False, nodes, pump, stopped=True)
            if len(nodes) > node_cap:
                return KMResult(False, nodes, pump, capped=True)
            queue.append(child)
    return KMResult(not unbounded, nodes, pump)
