"""The bench's reference computation: a fixed pure-Python task, no cpd code.

    python3 reference.py RESULT

It does what cpd's explorer and relations spend their time on: it builds
trees of frozen dataclasses, canonicalises them recursively into nested
tuples, hash-conses those in a dict and fills a table of tuple pairs.  Its
heap of some 24,000 hash-consed tuples makes it feel a busy memory system
the way cpd does; a small loop that fits in the cache would not.  It writes
the wall and CPU time of that work as JSON to RESULT.  The run loop times
it in a fresh interpreter after every sample, so the samples' times can be
read against the speed the machine had over the same stretch of time.
"""

import json
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    op: str
    kids: tuple


def build(depth: int, seed: int) -> Node:
    if depth == 0:
        return Node("leaf", (seed % 9973,))
    return Node("alt" if seed % 3 else "seq",
                tuple(build(depth - 1, seed * 7 + k) for k in range(2 + seed % 2)))


def canonical(node: Node, memo: dict) -> tuple:
    if node.op == "leaf":
        return node.kids
    kids = [canonical(kid, memo) for kid in node.kids]
    if node.op == "alt":
        kids.sort(key=hash)
    key = (node.op, tuple(kids))
    return memo.setdefault(key, key)


def work() -> int:
    memo: dict = {}
    roots = [build(5, seed) for seed in range(360)]
    keys = [canonical(root, memo) for _ in range(3) for root in roots]
    pairs = {}
    for i, a in enumerate(keys):
        for b in keys[i % 40::41]:
            pairs[(a, b)] = a == b
    return len(memo) + len(pairs)


def main() -> int:
    wall = time.perf_counter()
    cpu = time.process_time()
    size = work()
    record = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu, "size": size}
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
