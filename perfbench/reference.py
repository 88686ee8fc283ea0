"""Fixed loads, free of pathcong, that gauge how fast this machine runs now.

On a shared host the same pass can take half again as long from one
minute to the next.  Each pass times a load just before and just after its
operations; its time divided by the load's time cancels most of that
drift.  A load touches no pathcong code, so a change to pathcong cannot
move it.  Drift slows kinds of work unequally, so each workload is gauged
by the load closest to where its time goes:

  python  exact Fraction elimination over sparse dict rows and hashing of
          small bytes objects: small-object interpreter work, as in every
          workload that verifies quivers
  table   filling a large row-major table in a Python double loop, as
          build_semigroup does for the quivers reject-oversize refuses
"""

import gc
import time
from fractions import Fraction

SIZE = 28
REPEAT = 3
TABLE_SIZE = 2000


def _eliminate() -> int:
    rows = [
        {j: Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 5 + 1)
         for j in range(SIZE) if (i * j) % 3 != 1 and (i * 7 + j * 3) % 11 != 5}
        for i in range(SIZE)
    ]
    pivots: dict[int, dict] = {}
    for row in rows:
        work = dict(row)
        for p, prow in pivots.items():
            c = work.get(p)
            if c:
                for k, v in prow.items():
                    nv = work.get(k, 0) - c * v
                    if nv:
                        work[k] = nv
                    else:
                        work.pop(k, None)
        if work:
            p = min(work)
            inv = 1 / work[p]
            pivots[p] = {k: v * inv for k, v in work.items()}
    return len(pivots)


def _hash_bytes() -> int:
    seen = set()
    for i in range(60000):
        seen.add(bytes((i % 251, (i * 7) % 251, (i * 13) % 17)))
    return len(seen)


def _python_load() -> None:
    for _ in range(REPEAT):
        _eliminate()
        _hash_bytes()


def _table_load() -> tuple:
    n = TABLE_SIZE
    source = [i % 7 for i in range(n)]
    target = [(i * 3) % 7 for i in range(n)]
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        row, t = table[i], target[i]
        for j in range(n):
            if t == source[j]:
                row[j] = (i + j) % n
    return tuple(tuple(row) for row in table)


LOADS = {"python": _python_load, "table": _table_load}


def reference_seconds(kind: str) -> float:
    """Seconds this machine takes for the fixed load of this kind, now.

    The cyclic garbage collector is off meanwhile: its passes would scan
    whatever heap the program left, and tie the load's time to pathcong.
    """
    load = LOADS[kind]
    gc.disable()
    try:
        start = time.perf_counter()
        load()
        return time.perf_counter() - start
    finally:
        gc.enable()
