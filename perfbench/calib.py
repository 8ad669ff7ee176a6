"""The calibration loop that defines the reference speed (see harness).

It imports nothing but `time`, so timing `import popmax.cli` after it in a
fresh interpreter measures popmax's imports in full.
"""

import time

CAL_REF_S = 0.0035  # calibration loop time that defines the reference speed

_N = 20_000
_ORDERED = [f"k{i}" for i in range(_N)]
_KEYS = [_ORDERED[i * 7919 % _N] for i in range(_N)]  # a fixed scattered order
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def calibration_loop() -> float:
    """Seconds a fixed loop takes right now: lookups in scattered order over
    a table larger than the cache, then string building and a join, the
    kind of work popmax does. It allocates one container, so no garbage
    collection runs inside it."""
    start = time.perf_counter()
    acc = 0
    for k in _KEYS:
        acc += _TABLE[k]
    parts = []
    for k in _KEYS[:5_000]:
        parts.append(k + "." + k)
    "\n".join(parts)
    return time.perf_counter() - start
