"""Machine-speed calibration for a shared, noisy box.

On the 2-core sandbox the speed of one core drifts by 5-15 % from
second to second and from run to run (co-tenants, frequency): process
CPU time per request moves exactly as wall time does, so it is the
machine, not scheduling.  Ten identical runs then spread wider than any
honest regression bound.  ROADMAP's answer is to normalise to a fixed
calibration loop; this module is that loop.

A :class:`Calibrator` times one fixed pure-Python kernel (bytecode,
dict and list traffic, SHA-256 and big-int XOR over 1 KiB — the same
diet as the request path) in short slices *between* measured intervals,
never inside one.  ``factor`` turns a measured duration into the
duration the reference machine would have shown: ``REFERENCE_SECONDS /
mean(slice seconds around the interval)``.  The program under test
never runs the kernel, so a change that slows the program still shows
in full; only the machine's own wobble divides out.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

#: Kernel time on the machine speed every reported time is expressed
#: in: the median slice on the sandbox the baseline was recorded on.
REFERENCE_SECONDS = 0.0033

_PAYLOAD = bytes(range(256)) * 4
#: Kernel rounds per slice: about 3 ms, long enough to time well and
#: short enough to fit between batches of ~100 ms.
_ROUNDS = 20


def _kernel() -> int:
    table: dict[int, int] = {}
    stack: list[int] = []
    acc = 0
    for index in range(700):
        table[index & 127] = acc
        acc = (acc * 31 + index) & 0xFFFFFFFF
        stack.append(acc)
        if index & 3 == 3:
            acc ^= stack.pop() + table[(index >> 2) & 127]
    digest = _PAYLOAD
    for _ in range(6):
        block = hashlib.sha256(digest).digest()
        digest = (
            int.from_bytes(_PAYLOAD, "big")
            ^ int.from_bytes(block * 32, "big")
        ).to_bytes(len(_PAYLOAD), "big")
    text = digest.hex()
    parts = [text[i:i + 16] for i in range(0, 512, 16)]
    return acc + len("/".join(parts).split("/"))


class Calibrator:
    """Times the kernel on request and remembers every slice."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def slice(self) -> float:
        started = perf_counter()
        for _ in range(_ROUNDS):
            _kernel()
        elapsed = perf_counter() - started
        self.slices.append(elapsed)
        return elapsed

    @staticmethod
    def factor(slice_seconds: list) -> float:
        """Multiplier that maps a duration measured next to these
        slices onto the reference machine speed."""
        return REFERENCE_SECONDS * len(slice_seconds) / sum(slice_seconds)
