"""Small unit helpers shared across the reproduction.

All memory quantities in this codebase are expressed in **MB** (the unit
the paper uses throughout, e.g. "Heap Size 4404MB"), and all durations in
**seconds** unless a name says otherwise.
"""
from __future__ import annotations

import math
import zlib

GB = 1024.0


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division; ``b`` must be positive."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def clamp(x: float, lo: float, hi: float) -> float:
    """Clamp ``x`` into ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"clamp bounds inverted: lo={lo} hi={hi}")
    return max(lo, min(hi, x))


def stable_seed(*parts) -> int:
    """Deterministic 32-bit seed from arbitrary values.

    ``hash()`` on strings is randomized per process (PYTHONHASHSEED), so
    it must never seed simulation RNGs — the experiment tables would
    change between runs. CRC32 over the repr is stable everywhere.
    """
    return zlib.crc32("|".join(repr(p) for p in parts).encode()) & 0xFFFFFFFF


def pctile(values, q: float) -> float:
    """Simple percentile (linear interpolation) without numpy import cost."""
    vs = sorted(values)
    if not vs:
        raise ValueError("pctile of empty sequence")
    if len(vs) == 1:
        return float(vs[0])
    pos = (len(vs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return float(vs[lo] * (1 - frac) + vs[hi] * frac)
