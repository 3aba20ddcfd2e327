"""Test helpers for the bit-plane basis sweep.

A plane is a non-negative int whose bit k is a wire's value in lane k.
These helpers convert between planes and the per-lane values a test
states its expectations in, without going through ``qsquare``.
"""

import numpy as np


def plane_of(lane) -> int:
    """Plane of a bool (or 0/1) array, element k -> bit k."""
    packed = np.packbits(np.asarray(lane, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def lanes_of(plane: int, lanes: int) -> np.ndarray:
    """Bool array of a plane's first ``lanes`` bits; raises OverflowError
    if the plane holds a bit past them."""
    raw = np.frombuffer(plane.to_bytes((lanes + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=lanes, bitorder="little").astype(bool)


def planes_of(values, width: int) -> list[int]:
    """Planes 0..width-1 of a list of Python ints, value k in lane k."""
    return [sum(((v >> i) & 1) << k for k, v in enumerate(values)) for i in range(width)]


def ints_of(planes, lanes: int) -> list[int]:
    """Python int of every lane, plane i giving bit i."""
    return [sum(((p >> k) & 1) << i for i, p in enumerate(planes)) for k in range(lanes)]


def packed(result, wires, lanes: int) -> np.ndarray:
    """int64 array of every lane, read off the given wires little-endian."""
    out = np.zeros(lanes, dtype=np.int64)
    for i, w in enumerate(wires):
        out |= lanes_of(result.wires[w], lanes).astype(np.int64) << i
    return out


def pack_wires(result_wires, wires) -> int:
    """Little-endian integer read off the given wires of a one-lane run."""
    return sum((result_wires[w] & 1) << i for i, w in enumerate(wires))
