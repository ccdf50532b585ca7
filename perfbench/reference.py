"""Stored reference paths: the "path unchanged" gate.

For every slot and path the reference holds the event kinds (as codes)
and the breakpoints.  A traced path matches when its kinds are identical
and every breakpoint agrees to 1e-9 relative (equal infinities included).

Regenerate after a change that is meant to alter the paths:

    python3 perfbench/reference.py

It rebuilds every slot of every workload and writes each file afresh.
"""

from __future__ import annotations

from pathlib import Path

import env  # noqa: F401  (pins the thread pools before numpy loads)
import numpy as np

KIND_CODES = {"fuse": 0, "split": 1, "switch_order": 2, "switch_sign": 3,
              "terminate": 4}
BREAKPOINT_RTOL = 1e-9
DIR = Path(__file__).resolve().parent / "reference"


def encode(path) -> tuple[np.ndarray, np.ndarray]:
    kinds = np.array([KIND_CODES.get(e.kind, 255) for e in path.events], dtype=np.uint8)
    etas = np.array([e.eta for e in path.events], dtype=float)
    return kinds, etas


def _key(slot: int, label: str) -> str:
    return f"s{slot}/{label}"


class Reference:
    def __init__(self, workload: str):
        self._npz = np.load(DIR / f"{workload}.npz")

    def etas(self, slot: int, label: str) -> np.ndarray:
        return self._npz[_key(slot, label) + "/eta"]

    def last_breakpoint(self, slot: int, label: str) -> float:
        finite = self.etas(slot, label)[:-1]
        return float(finite[-1]) if finite.size else 1.0

    def mismatch(self, slot: int, label: str, path) -> str | None:
        """None when the path matches the reference, else a reason."""
        kinds, etas = encode(path)
        try:
            ref_kinds = self._npz[_key(slot, label) + "/kinds"]
            ref_etas = self.etas(slot, label)
        except KeyError:
            return "no reference path"
        if kinds.size != ref_kinds.size or np.any(kinds != ref_kinds):
            diff = np.flatnonzero(kinds[:ref_kinds.size] != ref_kinds[:kinds.size])
            first = int(diff[0]) if diff.size else min(kinds.size, ref_kinds.size)
            return (f"event kinds differ from event {first} "
                    f"({kinds.size} events, reference {ref_kinds.size})")
        with np.errstate(invalid="ignore"):
            close = np.abs(etas - ref_etas) \
                <= BREAKPOINT_RTOL * np.maximum(np.abs(etas), np.abs(ref_etas))
        same = (etas == ref_etas) | close
        if not np.all(same):
            i = int(np.flatnonzero(~same)[0])
            return f"breakpoint {i} is {float(etas[i])!r}, reference {float(ref_etas[i])!r}"
        return None


def _build(workload_name: str) -> None:
    from workloads import SLOTS, WORKLOADS, setup
    from slopepath import engine

    arrays = {}
    for slot in range(SLOTS):
        for job in setup(WORKLOADS[workload_name], slot):
            kinds, etas = encode(engine.run_path(job.instance, job.ray))
            arrays[_key(slot, job.label) + "/kinds"] = kinds
            arrays[_key(slot, job.label) + "/eta"] = etas
        print(f"{workload_name}: slot {slot} done", flush=True)
    DIR.mkdir(exist_ok=True)
    np.savez_compressed(DIR / f"{workload_name}.npz", **arrays)


def main() -> None:
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        _build(name)


if __name__ == "__main__":
    env.use_checkout_library()
    main()
