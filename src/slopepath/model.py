"""Domain types: problem instances, weight rays, groups, paths.

Everything here is regarded as immutable after construction except
:class:`GroupStructure`, the plain record of one point's groups that the
structure reader, the grouped-Gram builder and the optimality check share.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    InvalidAtZeroError,
    NonFiniteError,
    OutOfRangeError,
    SingularGramError,
    ValidationError,
    ZeroDirectionError,
)

__all__ = [
    "ProblemInstance",
    "WeightRay",
    "GroupStructure",
    "PathEvent",
    "PathSegment",
    "SolutionPath",
    "validate_instance",
    "validate_ray",
    "save_instance",
    "load_instance",
    "save_path",
    "load_path",
    "instance_hash",
]

#: relative pivot threshold for declaring the Gram matrix singular
SINGULARITY_RTOL = 1e-10

EVENT_KINDS = ("fuse", "split", "switch_order", "switch_sign", "terminate")


@dataclass(frozen=True)
class ProblemInstance:
    """Least-squares data (y, X) with an optional ridge weight.

    The loss is 0.5 ||y - X beta||^2 + 0.5 * ridge * ||beta||^2; a positive
    ridge makes rank-deficient designs usable by the path engine.
    """

    y: np.ndarray
    X: np.ndarray
    ridge: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "ridge", float(self.ridge))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def gradient(self, beta: np.ndarray) -> np.ndarray:
        """Loss gradient X^T(X beta - y) + ridge * beta."""
        beta = np.asarray(beta, dtype=float)
        g = self.X.T @ (self.X @ beta - self.y)
        if self.ridge:
            g = g + self.ridge * beta
        return g


@dataclass(frozen=True)
class WeightRay:
    """Weight ray lam(eta) = lam0 + eta * lam_bar, valid on [0, eta_max)."""

    lam0: np.ndarray
    lam_bar: np.ndarray
    eta_max: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "lam0", np.asarray(self.lam0, dtype=float))
        object.__setattr__(self, "lam_bar", np.asarray(self.lam_bar, dtype=float))
        object.__setattr__(self, "eta_max", float(self.eta_max))

    @property
    def p(self) -> int:
        return self.lam0.size

    def at(self, eta: float) -> np.ndarray:
        return self.lam0 + eta * self.lam_bar

    def describe(self) -> dict:
        return {
            "lam0": self.lam0.tolist(),
            "lam_bar": self.lam_bar.tolist(),
            "eta_max": self.eta_max,
        }


@dataclass
class GroupStructure:
    """Fused-group bookkeeping for one point of a path.

    ``order`` lists coordinate indices position by position: the zero group
    occupies positions [0, offsets[0]) and nonzero group j (ascending
    shared absolute value ``levels[j]``) occupies
    positions [offsets[j], offsets[j+1]).  ``signs`` holds, per coordinate,
    minus the sign of the coefficient for nonzero coordinates and the sign
    of the loss gradient for zeroed ones.
    """

    order: np.ndarray
    offsets: np.ndarray
    levels: np.ndarray
    signs: np.ndarray

    @property
    def p(self) -> int:
        return self.order.size

    @property
    def n_groups(self) -> int:
        """Number of nonzero groups."""
        return self.levels.size

    @property
    def zero_count(self) -> int:
        return int(self.offsets[0])

    def group_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def groups(self) -> list[np.ndarray]:
        """Index sets [zero group, G_1, ..., G_gbar] in ascending level order."""
        return np.split(np.array(self.order, dtype=int), self.offsets[:-1])


def scatter_groups(order, offsets, signs, grouped) -> np.ndarray:
    """Coefficient-space vector holding -signs[i] * grouped[j] for every
    member i of nonzero group j, and zero on the zero group."""
    members = order[offsets[0]:]
    out = np.zeros(order.size)
    out[members] = -signs[members] * grouped.repeat(offsets[1:] - offsets[:-1])
    return out


@dataclass(frozen=True)
class PathEvent:
    """A breakpoint of the path.

    ``kind`` is one of ``fuse``, ``split``, ``switch_order``,
    ``switch_sign``, ``terminate``.  ``g`` and ``k`` follow the grouped
    conventions: fuse carries the lower group index g in 0..gbar-1 (g = 0
    is a group vanishing into zero), split carries (g, k) with k >= 2 for
    nonzero groups and k >= 1 for activations out of the zero group,
    switch_order carries the lower position k in 1..p-1.  ``nnz`` and
    ``n_groups`` record the state immediately after the event.
    """

    kind: str
    eta: float
    g: int | None = None
    k: int | None = None
    nnz: int | None = None
    n_groups: int | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValidationError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eta": self.eta,
            "g": self.g,
            "k": self.k,
            "nnz": self.nnz,
            "n_groups": self.n_groups,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PathEvent":
        return cls(kind=d["kind"], eta=d["eta"], g=d.get("g"), k=d.get("k"),
                   nnz=d.get("nnz"), n_groups=d.get("n_groups"))


@dataclass(frozen=True)
class PathSegment:
    """One linear piece beta(eta) = beta_start + (eta - eta_start) * slope;
    consecutive segments may share one ``slope`` array: do not write to it."""

    eta_start: float
    eta_end: float
    beta_start: np.ndarray
    slope: np.ndarray
    ending_event: PathEvent

    def __post_init__(self):
        object.__setattr__(self, "beta_start", np.asarray(self.beta_start, dtype=float))
        object.__setattr__(self, "slope", np.asarray(self.slope, dtype=float))
        if not self.eta_start < self.eta_end:
            raise ValidationError("segment must have eta_start < eta_end")

    def value(self, eta: float) -> np.ndarray:
        return self.beta_start + (eta - self.eta_start) * self.slope


@dataclass(frozen=True)
class SolutionPath:
    """Ordered segments and events covering eta in [0, eta_max)."""

    segments: tuple[PathSegment, ...]
    events: tuple[PathEvent, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        # segment starts for the binary search in eval_path, built once
        object.__setattr__(self, "_starts", [seg.eta_start for seg in self.segments])

    @property
    def eta_end(self) -> float:
        return self.segments[-1].eta_end if self.segments else 0.0

    def breakpoints(self) -> Iterator[PathEvent]:
        """Events excluding the terminal marker."""
        return (e for e in self.events if e.kind != "terminate")


# --- validation ----------------------------------------------------------


def check_weight_order(lam) -> np.ndarray:
    """Return ``lam`` as floats; raise ValidationError unless it is
    ascending and nonnegative."""
    lam = np.asarray(lam, dtype=float)
    if lam.size and (lam[0] < 0 or (np.diff(lam) < 0).any()):
        raise ValidationError("weights must be ascending and nonnegative")
    return lam


def validate_instance(instance: ProblemInstance) -> ProblemInstance:
    """Check finiteness, shape, and invertibility of the ridge-adjusted Gram.

    Returns the instance with ``effective_rank`` recorded on it; raises
    :class:`NonFiniteError` or :class:`SingularGramError` otherwise.
    """
    y, X = instance.y, instance.X
    if X.ndim != 2 or y.ndim != 1:
        raise ValidationError("X must be 2-d and y 1-d")
    n, p = X.shape
    if n < 1 or p < 1 or y.size != n:
        raise ValidationError(f"inconsistent shapes: X is {n}x{p}, y has {y.size}")
    if not (np.isfinite(X).all() and np.isfinite(y).all() and np.isfinite(instance.ridge)):
        raise NonFiniteError("instance contains non-finite entries")
    if instance.ridge < 0:
        raise ValidationError("ridge must be nonnegative")

    gram = X.T @ X + instance.ridge * np.eye(p)
    eigvals = np.linalg.eigvalsh(gram)
    tol = SINGULARITY_RTOL * max(float(np.max(np.diag(gram))), 1e-300)
    if eigvals[0] < tol:
        raise SingularGramError(
            "Gram matrix is numerically singular (smallest eigenvalue "
            f"{eigvals[0]:.3e} below {tol:.3e}); set ridge > 0 to proceed"
        )
    object.__setattr__(instance, "effective_rank", int(np.sum(eigvals > tol)))
    return instance


def validate_ray(lam0, lam_bar) -> WeightRay:
    """Build a weight ray, computing the largest admissible eta_max.

    The ordering/nonnegativity constraints are p affine functions of eta;
    eta_max is the first eta at which any of them would turn negative
    (infinite when none does).
    """
    lam0 = np.asarray(lam0, dtype=float)
    lam_bar = np.asarray(lam_bar, dtype=float)
    if lam0.shape != lam_bar.shape or lam0.ndim != 1 or lam0.size == 0:
        raise ValidationError("lam0 and lam_bar must be 1-d vectors of equal length")
    if not (np.isfinite(lam0).all() and np.isfinite(lam_bar).all()):
        raise NonFiniteError("weight ray contains non-finite entries")
    if not np.any(lam_bar != 0):
        raise ZeroDirectionError("search direction lam_bar must be nonzero")

    # constraint values at eta=0 and their slopes: lam_1 >= 0 and the
    # p-1 adjacent gaps lam_{i+1} - lam_i >= 0
    vals = np.concatenate(([lam0[0]], np.diff(lam0)))
    rates = np.concatenate(([lam_bar[0]], np.diff(lam_bar)))
    if np.any(vals < 0):
        raise InvalidAtZeroError("lam0 must be ascending and nonnegative")

    eta_max = math.inf
    shrinking = rates < 0
    if np.any(shrinking):
        eta_max = float(np.min(vals[shrinking] / -rates[shrinking]))
    if eta_max <= 0:
        raise InvalidAtZeroError(
            "lam_bar breaks the weight ordering immediately (eta_max = 0)"
        )
    return WeightRay(lam0, lam_bar, eta_max)


# --- serialization -------------------------------------------------------


def instance_hash(instance: ProblemInstance) -> str:
    """SHA-256 over the raw bytes of (y, X, ridge)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(instance.y).tobytes())
    h.update(np.ascontiguousarray(instance.X).tobytes())
    h.update(np.float64(instance.ridge).tobytes())
    return h.hexdigest()


def _format_float(x: float) -> str:
    return repr(float(x))


def save_instance(instance: ProblemInstance, csv_path, metadata: dict | None = None) -> None:
    """Write an instance as CSV (a header row, then column 1 = y and the
    rest = X) plus a JSON sidecar ``<csv_path>.meta.json`` holding ridge and
    metadata."""
    csv_path = Path(csv_path)
    lines = [",".join(["y"] + [f"x{j + 1}" for j in range(instance.p)])]
    for i in range(instance.n):
        row = [instance.y[i]] + list(instance.X[i])
        lines.append(",".join(_format_float(v) for v in row))
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar = {"ridge": instance.ridge}
    if metadata:
        sidecar["metadata"] = metadata
    Path(str(csv_path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_instance(csv_path) -> ProblemInstance:
    """Read an instance saved by :func:`save_instance` (header optional)."""
    csv_path = Path(csv_path)
    rows = []
    with csv_path.open() as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if line_no == 0:
                try:
                    float(cells[0])
                except ValueError:
                    continue  # header row
            rows.append([float(c) for c in cells])
    if not rows:
        raise ValidationError(f"no data rows in {csv_path}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValidationError("instance CSV needs a y column plus at least one X column")
    ridge = 0.0
    sidecar = Path(str(csv_path) + ".meta.json")
    if sidecar.exists():
        ridge = float(json.loads(sidecar.read_text()).get("ridge", 0.0))
    return ProblemInstance(y=data[:, 0], X=data[:, 1:], ridge=ridge)


def save_path(path: SolutionPath, jsonl_path) -> None:
    """Write a path as JSON lines: a header record, then one record per
    segment carrying its ending event and, in event order among them, an
    event record for each event that ends no segment (one at eta = 0, or
    a second event at a segment's end)."""
    out = [json.dumps({"record": "header", "provenance": path.provenance})]
    events = iter(path.events)
    for idx, seg in enumerate(path.segments):
        for event in events:
            if event == seg.ending_event:
                break
            out.append(json.dumps({"record": "event", "event": event.to_dict()}))
        rec = {
            "record": "segment",
            "index": idx,
            "eta_start": seg.eta_start,
            "eta_end": seg.eta_end,
            "beta_start": seg.beta_start.tolist(),
            "slope": seg.slope.tolist(),
            "event": seg.ending_event.to_dict(),
        }
        out.append(json.dumps(rec))
    out.extend(json.dumps({"record": "event", "event": event.to_dict()}) for event in events)
    Path(jsonl_path).write_text("\n".join(out) + "\n")


def load_path(jsonl_path) -> SolutionPath:
    provenance: dict = {}
    segments: list[PathSegment] = []
    events: list[PathEvent] = []
    with Path(jsonl_path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("record") == "header":
                provenance = rec.get("provenance", {})
                continue
            event = PathEvent.from_dict(rec["event"])
            events.append(event)
            if rec.get("record") == "event":
                continue
            segments.append(PathSegment(
                eta_start=rec["eta_start"],
                eta_end=rec["eta_end"],
                beta_start=np.asarray(rec["beta_start"], dtype=float),
                slope=np.asarray(rec["slope"], dtype=float),
                ending_event=event,
            ))
    return SolutionPath(segments=tuple(segments), events=tuple(events),
                        provenance=provenance)


def eval_path(path: SolutionPath, eta: float) -> np.ndarray:
    """Coefficients at a parameter value, by binary search over segments.

    At a breakpoint the right segment's value is returned (equal to the
    left limit by continuity).
    """
    if not path.segments:
        raise OutOfRangeError("path has no segments")
    if not eta >= 0:  # NaN too
        raise OutOfRangeError(f"eta must be nonnegative, got {eta}")
    idx = bisect.bisect_right(path._starts, eta) - 1
    if idx < 0:
        raise OutOfRangeError(f"eta={eta} precedes the path start")
    seg = path.segments[idx]
    if eta >= seg.eta_end:
        raise OutOfRangeError(f"eta={eta} is beyond the path horizon {seg.eta_end}")
    return seg.value(eta)
