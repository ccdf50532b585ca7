"""Domain types: problem instances, weight rays, groups, paths.

Everything here is regarded as immutable after construction except
:class:`GroupStructure`, the plain record of one point's groups that the
structure reader, the grouped-Gram builder and the optimality check share.
A solution path, traced or loaded, is its events plus its knots (beta and
the slope where the slope changes); :class:`KnotSegments` builds its
segments on access, and a path file stores the same events and knots.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from array import array
from collections.abc import Sequence
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
        return cls(kind=d["kind"], eta=float(d["eta"]), g=d.get("g"), k=d.get("k"),
                   nnz=d.get("nnz"), n_groups=d.get("n_groups"))


@dataclass(frozen=True)
class PathSegment:
    """One linear piece beta(eta) = beta_start + (eta - eta_start) * slope.

    A path builds its segments on access (:class:`KnotSegments`):
    ``slope``, and ``beta_start`` where it is a stored knot, are the path's
    own arrays, shared by every segment built from them, so do not write
    to either."""

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


class KnotSegments(Sequence):
    """The segments of a path, traced or loaded by :func:`load_path`,
    read-only and built on access from its knots.

    A knot holds beta and the slope at the start and after each fuse or
    split, the events that change the slope.  A switch only advances the
    engine's grouped values, ``levels + (eta_new - eta) * slopeG``; signs
    are +-1 and rounding is sign-symmetric, so ``beta + (eta_new - eta) *
    slope``, with eta_new = max(event eta, eta), replays beta bit for bit.
    The one exception is a grouped value landing exactly on zero, whose
    sign bit the replay cannot know: the recorder stores such a switch as a
    knot too, sharing its slope array.  ``knot_at[k]`` is the number of
    events applied when knot k was taken and ``knot_eta[k]`` the state's
    eta then.

    A segment ends at each event that moves eta past the segment's start
    (coincident and absorbed events end none), and its start value is beta
    after every event before its ending event.  ``len`` and ``starts``
    need no replay.  Indexing replays from the segment built last when it
    lies after the same knot and before the one asked for, and from the
    knot otherwise, so iteration (``Sequence``'s, by index) replays each
    event once.  Only the segment built last is kept, so the path stays
    compact however much of it was read.
    """

    def __init__(self, events, knot_at, knot_eta, betas, slopes):
        self._events = events
        self._at, self._eta, self._betas, self._slopes = knot_at, knot_eta, betas, slopes
        for a in (*betas, *slopes):
            a.flags.writeable = False
        self.starts = array("d")
        self._ends = array("q")
        eta = 0.0
        for j, event in enumerate(events):
            if event.eta > eta:
                self.starts.append(eta)
                self._ends.append(j)
                eta = event.eta
        # the segment built last, as (index, segment): reading a segment
        # and then evaluating the path inside it replays once
        self._last = (-1, None)

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self._ends))))
        end = self._ends[i]  # negative and out-of-range i as for a tuple
        if i < 0:
            i += len(self._ends)
        j, seg = self._last
        if j == i:
            return seg
        k = bisect.bisect_right(self._at, end) - 1
        done, beta, eta = self._at[k], self._betas[k], self._eta[k]
        if 0 <= j < i and self._ends[j] >= done:
            # resume from the segment built last, after the same knot: its
            # start is beta and eta after its ending event's predecessors
            done, beta, eta = self._ends[j], seg.beta_start, seg.eta_start
        # every event from there to the end is a switch after knot k: the
        # engine's advance step, in its order
        slope = self._slopes[k]
        for event in self._events[done:end]:
            t = event.eta
            if t < eta:
                t = eta  # absorbed at the current position
            beta = beta + (t - eta) * slope
            eta = t
        return self._segment(i, end, k, beta)

    def _segment(self, i: int, end: int, k: int, beta: np.ndarray) -> PathSegment:
        event = self._events[end]
        seg = PathSegment(self.starts[i], event.eta, beta, self._slopes[k], event)
        self._last = (i, seg)
        return seg


@dataclass(frozen=True)
class SolutionPath:
    """Ordered segments and events covering eta in [0, eta_max).

    ``segments`` is a :class:`KnotSegments` view, for a traced path and a
    loaded one alike: beta is stored once per knot, ``len(path.segments)``
    is cheap, and each indexed segment is replayed from the segment built
    last, the one segment kept, or from its nearest knot; iterating
    replays each event once."""

    segments: KnotSegments
    events: tuple[PathEvent, ...]
    provenance: dict = field(default_factory=dict)

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
    if lam.size and (lam[0] < 0 or (lam[..., 1:] < lam[..., :-1]).any()):
        raise ValidationError("weights must be ascending and nonnegative")
    return lam


def check_instance_data(instance: ProblemInstance) -> None:
    """Raise unless X is a nonempty matrix with one row per entry of y,
    every entry and the ridge are finite, and the ridge is nonnegative."""
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


def validate_instance(instance: ProblemInstance) -> ProblemInstance:
    """Check finiteness, shape, and invertibility of the ridge-adjusted Gram.

    Returns the instance with ``effective_rank`` and the plain, read-only
    Gram ``gram`` = X^T X recorded on it, which the path engine reads
    instead of forming its own; raises :class:`NonFiniteError` (on
    non-finite data, or a Gram or X^T y that overflows float64) or
    :class:`SingularGramError` otherwise.
    """
    check_instance_data(instance)
    X, p = instance.X, instance.p
    with np.errstate(over="ignore", invalid="ignore"):
        plain = X.T @ X
        Xty = X.T @ instance.y
    gram = plain + instance.ridge * np.eye(p)
    if not np.isfinite(gram).all():
        raise NonFiniteError("the Gram matrix X^T X + ridge I overflows float64; rescale X")
    if not np.isfinite(Xty).all():
        raise NonFiniteError("X^T y overflows float64; rescale y or X")
    eigvals = np.linalg.eigvalsh(gram)
    tol = SINGULARITY_RTOL * max(float(np.max(np.diag(gram))), 1e-300)
    if eigvals[0] < tol:
        raise SingularGramError(
            "Gram matrix is numerically singular (smallest eigenvalue "
            f"{eigvals[0]:.3e} below {tol:.3e}); set ridge > 0 to proceed"
        )
    object.__setattr__(instance, "effective_rank", int(np.sum(eigvals > tol)))
    plain.flags.writeable = False
    object.__setattr__(instance, "gram", plain)
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
    """SHA-256 over the raw bytes of (y, X, ridge), read in place from
    C-contiguous arrays."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(instance.y))
    h.update(np.ascontiguousarray(instance.X))
    h.update(np.float64(instance.ridge).tobytes())
    return h.hexdigest()


def _format_float(x: float) -> str:
    return repr(float(x))


def save_instance(instance: ProblemInstance, csv_path, metadata: dict | None = None) -> None:
    """Write an instance as CSV (a header row, then column 1 = y and the
    rest = X) plus a JSON sidecar ``<csv_path>.meta.json`` holding ridge and
    metadata.  Rows go to the file one at a time, so the text is never
    held whole."""
    csv_path = Path(csv_path)
    with csv_path.open("w") as fh:
        fh.write(",".join(["y"] + [f"x{j + 1}" for j in range(instance.p)]) + "\n")
        for i in range(instance.n):
            row = [instance.y[i]] + list(instance.X[i])
            fh.write(",".join(_format_float(v) for v in row) + "\n")
    sidecar = {"ridge": instance.ridge}
    if metadata:
        sidecar["metadata"] = metadata
    Path(str(csv_path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_instance(csv_path) -> ProblemInstance:
    """Read an instance saved by :func:`save_instance` (header optional).

    Raises :class:`ValidationError`, naming the file and the line, on a
    cell that is not a number or a row whose length differs from the
    first row's, and naming the sidecar on one that is not a JSON object
    or whose ridge is not a number."""
    csv_path = Path(csv_path)
    rows = []
    with csv_path.open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if line_no == 1:
                try:
                    float(cells[0])
                except ValueError:
                    continue  # header row
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValidationError(f"{csv_path}, line {line_no}: {exc}") from None
            if len(cells) != len(rows[0]):
                raise ValidationError(f"{csv_path}, line {line_no}: {len(cells)} cells, "
                                      f"the first row has {len(rows[0])}")
    if not rows:
        raise ValidationError(f"no data rows in {csv_path}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValidationError("instance CSV needs a y column plus at least one X column")
    ridge = 0.0
    sidecar = Path(str(csv_path) + ".meta.json")
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
            if not isinstance(meta, dict):
                raise ValidationError("not a JSON object")
            ridge = float(meta.get("ridge", 0.0))
        except (ValidationError, TypeError, ValueError) as exc:
            raise ValidationError(f"{sidecar}: {exc}") from None
    return ProblemInstance(y=data[:, 0], X=data[:, 1:], ridge=ridge)


def save_path(path: SolutionPath, jsonl_path) -> None:
    """Write a path as JSON lines: a header record with the provenance,
    then each knot (its ``eta``, ``beta`` and ``slope``, leaving ``slope``
    out where it is the previous knot's array) followed by the events
    applied after it, writing each record as it is formed."""
    segs, events = path.segments, path.events
    ends = (*segs._at[1:], len(events))
    knots = zip(segs._at, ends, segs._betas, segs._slopes)
    with Path(jsonl_path).open("w") as fh:
        fh.write(json.dumps({"record": "header", "provenance": path.provenance}) + "\n")
        for k, (at, end, beta, slope) in enumerate(knots):
            knot = {"record": "knot", "eta": segs._eta[k], "beta": beta.tolist()}
            if not k or slope is not segs._slopes[k - 1]:
                knot["slope"] = slope.tolist()
            fh.write(json.dumps(knot) + "\n")
            for e in events[at:end]:
                fh.write(json.dumps({"record": "event", "event": e.to_dict()}) + "\n")


def _knot_vector(rec: dict, key: str, betas: list) -> np.ndarray:
    """``rec[key]`` as a float vector as long as the first knot's beta."""
    vec = np.array(rec[key], dtype=float)
    if vec.ndim != 1:
        raise ValidationError(f"{key} is not a list of numbers")
    if not np.isfinite(vec).all():  # a null reads as NaN
        raise ValidationError(f"{key} holds a null or non-finite entry")
    if betas and vec.size != betas[0].size:
        raise ValidationError(f"{key} has {vec.size} entries, "
                              f"the first knot's beta {betas[0].size}")
    return vec


def load_path(jsonl_path) -> SolutionPath:
    """Read a path saved by :func:`save_path` into the form a traced path
    has: a knot record without ``slope`` shares the previous knot's array.

    Raises :class:`ValidationError`, naming the file and the line, on a
    line that is not a JSON object, a record that lacks a field it needs
    or holds a value of the wrong type or length, a null or non-finite
    entry in a knot's ``beta`` or ``slope``, an event before the first knot, a first knot without ``slope``, and a ``segment`` record,
    which only the old per-segment format wrote."""
    provenance: dict = {}
    events: list[PathEvent] = []
    knot_at, knot_eta, betas, slopes = [], [], [], []
    with Path(jsonl_path).open() as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{jsonl_path}, line {line_no}: not JSON ({exc})") from None
            try:
                if not isinstance(rec, dict):
                    raise ValidationError("not a JSON object")
                kind = rec.get("record")
                if kind == "event":
                    if not isinstance(rec["event"], dict):
                        raise ValidationError("the event is not a JSON object")
                    events.append(PathEvent.from_dict(rec["event"]))
                    if not betas:
                        raise ValidationError("an event precedes the first knot")
                elif kind == "knot":
                    if not (slopes or "slope" in rec):
                        raise ValidationError("the first knot has no slope")
                    knot_at.append(len(events))
                    knot_eta.append(float(rec["eta"]))
                    betas.append(_knot_vector(rec, "beta", betas))
                    slopes.append(_knot_vector(rec, "slope", betas) if "slope" in rec
                                  else slopes[-1])
                elif kind == "header":
                    provenance = rec.get("provenance", {})
                elif kind == "segment":
                    raise ValidationError("a segment record: the file uses the old "
                                          "per-segment format; trace the path again")
                else:
                    raise ValidationError(f"unknown record {kind!r}")
            except KeyError as exc:
                raise ValidationError(f"{jsonl_path}, line {line_no}: "
                                      f"the record has no {exc} field") from None
            except (ValidationError, TypeError, ValueError) as exc:
                raise ValidationError(f"{jsonl_path}, line {line_no}: {exc}") from None
    events = tuple(events)
    return SolutionPath(segments=KnotSegments(events, knot_at, knot_eta, betas, slopes),
                        events=events, provenance=provenance)


def eval_path(path: SolutionPath, eta: float) -> np.ndarray:
    """Coefficients at a parameter value, by binary search over the
    segment starts.

    At a breakpoint the right segment's value is returned (equal to the
    left limit by continuity).
    """
    starts = path.segments.starts
    if not starts:
        raise OutOfRangeError("path has no segments")
    if not eta >= 0:  # NaN too
        raise OutOfRangeError(f"eta must be nonnegative, got {eta}")
    seg = path.segments[bisect.bisect_right(starts, eta) - 1]
    if eta >= seg.eta_end:
        raise OutOfRangeError(f"eta={eta} is beyond the path horizon {seg.eta_end}")
    return seg.value(eta)
