"""Domain types: problem instances, weight rays, groups, paths.

Everything here is regarded as immutable after construction except
:class:`GroupStructure`, the plain record of one point's groups that the
structure reader, the grouped-Gram builder and the optimality check share.
A solution path, traced or loaded, is its events plus its knots (beta and
the slope where the slope changes).  :class:`EventLog` holds the events as
typed columns and :class:`KnotStore` the knots as float64 row blocks;
the events and the path's :class:`KnotSegments` build each
:class:`PathEvent` or :class:`PathSegment` on access, and a path file
stores the same events and knots.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat, starmap
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
    "EventLog",
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
#: an event's code in :class:`EventLog`'s kind column: its place in EVENT_KINDS
KIND_CODES = {kind: code for code, kind in enumerate(EVENT_KINDS)}
#: PathEvent's fields, in order, and the keys of a path file's event record
_EVENT_FIELDS = ("kind", "eta", "g", "k", "nnz", "n_groups")


@dataclass(frozen=True)
class ProblemInstance:
    """Least-squares data (y, X) with an optional ridge weight.

    The loss is 0.5 ||y - X beta||^2 + 0.5 * ridge * ||beta||^2; a positive
    ridge makes rank-deficient designs usable by the path engine.

    Immutable by contract; what is derived from the data is a ``cached_property``,
    formed on first use, kept unless it raised, and not shared with a fresh copy.
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

    @cached_property
    def gram(self) -> np.ndarray:
        """X^T X without the ridge, read-only."""
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.X.T @ self.X
        gram.flags.writeable = False
        return gram

    @cached_property
    def xty(self) -> np.ndarray:
        """X^T y, read-only."""
        with np.errstate(over="ignore", invalid="ignore"):
            xty = self.X.T @ self.y
        xty.flags.writeable = False
        return xty

    @cached_property
    def effective_rank(self) -> int:
        """Eigenvalues of X^T X + ridge I above the singularity tolerance: the verdict."""
        gram = self.gram + self.ridge * np.eye(self.p)
        if not np.isfinite(gram).all():
            raise NonFiniteError("the Gram matrix X^T X + ridge I overflows float64; rescale X")
        if not np.isfinite(self.xty).all():
            raise NonFiniteError("X^T y overflows float64; rescale y or X")
        eigvals = np.linalg.eigvalsh(gram)
        tol = SINGULARITY_RTOL * max(float(np.max(np.diag(gram))), 1e-300)
        if eigvals[0] < tol:
            raise SingularGramError("Gram matrix is numerically singular (smallest eigenvalue "
                                    f"{eigvals[0]:.3e} below {tol:.3e}); set ridge > 0 to proceed")
        return int(np.sum(eigvals > tol))

    @cached_property
    def digest(self) -> str:
        """SHA-256 over the bytes of (y, X, ridge), read in place when C-contiguous."""
        h = hashlib.sha256(np.ascontiguousarray(self.y))
        h.update(np.ascontiguousarray(self.X))
        h.update(np.float64(self.ridge).tobytes())
        return h.hexdigest()

    @cached_property
    def lipschitz_estimate(self) -> float:
        """The solver's step bound, after :func:`check_instance_data`."""
        from . import prox  # prox imports this module
        check_instance_data(self)
        return prox._lipschitz_estimate(self)

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


def scatter_groups(order, offsets, signs, grouped, out=None) -> np.ndarray:
    """Coefficient-space vector holding -signs[i] * grouped[j] for every
    member i of nonzero group j, and zero on the zero group, written into
    ``out`` when it is given (a knot's row, say) and into a new array
    otherwise."""
    members = order[offsets[0]:]
    if out is None:
        out = np.zeros(order.size)
    else:
        out.fill(0.0)
    out[members] = -signs[members] * grouped.repeat(offsets[1:] - offsets[:-1])
    return out


@dataclass(frozen=True, slots=True)
class PathEvent:
    """A breakpoint of the path.

    ``kind`` is one of ``fuse``, ``split``, ``switch_order``,
    ``switch_sign``, ``terminate``.  ``g`` and ``k`` follow the grouped
    conventions: fuse carries the lower group index g in 0..gbar-1 (g = 0
    is a group vanishing into zero), split carries (g, k) with k >= 2 for
    nonzero groups and k >= 1 for activations out of the zero group,
    switch_order carries the lower position k in 1..p-1.  ``nnz`` and
    ``n_groups`` record the state immediately after the event.  A path's
    events are built on access from its :class:`EventLog`, so compare them
    by value, not by identity.
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
        return {name: getattr(self, name) for name in _EVENT_FIELDS}


def _fields(code: int, eta: float, g: int, k: int, nnz: int, n_groups: int) -> tuple:
    """One row of an :class:`EventLog` as PathEvent's fields, in order."""
    return (EVENT_KINDS[code], eta, None if g < 0 else g, None if k < 0 else k,
            None if nnz < 0 else nnz, None if n_groups < 0 else n_groups)


class EventLog(Sequence):
    """A path's events as six typed columns, 25 bytes per event: ``kind``
    (int8, the place in ``EVENT_KINDS``), ``eta`` (float64), and ``g``,
    ``k``, ``nnz`` and ``n_groups`` (int32, -1 for None).

    A read-only sequence of :class:`PathEvent` that builds each event on
    access: ``len``, int and slice indexing (a slice is a tuple) and
    iteration as for a tuple of events, and equal to any sequence of equal
    events.  Only :func:`run_path` and :func:`load_path` append, while
    they build the path.
    """

    def __init__(self, events=()):
        self.kind = array("b")
        self.eta = array("d")
        self.g, self.k, self.nnz, self.n_groups = (array("i") for _ in range(4))
        for e in events:
            self.append(e.kind, e.eta, e.g, e.k, e.nnz, e.n_groups)

    @classmethod
    def of(cls, events) -> "EventLog":
        """``events`` itself when it is a log, else a log of its events."""
        return events if isinstance(events, EventLog) else cls(events)

    @property
    def columns(self) -> tuple:
        return self.kind, self.eta, self.g, self.k, self.nnz, self.n_groups

    def append(self, kind: str, eta: float, g=None, k=None, nnz=None, n_groups=None) -> None:
        code = KIND_CODES.get(kind)
        if code is None:
            raise ValidationError(f"unknown event kind {kind!r}")
        self.kind.append(code)
        self.eta.append(eta)
        self.g.append(-1 if g is None else g)
        self.k.append(-1 if k is None else k)
        self.nnz.append(-1 if nnz is None else nnz)
        self.n_groups.append(-1 if n_groups is None else n_groups)

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """The fields of events ``start`` to ``stop``, as tuples in
        PathEvent's order, with no event built."""
        return map(_fields, *(c[start:stop] for c in self.columns))

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(starmap(PathEvent, map(_fields, *(c[i] for c in self.columns))))
        return PathEvent(*_fields(*(c[i] for c in self.columns)))

    def __iter__(self) -> Iterator[PathEvent]:
        return starmap(PathEvent, map(_fields, *self.columns))

    def __eq__(self, other):
        if isinstance(other, EventLog):
            return self.columns == other.columns
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventLog({len(self)} events)"


@dataclass(frozen=True)
class PathSegment:
    """One linear piece beta(eta) = beta_start + (eta - eta_start) * slope.

    A path builds its segments on access (:class:`KnotSegments`):
    ``slope``, and ``beta_start`` where it is a stored knot, are read-only
    views into the path's knot blocks (:class:`KnotStore`), and segments
    built one after another from the same slope row share one view.
    ``ending_event`` is built from the path's :class:`EventLog` with the
    segment, so it equals, but is not, the path's event at that
    position."""

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


#: rows in each float64 block of a path's knot vectors
_BLOCK_ROWS = 128


class _Rows:
    """Float64 rows of p entries in blocks of ``_BLOCK_ROWS`` rows,
    allocated as they fill.  :meth:`new` hands out the next free row,
    writable; indexing reads row i through a read-only view of its block,
    so a read sets no flag."""

    def __init__(self, p: int):
        self.p, self.n = p, 0
        self.blocks, self._read_only = [], []

    def new(self) -> np.ndarray:
        b, r = divmod(self.n, _BLOCK_ROWS)
        if not r:
            block = np.empty((_BLOCK_ROWS, self.p))
            view = block.view()
            view.flags.writeable = False
            self.blocks.append(block)
            self._read_only.append(view)
        self.n += 1
        return self.blocks[b][r]

    def __getitem__(self, i: int) -> np.ndarray:
        return self._read_only[i // _BLOCK_ROWS][i % _BLOCK_ROWS]


class KnotStore:
    """A path's knots.  Beta at each knot and each distinct slope are
    float64 rows (:class:`_Rows`, blocks of ``_BLOCK_ROWS`` rows);
    ``at[k]`` (int64) is the number of events applied when knot k was
    taken and ``slope_row[k]`` (int32) the row of its slope, which a knot
    whose slope is the previous one's reuses.  Beyond its rows, a knot
    costs 12 bytes.  Only :func:`run_path` and :func:`load_path` add
    knots, filling the rows :meth:`add` hands out; :meth:`beta` and
    :meth:`slope` read read-only views."""

    def __init__(self, p: int):
        self.p = p
        self.at = array("q")
        self.slope_row = array("i")
        self.betas, self.slopes = _Rows(p), _Rows(p)

    def __len__(self) -> int:
        return len(self.at)

    def add(self, at: int, new_slope: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Take a knot after ``at`` events.  Returns its beta row and,
        when ``new_slope``, a new slope row (else None: the knot shares the
        previous knot's), both writable and for the caller to fill."""
        beta = self.betas.new()
        slope = self.slopes.new() if new_slope else None
        self.at.append(at)
        self.slope_row.append(self.slopes.n - 1)
        return beta, slope

    def beta(self, k: int) -> np.ndarray:
        return self.betas[k]

    def slope(self, k: int) -> np.ndarray:
        return self.slopes[self.slope_row[k]]


class KnotSegments(Sequence):
    """The segments of a path, traced or loaded by :func:`load_path`,
    read-only and built on access from its knots (:class:`KnotStore`).

    A knot holds beta and the slope at the start and after each fuse or
    split, the events that change the slope.  A switch only advances the
    engine's grouped values, ``levels + (eta_new - eta) * slopeG``; signs
    are +-1 and rounding is sign-symmetric, so ``beta + (eta_new - eta) *
    slope``, with eta_new = max(event eta, eta), replays beta bit for bit.
    The one exception is a grouped value landing exactly on zero, whose
    sign bit the replay cannot know: the recorder stores such a switch as a
    knot too, reusing the previous knot's slope row.  A knot's eta is the
    running maximum of the event etas before it, read off the events in
    the scan that finds the segment ends, and kept in ``_eta``.  A
    segment's arrays are read-only views into the path's blocks.

    A segment ends at each event that moves eta past the segment's start
    (coincident and absorbed events end none), and its start value is beta
    after every event before its ending event.  Only the ending events'
    positions are stored; a segment starts at the previous one's eta.
    ``len``, ``starts`` and ``locate`` need no replay.  Indexing replays
    from the segment built last when it lies after the same knot and
    before the one asked for, and from the knot otherwise, so iteration
    (``Sequence``'s, by index) replays each event once.  Only the segment
    built last is kept, so the path stays compact however much of it was
    read.
    """

    def __init__(self, events, knots: KnotStore):
        self._events = events = EventLog.of(events)
        self._knots = knots
        self._ends, self._eta = array("q"), array("d")
        at, n, k = knots.at, len(knots), 0
        eta = 0.0
        for j, t in enumerate(events.eta):
            if t > eta:
                # the knots taken since eta last moved reached this eta
                while k < n and at[k] <= j:
                    self._eta.append(eta)
                    k += 1
                self._ends.append(j)
                eta = t
        self._eta.extend(repeat(eta, n - k))
        # the segment built last, as (index, segment, its slope row):
        # reading a segment and then evaluating the path inside it replays
        # once, and the next segment on the same row shares its slope view
        self._last = (-1, None, -1)

    def __len__(self) -> int:
        return len(self._ends)

    @property
    def _at(self) -> array:
        return self._knots.at

    @property
    def _betas(self) -> tuple:
        """Each knot's beta, a read-only view."""
        return tuple(map(self._knots.beta, range(len(self._knots))))

    @property
    def _slopes(self) -> tuple:
        """Each knot's slope, a read-only view."""
        return tuple(map(self._knots.slope, range(len(self._knots))))

    @property
    def starts(self) -> array:
        """Each segment's ``eta_start``, formed on each access."""
        eta, ends = self._events.eta, self._ends
        return array("d", (eta[ends[i - 1]] if i else 0.0 for i in range(len(ends))))

    def locate(self, eta: float) -> int:
        """The index of the segment whose [eta_start, eta_end) holds
        ``eta``, or ``len(self)`` from the last segment's end on."""
        return bisect.bisect_right(self._ends, eta, key=self._events.eta.__getitem__)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self._ends))))
        end = self._ends[i]  # negative and out-of-range i as for a tuple
        if i < 0:
            i += len(self._ends)
        j, seg, last_row = self._last
        if j == i:
            return seg
        k = bisect.bisect_right(self._at, end) - 1
        row = self._knots.slope_row[k]
        slope = seg.slope if row == last_row else self._knots.slope(k)
        done, beta, eta = self._at[k], self._knots.beta(k), self._eta[k]
        if 0 <= j < i and self._ends[j] >= done:
            # resume from the segment built last, after the same knot: its
            # start is beta and eta after its ending event's predecessors
            done, beta, eta = self._ends[j], seg.beta_start, seg.eta_start
        # every event from there to the end is a switch after knot k: the
        # engine's advance step, in its order
        for t in self._events.eta[done:end]:
            if t < eta:
                t = eta  # absorbed at the current position
            beta = beta + (t - eta) * slope
            eta = t
        return self._segment(i, end, row, beta, slope)

    def _segment(self, i: int, end: int, row: int, beta: np.ndarray,
                 slope: np.ndarray) -> PathSegment:
        event = self._events[end]
        start = self._events.eta[self._ends[i - 1]] if i else 0.0
        seg = PathSegment(start, event.eta, beta, slope, event)
        self._last = (i, seg, row)
        return seg


@dataclass(frozen=True)
class SolutionPath:
    """Ordered segments and events covering eta in [0, eta_max).

    ``segments`` is a :class:`KnotSegments` view, for a traced path and a
    loaded one alike: beta is stored once per knot, in float64 row blocks,
    ``len(path.segments)`` is cheap, and each indexed segment is replayed
    from the segment built last, the one segment kept, or from its nearest
    knot; iterating replays each event once.  A segment's ``slope``, and
    its ``beta_start`` at a knot, are read-only views into those blocks.
    ``events`` is an :class:`EventLog` (any sequence of events given is
    stored as one), a read-only sequence whose events are built on access
    and compare by value."""

    segments: KnotSegments
    events: EventLog
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "events", EventLog.of(self.events))

    @property
    def eta_end(self) -> float:
        return self.segments[-1].eta_end if self.segments else 0.0

    def breakpoints(self) -> Iterator[PathEvent]:
        """Events excluding the terminal marker."""
        stop = KIND_CODES["terminate"]
        return compress(self.events, (code != stop for code in self.events.kind))


# --- validation ----------------------------------------------------------


def check_weight_order(lam) -> np.ndarray:
    """Return ``lam`` as floats; raise NonFiniteError on a NaN or infinite
    entry, else ValidationError unless it is ascending and nonnegative.
    NaN fails every comparison and +inf can only sit last, so only rejected
    weights are scanned for non-finite entries."""
    lam = np.asarray(lam, dtype=float)
    if lam.size and not (lam[0] >= 0 and (lam[..., 1:] >= lam[..., :-1]).all()
                         and lam[-1] < math.inf):
        if not np.isfinite(lam).all():
            raise NonFiniteError("weights contain non-finite entries")
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
    """Check shapes and finiteness on every call, then read the Gram-side verdict
    ``effective_rank``; return the instance or raise a :class:`ValidationError`."""
    check_instance_data(instance)
    instance.effective_rank  # formed on the first call; raises while invalid
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
    """The instance's ``digest``, formed once per instance."""
    return instance.digest


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

    Each row is parsed straight into one float array whose rows are
    counted first, so reading holds little more than the data.  Raises
    :class:`ValidationError`, naming the file and the line, on a cell that
    is not a number or a row whose length differs from the first row's,
    and naming the sidecar on one that is not a JSON object or whose ridge
    is not a number."""
    csv_path = Path(csv_path)
    data, rows = None, 0
    with csv_path.open() as fh:
        n_rows = sum(1 for line in fh if line.strip())  # the header, if any, too
        fh.seek(0)
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if line_no == 1:
                try:
                    float(cells[0])
                except ValueError:
                    n_rows -= 1
                    continue  # header row
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise ValidationError(f"{csv_path}, line {line_no}: {exc}") from None
            if data is None:
                data = np.empty((n_rows, len(row)))
            elif len(row) != data.shape[1]:
                raise ValidationError(f"{csv_path}, line {line_no}: {len(cells)} cells, "
                                      f"the first row has {data.shape[1]}")
            data[rows] = row
            rows += 1
    if not rows:
        raise ValidationError(f"no data rows in {csv_path}")
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
    out where it is the previous knot's row) followed by the events
    applied after it, writing each record as it is formed."""
    segs, events = path.segments, path.events
    knots = segs._knots
    ends = (*knots.at[1:], len(events))
    with Path(jsonl_path).open("w") as fh:
        fh.write(json.dumps({"record": "header", "provenance": path.provenance}) + "\n")
        for k, (at, end) in enumerate(zip(knots.at, ends)):
            knot = {"record": "knot", "eta": segs._eta[k], "beta": knots.beta(k).tolist()}
            if not k or knots.slope_row[k] != knots.slope_row[k - 1]:
                knot["slope"] = knots.slope(k).tolist()
            fh.write(json.dumps(knot) + "\n")
            for row in events.rows(at, end):
                event = dict(zip(_EVENT_FIELDS, row))
                fh.write(json.dumps({"record": "event", "event": event}) + "\n")


def _append_event(log: EventLog, d) -> None:
    """Append the event record ``d`` of a path file to ``log``."""
    if not isinstance(d, dict):
        raise ValidationError("the event is not a JSON object")
    counts = [d.get(key) for key in _EVENT_FIELDS[2:]]
    if not all(c is None or (type(c) is int and 0 <= c < 2**31) for c in counts):
        raise ValidationError("an event's g, k, nnz and n_groups must be null "
                              "or integers in [0, 2**31)")
    log.append(d["kind"], float(d["eta"]), *counts)


def _knot_vector(rec: dict, key: str, knots: KnotStore | None) -> np.ndarray:
    """``rec[key]`` as a float vector as long as the first knot's beta."""
    vec = np.array(rec[key], dtype=float)
    if vec.ndim != 1:
        raise ValidationError(f"{key} is not a list of numbers")
    if not np.isfinite(vec).all():  # a null reads as NaN
        raise ValidationError(f"{key} holds a null or non-finite entry")
    if knots is not None and vec.size != knots.p:
        raise ValidationError(f"{key} has {vec.size} entries, "
                              f"the first knot's beta {knots.p}")
    return vec


def load_path(jsonl_path) -> SolutionPath:
    """Read a path saved by :func:`save_path` into the form a traced path
    has: the events in an :class:`EventLog` and the knots in a
    :class:`KnotStore`, where a knot record without ``slope`` reuses the
    previous knot's slope row.

    Raises :class:`ValidationError`, naming the file and the line, on a
    line that is not a JSON object, a record that lacks a field it needs
    or holds a value of the wrong type or length, an event whose g, k,
    nnz or n_groups is neither null nor an int32 count, a null or
    non-finite entry in a knot's ``beta`` or ``slope``, a knot whose
    ``eta`` is not, bit for bit, the float its preceding events reached
    (the largest of 0.0 and their etas), an event before the first knot,
    a first knot without ``slope``, and a ``segment`` record, which only
    the old per-segment format wrote."""
    provenance: dict = {}
    events = EventLog()
    knots = None
    reached = 0.0  # the eta the events read so far reached
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
                    _append_event(events, rec["event"])
                    if knots is None:
                        raise ValidationError("an event precedes the first knot")
                    if events.eta[-1] > reached:
                        reached = events.eta[-1]
                elif kind == "knot":
                    if knots is None and "slope" not in rec:
                        raise ValidationError("the first knot has no slope")
                    eta = rec["eta"]
                    if type(eta) is not float or eta.hex() != reached.hex():
                        raise ValidationError(f"knot eta {eta!r} is not {reached!r}, "
                                              "the eta its preceding events reached")
                    beta = _knot_vector(rec, "beta", knots)
                    if knots is None:
                        knots = KnotStore(beta.size)
                    slope = _knot_vector(rec, "slope", knots) if "slope" in rec else None
                    beta_row, slope_row = knots.add(len(events), slope is not None)
                    beta_row[:] = beta
                    if slope is not None:
                        slope_row[:] = slope
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
    if knots is None:
        knots = KnotStore(0)
    return SolutionPath(segments=KnotSegments(events, knots), events=events,
                        provenance=provenance)


def eval_path(path: SolutionPath, eta: float) -> np.ndarray:
    """Coefficients at a parameter value, by binary search over the
    segment ends.

    At a breakpoint the right segment's value is returned (equal to the
    left limit by continuity).
    """
    segments = path.segments
    if not segments:
        raise OutOfRangeError("path has no segments")
    if not eta >= 0:  # NaN too
        raise OutOfRangeError(f"eta must be nonnegative, got {eta}")
    seg = segments[min(segments.locate(eta), len(segments) - 1)]
    if eta >= seg.eta_end:
        raise OutOfRangeError(f"eta={eta} is beyond the path horizon {seg.eta_end}")
    return seg.value(eta)
