"""Switching signals, average dwell-time budgets and the online supervisor.

A switching signal assigns one primitive id per step.  A budget (N0, Na)
admits a signal when every interval [a, b) contains at most
N0 + (b - a)/Na switches, counted at their activation step.  The
supervisor enforces that bound causally: a requested switch is admitted
only if the extended signal still satisfies the bound for every interval
ending at the new step, otherwise the request is deferred.

Validation and admission read one profile, g(j) = j/Na - P[j], where P[j]
counts the switches before step j.  The slack of [a, b) is N0 + g(b) - g(a):
the validator takes a suffix minimum of g, and admission tests the deficit
max_{a<=j} g(a) - g(j), a prefix maximum of g, which the supervisor keeps up
to date in O(1) per step.  ``_supervise_columns`` runs the same update for
many signals at once, one numpy step per step, for Monte Carlo campaigns;
when 1/Na >= 1 admits every switch, it takes running sums instead.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .library_io import write_table

_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class SwitchingSignal:
    """Per-step primitive assignments sigma(0), ..., sigma(K)."""

    assignments: np.ndarray

    def __post_init__(self):
        arr = _integers(self.assignments, "assignments")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignments must be a nonempty 1-D sequence")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "assignments", arr)

    def __len__(self) -> int:
        return self.assignments.size

    @property
    def switch_steps(self) -> np.ndarray:
        """Steps k >= 1 with sigma(k) != sigma(k-1)."""
        return np.flatnonzero(np.diff(self.assignments) != 0) + 1

    def to_csv(self, path: str | Path) -> None:
        write_table(path, ["k", "id"], [np.arange(len(self)), self.assignments])

    @classmethod
    def from_csv(cls, path: str | Path, data: bytes | None = None) -> "SwitchingSignal":
        """Read a ``k,id`` CSV whose step column counts 0, 1, ...

        ``data``, when given, is the file's content as already read; it is
        parsed instead of reading ``path`` again, and ``path`` only names
        the file in errors, so a caller that hashes ``data`` hashes exactly
        what was parsed.  A body of ASCII digit rows is parsed by
        ``_digit_rows``; every other file, and any it refuses, is read row by
        row, so the row reader alone decides which files are accepted and
        names the first bad row.
        """
        if data is None:
            data = Path(path).read_bytes()
        ids = _digit_rows(data)
        return cls(_read_csv_rows(data, path) if ids is None else ids)


_LINE_BLOCK = 1 << 18


def _digit_rows(data: bytes) -> np.ndarray | None:
    """The ids of a signal CSV read by ``np.fromstring`` in blocks of about
    ``_LINE_BLOCK`` bytes cut after a line end, or None where the row reader
    must decide.  Only a body whose skeleton, what is left once ASCII digits
    and carriage returns are removed, is ``,\\n`` once per row (the last
    ``\\n`` optional), with every carriage return ending a line, is read:
    its rows hold at most two values, and they are kept only when every row
    holds two, the steps count 0, 1, ... and no value is 2**63 - 1, which
    numpy returns for an overflowing cell without a warning."""
    head, newline, body = data.partition(b"\n")
    open_end = not data.endswith(b"\n")
    lines = body.count(b"\n") + open_end
    if not (newline and lines and [c.strip() for c in head.split(b",")] == [b"k", b"id"]
            and data.count(b"\r") == data.count(b"\r\n")
            and body.translate(None, b"0123456789\r") == (b",\n" * lines)[:2 * lines - open_end]):
        return None
    ids = np.empty(lines, dtype=np.int64)
    row = start = 0
    while start < len(body):
        stop = body.find(b"\n", start + _LINE_BLOCK) + 1 or len(body)
        cells = np.fromstring(body[start:stop].replace(b",", b" "), dtype=np.int64, sep=" ")
        count = cells.size // 2
        if np.any(cells == 2**63 - 1) or not np.array_equal(cells[::2], np.arange(row, row + count)):
            return None
        ids[row:row + count] = cells[1::2]
        row, start = row + count, stop
    return ids if row == lines else None


def _read_csv_rows(data: bytes, path: str | Path) -> np.ndarray:
    """Row-by-row read of a signal CSV; raises ValueError at the first bad row.
    A cell is optional spaces or tabs around an optional sign and ASCII digits."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if not rows or [c.strip() for c in rows[0]] != ["k", "id"]:
        raise ValueError(f"{path}: expected header 'k,id'")
    if len(rows) == 1:
        raise ValueError(f"{path}: no rows after the header")
    integer = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*").fullmatch
    ids = []
    for i, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise ValueError(f"{path}: row {i + 1} must have two columns")
        if not (integer(row[0]) and integer(row[1])):
            raise ValueError(f"{path}: row {i + 1} must hold two integers, got {row!r}")
        k = int(row[0])
        if k != i:
            raise ValueError(f"{path}: step column must count 0,1,... (row {i + 1} has k={k})")
        ids.append(int(row[1]))
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: ids must fit in 64-bit integers") from None


@dataclass(frozen=True)
class DwellTimeBudget:
    """Average dwell-time budget: at most n0 + length/na switches per interval."""

    n0: float
    na: float

    def __post_init__(self):
        if not (self.n0 > 0.0 and np.isfinite(self.n0)):
            raise ValueError("n0 must be positive")
        if not (self.na > 0.0 and np.isfinite(self.na)):
            raise ValueError("na must be positive")
        if not np.isfinite(1.0 / float(self.na)):
            raise ValueError(f"na={self.na!r} is too small: its reciprocal 1/na overflows")
        object.__setattr__(self, "n0", float(self.n0))
        object.__setattr__(self, "na", float(self.na))


def count_switches(signal: SwitchingSignal, lower: int, upper: int) -> int:
    """Number of switch steps j with lower <= j < upper."""
    size = len(signal)
    lower, upper = int(lower), int(upper)
    if not (0 <= lower <= upper <= size):
        raise ValueError(f"need 0 <= lower <= upper <= {size}, got [{lower}, {upper})")
    steps = signal.switch_steps
    return int(np.count_nonzero((steps >= lower) & (steps < upper)))


def _switch_prefix(signal: SwitchingSignal) -> np.ndarray:
    """prefix[j] = number of switch steps < j, for j = 0..len."""
    ids = signal.assignments
    prefix = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(ids[1:] != ids[:-1], out=prefix[2:])
    return prefix


def _slack_profile(prefix: np.ndarray, budget: DwellTimeBudget) -> np.ndarray:
    """g(j) = j/na - prefix[j], so that slack(a, b) = n0 + g(b) - g(a)."""
    g = np.arange(prefix.size, dtype=np.float64)
    g *= 1.0 / budget.na
    g -= prefix
    return g


@dataclass(frozen=True)
class DwellTimeReport:
    valid: bool
    worst_interval: tuple[int, int]
    worst_slack: float
    switch_count: int


def validate_dwell_time(signal: SwitchingSignal, budget: DwellTimeBudget) -> DwellTimeReport:
    """Check the dwell-time bound over every interval in O(K) time and memory.

    The worst slack n0 + (b - a)/na - switches(a, b) over 0 <= a <= b <= K is
    n0 + min_a (min_{b >= a} g(b) - g(a)), read off a suffix minimum of g.
    Ties go to the lexicographically smallest (a, b): the first a, then the
    first b at which g attains its suffix minimum.  The tie-break is exact
    only when 1/na is a power of two, so that every product j * (1/na) is
    a float without rounding; otherwise two intervals of equal exact slack
    can differ in the last bit, and the one that rounds lower wins.  The
    reported slack is recomputed at that pair from integer switch counts, so
    its rounding does not grow with K.  Valid means that slack is
    nonnegative up to a tiny float tolerance.

    With 1/na >= 1 no interval's slack is below n0, as at most one switch
    falls on a step, and [0, 0] attains it; the profile is not formed, so
    an na whose steps j/na overflow is reported exactly too.
    """
    prefix = _switch_prefix(signal)
    if 1.0 / budget.na >= 1.0:
        return DwellTimeReport(True, (0, 0), budget.n0, int(prefix[-1]))
    g = _slack_profile(prefix, budget)
    gap = np.minimum.accumulate(g[::-1])[::-1]  # gap[a] = min_{b >= a} slack(a, b) - n0
    gap -= g
    a = int(np.argmin(gap))
    b = a + int(np.argmin(g[a:]))
    slack = budget.n0 + (b - a) * (1.0 / budget.na) - int(prefix[b] - prefix[a])
    return DwellTimeReport(
        valid=bool(slack >= -_SLACK_TOL),
        worst_interval=(a, b),
        worst_slack=float(slack),
        switch_count=int(prefix[-1]),
    )


def _deficit_step(deficit, switching, decay: float, limit: float):
    """One step of ``Supervisor``'s deficit: a requested switch is admitted
    when the deficit after it, deficit + 1 - decay, stays within ``limit``;
    the deficit then takes that value, or else decays by ``decay``, and is
    floored at zero.  Returns (admitted, next deficit), for a float and a
    bool or elementwise for arrays."""
    candidate = deficit + 1.0 - decay
    held = deficit - decay
    admitted = switching & (candidate <= limit)
    if isinstance(admitted, np.ndarray):
        return admitted, np.maximum(np.where(admitted, candidate, held), 0.0)
    return admitted, max(0.0, candidate if admitted else held)


class Supervisor:
    """Online gatekeeper that defers switches violating the dwell-time budget.

    ``request`` is called once per step with the id that should be active
    next; it either admits the switch or holds the current primitive.  A
    switch is admitted when every interval ending at the new step keeps its
    budget.  With g(j) = j/na - (switches before j), the worst excess of
    those intervals is the deficit max_{a <= j} g(a) - g(j), and a switch
    adds 1 - 1/na to it.  The supervisor keeps the deficit as a scalar,
    which a step changes by its switch count minus 1/na, floored at zero,
    so each call is O(1).
    """

    def __init__(self, initial_id: int, budget: DwellTimeBudget, known_ids=None):
        self._known = None if known_ids is None else frozenset(int(i) for i in known_ids)
        self._check_known(initial_id)
        self._ids = [int(initial_id)]
        self._deficit = 0.0
        self._decay = 1.0 / budget.na
        self._limit = budget.n0 + _SLACK_TOL

    def _check_known(self, id: int) -> None:
        if self._known is not None and int(id) not in self._known:
            raise ValueError(f"unknown primitive id {id}")

    @property
    def current(self) -> int:
        return self._ids[-1]

    def request(self, requested: int) -> bool:
        """Advance one step; returns True when the request was admitted."""
        self._check_known(requested)
        requested = int(requested)
        current = self._ids[-1]
        admitted, self._deficit = _deficit_step(self._deficit, requested != current,
                                                self._decay, self._limit)
        self._ids.append(requested if admitted else current)
        return admitted or requested == current

    @property
    def signal(self) -> SwitchingSignal:
        return SwitchingSignal(np.array(self._ids, dtype=np.int64))


# Signals per block of the admit-all columns: a block's running sums are
# (steps, _COLUMN_BLOCK) arrays, so no (signals, steps) one is made.
_COLUMN_BLOCK = 64


def _supervise_columns(size: int, initial: np.ndarray, requests: np.ndarray,
                       budget: DwellTimeBudget) -> tuple[np.ndarray, int]:
    """``Supervisor.request`` for a batch of signals over members
    0..size - 1.

    Row e starts at column ``initial[e]``.  At step k + 1 it requests, for
    r = ``requests[e, k]`` >= 0, the member r + 1 places after its current
    one, counted cyclically (so r in 0..size - 2 names each other member
    once), and holds its current member where r is -1.  ``requests`` (E, K)
    may have any integer dtype.  Every row keeps its own deficit and steps
    it with ``_deficit_step``, one numpy step per step, as
    ``Supervisor.request`` does, so the result equals a per-row replay of
    ``Supervisor`` bit for bit.  With 1/na >= 1 every switch from a zero
    deficit is admitted and leaves it at most zero (n0 > 0), so no deficit
    is stepped: every request moves its row r + 1 places, a hold none, and
    the columns are the running sums of ``requests`` + 1 from ``initial``,
    modulo ``size``, taken ``_COLUMN_BLOCK`` rows at a time.  Returns the
    (E, K + 1) columns, stored in ``np.min_scalar_type(size)`` and
    step-major (each step's column is contiguous), and the number of
    deferred requests.
    """
    count, steps = requests.shape
    cols = np.empty((steps + 1, count), dtype=np.min_scalar_type(size))
    decay = 1.0 / budget.na
    if decay >= 1.0:
        # the running sums stay below (steps + 1) · size
        wide = np.min_scalar_type(-(steps + 1) * size)
        moves = np.empty((steps + 1, min(count, _COLUMN_BLOCK)), dtype=wide)
        sums = np.empty_like(moves)
        for start in range(0, count, _COLUMN_BLOCK):
            block = slice(start, start + _COLUMN_BLOCK)
            width = min(_COLUMN_BLOCK, count - start)
            move, total = moves[:, :width], sums[:, :width]
            move[0] = initial[block]
            np.add(requests[block].T, 1, out=move[1:], dtype=wide)
            np.cumsum(move, axis=0, dtype=wide, out=total)
            # total - size · (total // size): numpy divides by a scalar far
            # faster than it takes a remainder
            np.floor_divide(total, size, out=move)
            move *= size
            total -= move
            cols[:, block] = total
        return cols.T, 0
    cols[0] = initial
    deficit = np.zeros(count)
    limit = budget.n0 + _SLACK_TOL
    deferred = 0
    for k in range(steps):
        current = cols[k]
        pick = requests[:, k]
        asked = pick >= 0
        switch, deficit = _deficit_step(deficit, asked, decay, limit)
        deferred += int(np.count_nonzero(asked)) - int(np.count_nonzero(switch))
        # the modular arithmetic runs in intp; only the storage is narrow
        target = np.add(current, pick, dtype=np.intp)
        target += 1
        target %= size
        cols[k + 1] = np.where(switch, target, current)
    return cols.T, deferred


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an integer array, its dtype kept; integral floats are
    converted, anything else (bools included) and any value int64 cannot
    hold is a ValueError naming ``name``."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        if arr.dtype == np.uint64 and np.any(arr >= 2**63):
            raise ValueError(f"{name} must be integers below 2**63")
        return arr
    if arr.dtype.kind == "f" and np.all(
            np.isfinite(arr) & (arr == np.floor(arr)) & (np.abs(arr) < 2.0 ** 63)):
        return arr.astype(np.int64)
    raise ValueError(f"{name} must be integers")


def heading_policy(phi: float, dead_zone: float = 0.0) -> int:
    """Map a heading estimate to a primitive id: 0 right of the dead zone,
    1 inside it, 2 left of it."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError("heading estimate must be finite")
    if not (dead_zone >= 0.0 and math.isfinite(dead_zone)):
        raise ValueError("dead_zone must be nonnegative and finite")
    if phi < -dead_zone:
        return 0
    if phi > dead_zone:
        return 2
    return 1
