"""From per-time activation confidences to per-clip binary labels.

Covers the full labeling chain: smoothing the confidence curves, thresholding
their per-clip maxima, collapsing the raw instrument vocabulary into the final
class set, and the track-level stratified train/test split.
"""

import functools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OTHER_CLASS = "OTHER"
DEFAULT_WINDOW_SECONDS = 0.1
DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_SONGS = 20
# Cells per np.array call of parse_activation_csv: bounds the str objects
# held at once (about 64 bytes a cell), which a long track's table would
# otherwise hold by the megabyte.
_CONVERSION_CELLS = 1 << 12


def read_text(path) -> str:
    """The text of file ``path``, decoded as UTF-8. A byte that does not
    decode raises ValueError naming the path and the byte's offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: byte 0x{data[err.start]:02x} "
                         f"at offset {err.start}") from None


@dataclass
class ActivationTable:
    """Time-indexed activation confidences for one track.

    ``conf`` is ``[time_steps, len(columns)]`` with values in [0, 1]; the time
    grid must be strictly increasing with a uniform step.
    """

    track_id: str
    times: np.ndarray
    columns: list[str]
    conf: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.conf = np.asarray(self.conf, dtype=np.float64)
        for name, values in (("times", self.times), ("confidence values", self.conf)):
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite {name} in track {self.track_id}")
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError(f"need at least 2 time steps in track {self.track_id}, "
                             f"got {self.times.shape}")
        if self.conf.shape != (len(self.times), len(self.columns)):
            raise ValueError(
                f"conf shape {self.conf.shape} does not match "
                f"{len(self.times)} times x {len(self.columns)} instruments in track "
                f"{self.track_id}"
            )
        diffs = np.diff(self.times)
        if (diffs <= 0).any():
            raise ValueError(f"times not strictly increasing in track {self.track_id}")
        step = diffs[0]
        if np.abs(diffs - step).max() > 1e-9:
            raise ValueError(f"non-uniform time step in track {self.track_id}")
        if self.conf.min() < -1e-9 or self.conf.max() > 1.0 + 1e-9:
            raise ValueError(f"confidence values outside [0, 1] in track {self.track_id}")
        self.conf = np.clip(self.conf, 0.0, 1.0)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @functools.cached_property
    def smoothed(self) -> np.ndarray:
        """Read-only :func:`moving_average` of ``conf`` over
        ``DEFAULT_WINDOW_SECONDS``, computed once."""
        values = moving_average(self.conf, self.step, DEFAULT_WINDOW_SECONDS)
        values.flags.writeable = False
        return values


def parse_activation_csv(text: str, track_id: str) -> ActivationTable:
    """Parse the "time,<instrument>,..." comma-separated annotation layout.

    Once every row has the header's cell count, the cells convert in
    ``np.array`` calls of up to ``_CONVERSION_CELLS`` cells, which accept
    exactly what ``float`` accepts. A bad file raises the error of its first
    bad line, blank lines counted.
    """
    lines = text.splitlines()
    rows = [s for ln in lines if (s := ln.strip())]  # the non-blank lines, stripped
    if not rows:
        raise ValueError(f"empty activation file for track {track_id}")
    header = [c.strip() for c in rows[0].split(",")]
    if header[0].lower() != "time" or len(header) < 2:
        raise ValueError(f"bad activation header {rows[0]!r} in track {track_id}")
    data, width = rows[1:], len(header)
    try:
        if any(row.count(",") != width - 1 for row in data):
            raise ValueError("row with a wrong cell count")
        values = np.empty((len(data), width))
        step = max(1, _CONVERSION_CELLS // width)
        for start in range(0, len(data), step):
            block = data[start:start + step]
            cells = ",".join(block).split(",")
            values[start:start + len(block)] = np.array(cells, np.float64).reshape(len(block), width)
    except ValueError:
        # walk the data lines, numbered with blank lines counted, to name the first bad one
        numbered = [(n, s) for n, ln in enumerate(lines, 1) if (s := ln.strip())]
        for lineno, row in numbered[1:]:
            cells = row.split(",")
            if len(cells) != width:
                raise ValueError(f"track {track_id} line {lineno}: row with {len(cells)} cells, "
                                 f"expected {width}: {row!r}") from None
            try:
                [float(c) for c in cells]
            except ValueError:
                raise ValueError(f"track {track_id} line {lineno}: cell that is not a number "
                                 f"in {row!r}") from None
        raise
    return ActivationTable(track_id, values[:, 0], header[1:], values[:, 1:])


def window_samples(step_seconds: float, window_seconds: float) -> int:
    """Number of samples covered by the smoothing window; must be >= 1 step."""
    if step_seconds <= 0:
        raise ValueError(f"time step must be positive, got {step_seconds}")
    w = int(round(window_seconds / step_seconds))
    if w < 1:
        raise ValueError(
            f"window of {window_seconds}s shorter than one {step_seconds}s time step"
        )
    return w


def moving_average(values, step_seconds: float, window_seconds: float = DEFAULT_WINDOW_SECONDS):
    """Centered moving average with edge windows truncated to available samples.

    The window spans ``w = round(window_seconds / step_seconds)`` samples,
    covering indices ``[i - (w-1)//2, i + w//2]``. Works on a 1-D series or
    column-wise on a ``[time, instruments]`` matrix.
    """
    values = np.asarray(values, dtype=np.float64)
    w = window_samples(step_seconds, window_seconds)
    if w == 1:
        return values.copy()
    n = values.shape[0]
    left = (w - 1) // 2
    right = w // 2
    csum = np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(values, axis=0)])
    lo = np.clip(np.arange(n) - left, 0, n)
    hi = np.clip(np.arange(n) + right + 1, 0, n)
    sums = csum[hi] - csum[lo]
    counts = (hi - lo).reshape((n,) + (1,) * (values.ndim - 1))
    return sums / counts


def clip_label(table: ActivationTable, clip_start: float, clip_end: float) -> np.ndarray:
    """Binary activity per instrument: max of the smoothed confidence >=
    ``DEFAULT_THRESHOLD``.

    The maximum runs over annotation samples with time in
    ``[clip_start, clip_end)``. Clips outside the annotated range (beyond one
    time step of slack at either end) are rejected.
    """
    if clip_end <= clip_start:
        raise ValueError(f"empty clip interval [{clip_start}, {clip_end})")
    step = table.step
    if clip_start < table.times[0] - step or clip_end > table.times[-1] + step:
        raise ValueError(
            f"clip [{clip_start}, {clip_end}) outside annotation range "
            f"[{table.times[0]}, {table.times[-1]}] of track {table.track_id}"
        )
    mask = (table.times >= clip_start) & (table.times < clip_end)
    if not mask.any():
        raise ValueError(
            f"no annotation samples inside clip [{clip_start}, {clip_end}) "
            f"of track {table.track_id}"
        )
    return (table.smoothed[mask].max(axis=0) >= DEFAULT_THRESHOLD).astype(np.uint8)


@dataclass
class Taxonomy:
    """Two-level instrument vocabulary: raw name -> category -> final class.

    Raw names missing from the map pass through as their own category, which
    then lands in OTHER unless it was kept. ``classes`` is the ordered final
    class list; OTHER is always last.
    """

    raw_to_category: dict
    category_to_class: dict
    classes: list

    def class_matrix(self, raw_names) -> np.ndarray:
        """``[len(raw_names), len(classes)]`` bool: row i marks the final class
        of ``raw_names[i]``."""
        final = (self.category_to_class.get(self.raw_to_category.get(r, r), OTHER_CLASS)
                 for r in raw_names)
        return np.eye(len(self.classes), dtype=bool)[[self.classes.index(c) for c in final]]


def build_taxonomy(track_instruments: dict, raw_to_category: dict,
                   min_songs: int = DEFAULT_MIN_SONGS) -> Taxonomy:
    """Collapse categories that appear in fewer than ``min_songs`` tracks.

    ``track_instruments`` maps track id -> set of raw instrument names present
    in that track. A category survives iff it appears in at least
    ``min_songs`` distinct tracks; everything else maps to OTHER. Kept
    categories are ordered alphabetically, OTHER last.
    """
    if min_songs < 1:
        raise ValueError(f"min_songs must be >= 1, got {min_songs}")
    counts = Counter(c for raws in track_instruments.values()
                     for c in {raw_to_category.get(r, r) for r in raws})
    kept = sorted(c for c, n in counts.items() if n >= min_songs and c != OTHER_CLASS)
    category_to_class = {c: (c if c in kept else OTHER_CLASS) for c in counts}
    return Taxonomy(dict(raw_to_category), category_to_class, kept + [OTHER_CLASS])


def collapse_labels(raw_bits, class_matrix) -> np.ndarray:
    """OR the raw instrument bits into the final class vector.

    ``raw_bits`` is ``[raw names]`` for one clip or ``[clips, raw names]``;
    ``class_matrix`` is :meth:`Taxonomy.class_matrix` of those raw names.
    """
    raw_bits = np.asarray(raw_bits)
    if raw_bits.shape[-1:] != class_matrix.shape[:1]:
        raise ValueError(f"bit vector shape {raw_bits.shape} != {len(class_matrix)} raw names")
    return ((raw_bits != 0) @ class_matrix).astype(np.uint8)


def load_category_map(path) -> dict:
    """Read "rawName<TAB>category" lines; '#' lines are comments."""
    mapping = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'name<TAB>category', got {line!r}")
        src, dst = parts[0].strip(), parts[1].strip()
        if src in mapping and mapping[src] != dst:
            raise ValueError(f"{path}:{lineno}: conflicting mapping for {src!r}")
        mapping[src] = dst
    return mapping


def write_taxonomy(path, taxonomy: Taxonomy) -> None:
    """Write the resolved two-level map, one mapping per line."""
    lines = ["# classes: " + ",".join(taxonomy.classes)]
    for raw in sorted(taxonomy.raw_to_category):
        lines.append(f"{raw}\t{taxonomy.raw_to_category[raw]}")
    for cat in sorted(taxonomy.category_to_class):
        lines.append(f"{cat}\t{taxonomy.category_to_class[cat]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class SplitResult:
    """Disjoint track-level split with per-class positive counts."""

    train_ids: list
    test_ids: list
    label_coverage: np.ndarray  # [2, n_labels]: row 0 train, row 1 test


def stratified_split(track_labels: dict, test_fraction: float = 0.2,
                     seed: int = 0) -> SplitResult:
    """Greedy iterative stratification of tracks into train/test sides.

    Repeatedly takes the label with the fewest remaining positive tracks and
    assigns its tracks one by one to the side with the larger remaining
    per-label quota (ties: larger overall quota, then a seeded coin flip).
    When a track is the last remaining positive for some label that one side
    still lacks entirely, it is forced to that side, so every label with at
    least two positive tracks ends up represented on both sides. Label
    vectors share one length and hold only 0/1.
    """
    if not track_labels:
        raise ValueError("empty track set")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    ids = sorted(track_labels)
    vectors = [np.asarray(track_labels[t]).ravel() for t in ids]
    for track, vector in zip(ids, vectors):
        if len(vector) != len(vectors[0]):
            raise ValueError(f"track label vectors must share one length: track {track!r} "
                             f"has {len(vector)}, track {ids[0]!r} has {len(vectors[0])}")
    labels = np.asarray(vectors)
    bad = np.argwhere(~np.isin(labels, (0, 1)))
    if len(bad):
        row, column = bad[0]
        raise ValueError(f"track {ids[row]!r}: label values must be 0/1, got {labels[row, column]}")
    labels = labels.astype(bool)
    n_tracks, n_labels = labels.shape
    rng = np.random.default_rng(seed)

    fractions = np.array([1.0 - test_fraction, test_fraction])  # train, test
    totals = labels.sum(axis=0)
    # open quota per side: one column per label, the last for the track count
    wanted = fractions[:, None] * np.append(totals, n_tracks)
    have = np.zeros((2, n_labels), dtype=np.int64)  # positives assigned per side
    side_of = np.full(n_tracks, -1)
    while True:
        left = totals - have.sum(axis=0)  # unassigned positives per label
        if left.any():
            focus = int(np.argmin(np.where(left > 0, left, n_tracks + 1)))
            tracks = np.flatnonzero((side_of < 0) & labels[:, focus])
        else:  # leftovers: all-zero label vectors, placed by the track quota
            focus, tracks = n_labels, np.flatnonzero(side_of < 0)
        for track in tracks:
            last = labels[track] & (totals >= 2) & (totals - have.sum(axis=0) == 1)
            forced = np.flatnonzero((have[:, last] == 0).any(axis=1))
            quotas = wanted[:, [focus, n_labels]]
            differ = np.flatnonzero(quotas[0] != quotas[1])
            if len(forced) == 1:
                side = forced[0]
            elif len(differ):
                side = np.argmax(quotas[:, differ[0]])
            else:
                side = rng.integers(2)
            side_of[track] = side
            have[side] += labels[track]
            wanted[side, np.append(labels[track], True)] -= 1.0
        if focus == n_labels:
            break

    train_ids = [ids[i] for i in range(n_tracks) if side_of[i] == 0]
    test_ids = [ids[i] for i in range(n_tracks) if side_of[i] == 1]
    return SplitResult(train_ids, test_ids, have)


def write_split_file(path, track_ids) -> None:
    Path(path).write_text("".join(f"{t}\n" for t in track_ids), encoding="utf-8")
