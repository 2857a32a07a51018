"""Query oracles over product bodies, and the discrete-to-continuous bridge.

Four oracles, all driven by a caller-supplied numpy Generator:

  continuous_random_batch  uniform points of the body
  continuous_membership    point in body?
  discrete_random          per-factor region label (core or a present peak),
                           with probabilities exactly proportional to volumes
  discrete_membership      per-factor "is peak #i present?" bits

Labels are the integers of geometry: a value below 2^n is a peak's orthant
index, 2^n is the core.  discrete_random is one row of
geometry.sample_region_label_rows, which draws query by query (factor by
factor within a row), so q calls consume the generator exactly as one
q-row draw does; the game's OracleSession.random_batch relies on that.
discrete_random_batch and continuous_random_batch draw factor by factor
instead (column j takes `count` consecutive draws).

A discrete random answer carries everything needed to regenerate a
continuous sample: conditioned on the label, the point is uniform on that
region, so simulate_batch(n, labels) has exactly the distribution of
continuous_random_batch on the same body.  Both turn labels into points
through one function, geometry.region_points (continuous_random_batch via
sample_inner_batch), factor by factor, each factor's points copied into its
columns of one (count, k*n) array.  Every body answers a
random query with one of (2^n + 1)^k possible label tuples (2^n peaks or
core, per factor), which is the fan-out (bounds.answer_space_size) that
bounds what q queries can distinguish.

Transcripts record queries append-only, random draws as tuples of integer
labels and membership probes as tuples of integer peak indices, and
serialize one line per query: 'R <label,...>' for random draws,
'M <idx,...> -> <bool,...>' for membership probes; labels are 'C' or
'P<orthant-hex>'.  A transcript checks every entry when it is recorded
(labels in [0, 2^n], peak indices in [0, 2^n), one bool answer per index),
so every transcript it holds replays from its log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import parse_words
from .errors import ParameterError, require_addressable, require_int
from .family import ProductBody
from .geometry import (core_label_value, label_text, membership_inner,
                       parse_label, region_points, sample_inner_batch,
                       sample_region_label_rows, sample_region_labels)


@dataclass
class Transcript:
    """Append-only record of oracle interactions with n-dimensional factors
    (n >= 2).  Each entry is checked when it is recorded, so every recorded
    transcript is one its log can replay: a random draw is one label in
    [0, 2^n] per factor, a membership probe one peak index in [0, 2^n) and
    one bool answer per factor, and neither is empty."""

    n: int
    entries: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.n = require_int(self.n, "n", 2)

    @property
    def query_count(self) -> int:
        return len(self.entries)

    def record_random(self, labels) -> None:
        """One random draw: the one-row case of record_random_rows."""
        self.record_random_rows([tuple(labels)])

    def record_random_rows(self, rows) -> None:
        """One random-draw entry per row of a (count, k >= 1) label matrix.
        Unless every label is an integer in [0, 2^n], the first one that is
        not is refused with require_int's message."""
        try:
            rows = np.asarray(rows)
        except ValueError as exc:  # ragged rows, or a label that is a sequence
            raise ParameterError("label rows do not form a (count, k) array") from exc
        if rows.ndim != 2 or not rows.shape[1]:
            raise ParameterError(f"label rows must be a (count, k >= 1) array, "
                                 f"got shape {rows.shape}")
        top = core_label_value(self.n) + 1
        if rows.dtype.kind not in "iu" or rows.size and (rows.min() < 0 or rows.max() >= top):
            for label in rows.flat:  # bools, floats and strings fail, as do labels >= top
                require_int(label, "label", 0, top)
        self.entries.extend(("R", tuple(row)) for row in rows.tolist())

    def record_membership(self, indices, answers) -> None:
        indices = tuple(require_int(i, "peak index", 0, 1 << self.n) for i in indices)
        answers = tuple(answers)
        if not indices:
            raise ParameterError("a membership probe needs at least one peak index")
        if len(answers) != len(indices) or not all(isinstance(a, bool) for a in answers):
            raise ParameterError(f"membership answers must be bools, one per peak "
                                 f"index, not {answers!r} for {indices}")
        self.entries.append(("M", indices, answers))

    def to_log(self) -> str:
        lines = []
        for e in self.entries:
            if e[0] == "R":
                lines.append("R " + ",".join(label_text(self.n, v) for v in e[1]))
            else:
                idx = ",".join(str(i) for i in e[1])
                ans = ",".join("true" if b else "false" for b in e[2])
                lines.append(f"M {idx} -> {ans}")
        return "\n".join(lines)


def parse_transcript_log(n: int, text: str) -> Transcript:
    """Inverse of Transcript.to_log for n-dimensional factors (n >= 2).
    Only the spacing to_log writes is read: no blank around a label, an
    index or an answer, and exactly ' -> ' between indices and answers;
    empty lines are skipped."""
    n = require_int(n, "n", 2)
    t = Transcript(n)
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("R "):
            t.record_random(parse_label(n, token) for token in line[2:].split(","))
        elif line.startswith("M "):
            try:
                left, right = line[2:].split(" -> ")
                (idx,) = parse_words([left], "membership indices")
                ans = tuple({"true": True, "false": False}[s] for s in right.split(","))
            except (ValueError, KeyError) as exc:
                raise ParameterError(f"malformed membership line {line!r}") from exc
            t.record_membership(idx, ans)
        else:
            raise ParameterError(f"unknown transcript line {line!r}")
    return t


# ---------------------------------------------------------------------------
# continuous oracles

def continuous_random_batch(body: ProductBody, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """(count, k*n) uniform points of the product body, factor by factor:
    each factor's sample_inner_batch draw is copied into its columns."""
    n = body.n
    points = np.empty((require_addressable(count, body.k * n, "points"), body.k * n))
    for j, f in enumerate(body.factors):
        points[:, j * n:(j + 1) * n] = sample_inner_batch(f, count, rng)[0]
    return points


def continuous_membership(body: ProductBody, x) -> bool:
    """Point-in-body test: every factor block must be a member."""
    x = list(x)
    n, k = body.n, body.k
    if len(x) != n * k:
        raise ParameterError(f"point has dimension {len(x)}, expected {n * k}")
    return all(membership_inner(f, x[j * n:(j + 1) * n])
               for j, f in enumerate(body.factors))


# ---------------------------------------------------------------------------
# discrete oracles

def discrete_random(body: ProductBody, rng: np.random.Generator) -> tuple[int, ...]:
    """Region label per factor, distributed exactly by region volumes."""
    return tuple(sample_region_label_rows(body.factors, 1, rng)[0].tolist())


def discrete_random_batch(body: ProductBody, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(count, k) integer label matrix (core = 2^n), drawn factor by factor:
    column j takes `count` consecutive draws, unlike count discrete_random
    calls, which draw query by query."""
    count = require_addressable(count, body.k, "region labels")
    out = np.empty((count, body.k), dtype=np.int64)
    for j, f in enumerate(body.factors):
        out[:, j] = sample_region_labels(f, count, rng)
    return out


def discrete_membership(body: ProductBody, indices: tuple[int, ...],
                        transcript: Transcript | None = None) -> tuple[bool, ...]:
    """Peak-presence bit per factor for the queried orthant indices, one
    index per factor; any iterable of indices is read once.  Given a
    transcript of the body's n, the probe is also recorded on it, its
    indices checked here only, not again by record_membership."""
    top = 1 << body.n
    indices = tuple(require_int(i, "peak index", 0, top) for i in indices)
    if len(indices) != body.k:
        raise ParameterError(f"query has {len(indices)} indices, body has {body.k} factors")
    answers = tuple(f.has_peak(i) for i, f in zip(indices, body.factors))
    if transcript is not None:
        if transcript.n != body.n:
            raise ParameterError(f"transcript has n={transcript.n}, body has n={body.n}")
        transcript.entries.append(("M", indices, answers))
    return answers


def simulate_batch(n: int, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Regenerate uniform points of the labeled regions: (count, k) integer
    labels -> (count, k*n) points, drawn factor by factor through
    geometry.region_points.  Because continuous_random_batch is a mixture
    over regions with the label law of discrete_random, feeding this
    discrete draws yields exactly the continuous oracle's distribution.  A
    (count, 0) matrix gives (count, 0) points and draws nothing."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ParameterError(
            f"labels must be a (count, k) array, got shape {labels.shape}")
    points = np.empty((len(labels), labels.shape[1] * n))
    for j, col in enumerate(labels.T):
        points[:, j * n:(j + 1) * n] = region_points(n, col, rng)
    return points
