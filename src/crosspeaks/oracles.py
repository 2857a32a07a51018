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
through one function, geometry.region_points: continuous_random_batch via
sample_inner_batch, the simulator factor by factor.  Every body answers a
random query with one of (2^n + 1)^k possible label tuples (2^n peaks or
core, per factor), which is the fan-out that bounds what q queries can
distinguish.

Transcripts record queries append-only, random draws as tuples of integer
labels and membership probes as tuples of integer peak indices, and
serialize one line per query: 'R <label,...>' for random draws,
'M <idx,...> -> <bool,...>' for membership probes; labels are 'C' or
'P<orthant-hex>'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .family import ProductBody
from .geometry import (core_label_value, label_text, membership_inner,
                       region_points, sample_inner_batch,
                       sample_region_label_rows, sample_region_labels)


@dataclass
class Transcript:
    """Append-only record of oracle interactions with n-dimensional factors."""

    n: int
    entries: list = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.entries)

    def record_random(self, labels) -> None:
        self.entries.append(("R", tuple(int(v) for v in labels)))

    def record_random_rows(self, rows: np.ndarray) -> None:
        """One random-draw entry per row of a (count, k) label matrix."""
        self.entries.extend(("R", tuple(row)) for row in rows.tolist())

    def record_membership(self, indices: tuple[int, ...],
                          answers: tuple[bool, ...]) -> None:
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


def _parse_draw_label(n: int, token: str) -> int:
    """A random-draw label token: 'C' or 'P<hex index below 2^n>'."""
    if token == "C":
        return core_label_value(n)
    if token.startswith("P"):
        try:
            index = int(token[1:], 16)
        except ValueError:
            index = -1
        if 0 <= index < core_label_value(n):
            return index
    raise ParameterError(f"bad random-draw label {token!r} for n={n}")


def parse_transcript_log(n: int, text: str) -> Transcript:
    """Inverse of Transcript.to_log for n-dimensional factors (n >= 2)."""
    if n < 2:
        raise ParameterError(f"transcript factors need n >= 2, got n={n}")
    t = Transcript(n)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("R "):
            t.record_random(_parse_draw_label(n, token.strip())
                            for token in line[2:].split(","))
        elif line.startswith("M "):
            try:
                left, right = line[2:].split("->")
                idx = tuple(int(s) for s in left.strip().split(","))
                ans = tuple({"true": True, "false": False}[s.strip()]
                            for s in right.strip().split(","))
            except (ValueError, KeyError) as exc:
                raise ParameterError(f"malformed membership line {line!r}") from exc
            if len(idx) != len(ans) or not all(0 <= i < (1 << n) for i in idx):
                raise ParameterError(
                    f"membership line {line!r} needs one answer per peak index "
                    f"below 2^{n}")
            t.record_membership(idx, ans)
        else:
            raise ParameterError(f"unknown transcript line {line!r}")
    return t


# ---------------------------------------------------------------------------
# continuous oracles

def continuous_random_batch(body: ProductBody, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """(count, k*n) uniform points of the product body, factor by factor."""
    cols = [sample_inner_batch(f, count, rng)[0] for f in body.factors]
    return np.concatenate(cols, axis=1)


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
    out = np.empty((count, body.k), dtype=np.int64)
    for j, f in enumerate(body.factors):
        out[:, j] = sample_region_labels(f, count, rng)
    return out


def discrete_membership(body: ProductBody, indices: tuple[int, ...]) -> tuple[bool, ...]:
    """Peak-presence bit per factor for the queried orthant indices, one
    index per factor."""
    if len(indices) != body.k:
        raise ParameterError(f"query has {len(indices)} indices, body has {body.k} factors")
    n = body.n
    for i in indices:
        if not 0 <= i < (1 << n):
            raise ParameterError(f"peak index {i} out of range for n={n}")
    return tuple(f.has_peak(i) for i, f in zip(indices, body.factors))


def simulate_batch(n: int, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Regenerate uniform points of the labeled regions: (count, k) integer
    labels -> (count, k*n) points, drawn factor by factor through
    geometry.region_points.  Because continuous_random_batch is a mixture
    over regions with the label law of discrete_random, feeding this
    discrete draws yields exactly the continuous oracle's distribution."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ParameterError(
            f"labels must be a (count, k) array, got shape {labels.shape}")
    return np.concatenate([region_points(n, col, rng) for col in labels.T], axis=1)


# ---------------------------------------------------------------------------
# answer space

def answer_space_size(n: int, k: int) -> int:
    """The fan-out of the discrete random oracle: (2^n + 1)^k."""
    return ((1 << n) + 1) ** k
