"""Pure-Fraction reference definitions the benchmark checks outputs against.

Everything here is written from the construction's definitions and parses
manifests itself, so a bug in the package cannot hide behind its own
answers: the core O_n has volume 2^n / n!, each of the 2^n peaks has volume
vol(O_n) / (2^n (n-1)), and a point with t_i = |x_i|, T = sum t_i lies in
the core when T <= 1 and in the peak of its orthant when 1 < T <= 1 + min t_i.
"""

from __future__ import annotations

import math
from fractions import Fraction


def core_volume(n: int) -> Fraction:
    return Fraction(2 ** n, math.factorial(n))


def peak_volume(n: int) -> Fraction:
    return core_volume(n) / (2 ** n * (n - 1))


def inner_volume(n: int, peak_count: int) -> Fraction:
    return core_volume(n) + peak_count * peak_volume(n)


def family_volume(n: int, k: int) -> Fraction:
    """Volume shared by every family member: each factor carries 2^(n-1) peaks."""
    return inner_volume(n, 2 ** (n - 1)) ** k


class ManifestFamily:
    """A family as the reference sees it: per body, one peak set per factor."""

    def __init__(self, text: str):
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        head = dict(p.split("=", 1) for p in lines[0].split())
        self.n, self.k = int(head["n"]), int(head["k"])
        outer_size = int(head["outer_size"])
        self.outer = [tuple(int(s) for s in ln.split(","))
                      for ln in lines[1:1 + outer_size]]
        # lines[1 + outer_size] is the inner code header; bit i = orthant i
        self.inner = [frozenset(i for i, b in enumerate(ln) if b == "1")
                      for ln in lines[2 + outer_size:]]

    def body(self, index: int) -> list[frozenset[int]]:
        return [self.inner[s] for s in self.outer[index]]

    def distance(self, i: int, j: int) -> Fraction:
        """vol(bigger minus smaller) / vol(bigger), exact."""
        n = self.n
        a, b = self.body(i), self.body(j)
        va = vb = inter = Fraction(1)
        for pa, pb in zip(a, b):
            va *= inner_volume(n, len(pa))
            vb *= inner_volume(n, len(pb))
            inter *= inner_volume(n, len(pa & pb))
        big = max(va, vb)
        return (big - inter) / big

    def contains(self, index: int, point) -> bool:
        """Exact membership of a point given as a sequence of rationals."""
        n = self.n
        return all(region(n, point[j * n:(j + 1) * n]) in ("core", *peaks)
                   for j, peaks in enumerate(self.body(index)))


def region(n: int, x) -> str | int:
    """'core', 'outside', or the orthant index of the peak region holding x."""
    t = [abs(Fraction(v)) for v in x]
    total = sum(t)
    if total <= 1:
        return "core"
    if total <= 1 + min(t):
        return sum(1 << i for i, v in enumerate(x) if v > 0)
    return "outside"


def label_text(value) -> str:
    """Transcript text of a region: 'C', 'O' or 'P<orthant in hex>'."""
    if value == "core":
        return "C"
    if value == "outside":
        return "O"
    return "P" + format(value, "x")
