"""The host's pace: how fast it runs a fixed probe right now.

On a host whose cores are shared, the same work takes up to twice as
long while a neighbour is busy, and the slow stretches last from about
a second to minutes: a median over a run's repetitions follows them
from run to run.  So the timed work is cut into parts (a job, a GRAPE
synthesis, a submission), a short fixed probe runs before every part
and once after the last, and each part's time is scaled to the
reference pace: multiplied by :data:`REFERENCE_SECONDS` over the mean
of the probes on either side of it.  A part that gets faster reads
faster by the same ratio; a neighbour that slows the probe and the part
alike reads as no change.  The probes run outside the parts' times.
Where the program's own threads would slow a probe (the compile
service), bursts of probes while it is idle stand in for them; set-up
is scaled by a burst of probes when it ends.
"""

from __future__ import annotations

import statistics
import time

import numpy

#: The probe's time at full speed on a 2-CPU Xeon host, so that scaled
#: times read close to that host's own seconds.
REFERENCE_SECONDS = 0.0018

_MATRICES = numpy.random.default_rng(0).standard_normal((4, 4, 4)) * (1 + 1j)


class _Node:
    __slots__ = ("key", "links")

    def __init__(self, key: int) -> None:
        self.key = key
        self.links: list = []


def _probe_work() -> float:
    """Object graph walking, dict updates and sorting, like the
    compiler passes, plus small complex matrix products, like GRAPE."""
    nodes = [_Node(index) for index in range(300)]
    for index, node in enumerate(nodes):
        node.links.append(nodes[(index * 7) % 300])
        node.links.append(nodes[(index * 13) % 300])
    tally: dict = {}
    for round_ in range(10):
        for node in nodes:
            key = (node.key, round_ & 1)
            tally[key] = tally.get(key, 0) + sum(link.key for link in node.links)
    ordered = sorted(tally.items(), key=lambda item: item[1])
    product = _MATRICES[0]
    for _ in range(80):
        product = product @ _MATRICES[1]
        product = product / numpy.abs(product).max()
    return float(ordered[0][1]) + float(product.real.sum())


def _probe_seconds() -> float:
    started = time.perf_counter()
    _probe_work()
    return time.perf_counter() - started


def burst() -> float:
    """The median of a burst of probes: the pace right now."""
    return statistics.median(_probe_seconds() for _ in range(9))


def at_reference(seconds: float) -> float:
    """``seconds`` just spent, at the reference pace: scaled by a burst
    of probes taken now.  For set-up, which runs once or a few times per
    run and is not cut into parts."""
    return seconds * REFERENCE_SECONDS / burst()


class Pace:
    """Probes taken next to the parts of one repetition."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> None:
        self.probes.append(_probe_seconds())

    def take(self) -> list[float]:
        probes, self.probes = self.probes, []
        return probes


def scale(parts: list, probes: list, rest: float) -> list:
    """``parts`` and then ``rest`` at the reference pace.

    ``probes`` holds one probe before each part and one after the last;
    ``rest`` (the repetition's time outside parts and probes) is scaled
    by the median probe.  With other probes (one burst before and one
    after the repetition, or a program that no longer runs through the
    probed call) every part is scaled by their median.
    """
    middle = statistics.median(probes)
    if len(probes) != len(parts) + 1:
        probes = [middle] * (len(parts) + 1)
    scaled = [
        seconds * 2 * REFERENCE_SECONDS / (probes[index] + probes[index + 1])
        for index, seconds in enumerate(parts)
    ]
    return scaled + [max(0.0, rest) * REFERENCE_SECONDS / middle]
