"""Deterministic random-number utilities.

Every stochastic component (workload generator, fault injector,
executor retry backoff) draws from its own :class:`SeededRNG`
derived from the experiment's master seed, so that

* a whole experiment is reproducible from one integer, and
* adding randomness to one component does not perturb the stream seen
  by another (independent sub-streams via :func:`derive_seed`).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Zipf cumulative weights and their float total, per ``(n, skew)``.
#: A process meets a handful of pairs (one per scenario shape), so the
#: table stays small.
_ZIPF_CDF: Dict[Tuple[int, float], Tuple[List[float], float]] = {}


def derive_seed(master: int, *labels: object) -> int:
    """Derive a stable 64-bit sub-seed from ``master`` and a label path.

    Uses BLAKE2b over the textual labels so that sub-streams are
    independent of each other and stable across Python versions (unlike
    ``hash()``, which is salted per process).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest(), "big")


class SeededRNG:
    """A thin wrapper over :class:`random.Random` with domain helpers."""

    def __init__(self, seed: int):
        self.seed = seed
        self._random = random.Random(seed)

    def derive(self, *labels: object) -> "SeededRNG":
        """Create an independent child stream for a named component."""
        return SeededRNG(derive_seed(self.seed, *labels))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive on both ends."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list:
        return self._random.sample(seq, k)

    def zipf_index(self, n: int, skew: float) -> int:
        """Draw an index in [0, n) with Zipf-like skew.

        ``skew == 0`` is uniform; larger values concentrate probability
        on low indices.  Used to model the paper's "high" vs "moderate"
        contention: high contention = strong skew onto few hot objects.

        The draw is the arithmetic of ``Random.choices(range(n),
        weights=[1.0 / (rank + 1) ** skew ...])`` on a cumulative table
        built once per ``(n, skew)``: one ``random()`` per draw, the
        same total and the same bisection, so every stream is the one
        ``choices`` would produce, draw for draw.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if skew <= 0:
            return self._random.randrange(n)
        table = _ZIPF_CDF.get((n, skew))
        if table is None:
            cum = list(accumulate(1.0 / (rank + 1) ** skew
                                  for rank in range(n)))
            table = _ZIPF_CDF[n, skew] = (cum, cum[-1] + 0.0)
        cum, total = table
        return bisect(cum, self._random.random() * total, 0, n - 1)

    def maybe(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._random.random() < probability

    def pareto_int(self, minimum: int, alpha: float = 1.5,
                   maximum: Optional[int] = None) -> int:
        """Heavy-tailed integer >= minimum, optionally capped."""
        value = int(minimum * self._random.paretovariate(alpha))
        if maximum is not None:
            value = min(value, maximum)
        return max(value, minimum)
