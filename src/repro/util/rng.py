"""Deterministic, forkable random number generation.

All stochastic components of the simulation draw from a
:class:`SeededRng`.  A top-level seed fully determines every experiment
output.  Substreams are derived by *name* (``rng.fork("traffic")``), so
the order in which components are constructed does not influence the
random values any single component observes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(seed: int, name: str) -> int:
    """Derive a 128-bit child seed from ``seed`` and a stream ``name``."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


class SeededRng:
    """A named, forkable wrapper around :class:`random.Random`.

    Parameters
    ----------
    seed:
        Integer master seed.
    name:
        Stream name; ``fork()`` derives child streams by appending to it.
    """

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(_derive_seed(seed, name))

    def fork(self, name: str) -> "SeededRng":
        """Return an independent child stream identified by ``name``."""
        return SeededRng(self.seed, f"{self.name}/{name}")

    # -- thin delegation to random.Random ---------------------------------

    def random(self) -> float:
        return self._random.random()

    def randint(self, a: int, b: int) -> int:
        return self._random.randint(a, b)

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        if stop is None:
            return self._random.randrange(start)
        return self._random.randrange(start, stop)

    def uniform(self, a: float, b: float) -> float:
        return self._random.uniform(a, b)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def choices(
        self,
        population: Sequence[T],
        weights: Optional[Sequence[float]] = None,
        *,
        cum_weights: Optional[Sequence[float]] = None,
        k: int = 1,
    ) -> List[T]:
        return self._random.choices(
            population, weights, cum_weights=cum_weights, k=k
        )

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return self._random.sample(population, k)

    def shuffle(self, seq: List[T]) -> None:
        self._random.shuffle(seq)

    def getrandbits(self, k: int) -> int:
        return self._random.getrandbits(k)

    # -- convenience helpers ----------------------------------------------

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def token(self, length: int, alphabet: str = "abcdefghijklmnopqrstuvwxyz0123456789") -> str:
        """Return a random string of ``length`` characters from ``alphabet``."""
        return "".join(self._random.choice(alphabet) for _ in range(length))

    def random_bytes(self, n: int) -> bytes:
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Pick an index proportionally to ``weights``."""
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must have a positive sum")
        target = self._random.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if target < acc:
                return i
        return len(weights) - 1

    def zipf_weights(self, n: int, exponent: float = 1.0) -> List[float]:
        """Return unnormalized Zipf weights ``1/rank**exponent`` for ``n`` ranks."""
        return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]

    def poisson(self, lam: float) -> int:
        """Sample from a Poisson distribution (Knuth for small lam, normal approx otherwise)."""
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if lam == 0:
            return 0
        if lam > 500:
            # Normal approximation keeps this O(1) for the large daily volumes.
            value = int(round(self._random.gauss(lam, lam ** 0.5)))
            return max(0, value)
        import math

        limit = math.exp(-lam)
        k = 0
        product = self._random.random()
        while product > limit:
            k += 1
            product *= self._random.random()
        return k

    def subsample(self, items: Iterable[T], probability: float) -> List[T]:
        """Keep each item independently with the given probability."""
        return [item for item in items if self.chance(probability)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self.seed}, name={self.name!r})"
