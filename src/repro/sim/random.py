"""Reproducible random-number streams.

Every stochastic component of the simulator (backoff draws, traffic jitter,
channel fading, node placement, bit errors, ...) pulls its variates from a
named stream so that:

* the whole experiment is reproducible from a single master seed, and
* changing the amount of randomness consumed by one component does not
  perturb the variates seen by the others (streams are independently seeded
  via ``numpy.random.SeedSequence.spawn``-style child sequences keyed by the
  stream name).

:func:`pcg64_streams` builds the bit generators of many such streams at
once: it runs numpy's ``SeedSequence`` hashing for all of them in one
vectorised pass and seeds each ``PCG64`` from the resulting words, which
are bit-identical to what ``PCG64(SeedSequence(...))`` derives one stream
at a time.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


def _name_to_entropy(name: str) -> int:
    """Map a stream name to a stable 128-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def spawn_seeds(master_seed: Optional[int], name: str, count: int) -> "list[int]":
    """Derive ``count`` independent integer seeds from ``(master_seed, name)``.

    The seeds are children of the same named :class:`numpy.random.SeedSequence`
    that :class:`RandomStreams` uses, so a task family (e.g. the Monte-Carlo
    windows of one grid point) gets statistically independent generators that
    are reproducible from the master seed alone.  Because the result is a list
    of plain integers it can be shipped to worker processes without pickling
    generator state, which is what the experiment engine's process-pool
    executor relies on: task ``i`` receives ``seeds[i]`` regardless of which
    worker executes it, making serial and parallel runs bit-identical.

    Parameters
    ----------
    master_seed:
        Seed of the family (``None`` draws unpredictable children).
    name:
        Stream name; distinct names yield unrelated seed families.
    count:
        Number of child seeds to derive.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    entropy = _name_to_entropy(name)
    seed_seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(entropy,))
    return [int(child.generate_state(1, np.uint64)[0])
            for child in seed_seq.spawn(count)]


def stream_replica(master_seed: Optional[int],
                   name: str) -> np.random.Generator:
    """A fresh generator replaying the named stream from its initial state.

    Seeded exactly like ``RandomStreams(master_seed).get(name)`` but never
    cached: every call starts a new generator at variate zero.  This is how
    multi-hop forwarding replays a descendant's ``traffic[<id>]`` arrival
    process at its relay — the relay's replica produces the identical
    variate sequence while the descendant's own (cached) stream advances
    independently.
    """
    entropy = _name_to_entropy(name)
    seed_seq = np.random.SeedSequence(entropy=master_seed,
                                      spawn_key=(entropy,))
    return np.random.default_rng(seed_seq)


# numpy's ``SeedSequence`` hash constants (``numpy/random/bit_generator.pyx``).
# The hash chain they drive depends only on the length of the entropy, not
# on its value, so many sequences can be hashed in lockstep.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _word_rows(values: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``values`` as rows of little-endian 32-bit words, and each row's
    word count as ``SeedSequence`` splits an integer (at least one word,
    no leading zero words)."""
    if min(values) < 0:
        raise ValueError("expected non-negative integer")
    width = max(1, -(-max(values).bit_length() // 32))
    words = np.frombuffer(
        b"".join(value.to_bytes(4 * width, "little") for value in values),
        dtype="<u4").reshape(len(values), width).astype(np.uint32)
    nonzero = words != 0
    lengths = np.where(nonzero.any(axis=1),
                       width - np.argmax(nonzero[:, ::-1], axis=1), 1)
    return words, lengths


def _state_words(masters: Sequence[int],
                 entropies: Sequence[int]) -> np.ndarray:
    """``SeedSequence(master, spawn_key=(entropy,)).generate_state(4,
    np.uint64)`` for every pair, as one ``(pairs, 4)`` ``uint64`` array.

    Each pair's assembled entropy is the master's words zero-padded to the
    pool size followed by the entropy's words; rows of different lengths
    share one pass, a row simply stops absorbing words past its end.
    """
    if len(masters) != len(entropies):
        raise ValueError("one master seed per stream entropy is required")
    if not masters:
        return np.zeros((0, 4), dtype=np.uint64)
    master_words, master_lengths = _word_rows(
        [operator.index(master) for master in masters])
    spawn_words, spawn_lengths = _word_rows(
        [operator.index(entropy) for entropy in entropies])
    count = len(masters)
    run_lengths = np.maximum(master_lengths, _POOL_SIZE)
    lengths = run_lengths + spawn_lengths
    # Room for every row's full spawn-word block; the zero words past a
    # row's own length are never absorbed.
    entropy = np.zeros((count, int(run_lengths.max()) + spawn_words.shape[1]),
                       dtype=np.uint32)
    entropy[:, :master_words.shape[1]] = master_words
    entropy[np.arange(count)[:, None],
            run_lengths[:, None] + np.arange(spawn_words.shape[1])] = \
        spawn_words

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[:, index]) for index in range(_POOL_SIZE)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for source in range(_POOL_SIZE, entropy.shape[1]):
        active = lengths > source
        for target in range(_POOL_SIZE):
            mixed = mix(pool[target], hashmix(entropy[:, source]))
            pool[target] = mixed if active.all() else np.where(
                active, mixed, pool[target])

    hash_const = _INIT_B
    state = np.empty((count, 2 * _POOL_SIZE), dtype="<u4")
    for index in range(2 * _POOL_SIZE):
        value = pool[index % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, index] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _state_words_type() -> type:
    """The seed-sequence type whose only state is precomputed ``PCG64``
    words; built on first use, so importing this module does not load
    ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("precomputed words seed a PCG64 only")
            return self.words

    return StateWords


def pcg64_streams(masters: Sequence[int],
                  entropies: Sequence[int]) -> List[np.random.PCG64]:
    """``PCG64(SeedSequence(master, spawn_key=(entropy,)))`` for every pair.

    ``entropies[i]`` is a stream name's :func:`_name_to_entropy`, so each
    generator is the bit generator behind
    ``RandomStreams(masters[i]).get(name)``, bit for bit.  The seed
    sequences of all pairs are hashed in one vectorised pass
    (:func:`_state_words`) instead of one ``SeedSequence`` per stream.
    Masters must be non-negative integers; resolve a ``None`` seed to
    fresh entropy first.
    """
    state_words = _state_words_type()
    return [np.random.PCG64(state_words(words))
            for words in _state_words(masters, entropies)]


class RandomStreams:
    """A family of independently seeded :class:`numpy.random.Generator`.

    Parameters
    ----------
    master_seed:
        Seed of the whole family.  ``None`` draws a fresh unpredictable seed
        (only sensible for exploratory runs; experiments always pass one).

    Examples
    --------
    >>> streams = RandomStreams(1234)
    >>> backoff_rng = streams.get("csma.backoff")
    >>> traffic_rng = streams.get("traffic.jitter")
    >>> backoff_rng is streams.get("csma.backoff")
    True
    """

    def __init__(self, master_seed: Optional[int] = 0):
        self._master_seed = master_seed
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def master_seed(self) -> Optional[int]:
        """The seed the family was created with."""
        return self._master_seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            entropy = _name_to_entropy(name)
            seed_seq = np.random.SeedSequence(
                entropy=self._master_seed, spawn_key=(entropy,))
            self._streams[name] = np.random.default_rng(seed_seq)
        return self._streams[name]

    def spawn(self, name: str, count: int) -> Iterator[np.random.Generator]:
        """Yield ``count`` independent sub-streams of ``name``.

        Useful for giving each node of a large network its own generator.
        """
        for index in range(count):
            yield self.get(f"{name}[{index}]")

    def reset(self) -> None:
        """Forget all streams so they restart from their initial state."""
        self._streams.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"RandomStreams(master_seed={self._master_seed!r}, "
                f"streams={sorted(self._streams)})")
