"""Seeded inputs for the workloads, and the report of their properties.

Every input is a pure function of the workload seed and its position in
the run, so a run can regenerate exactly what it sent when it checks
verdicts after the timed region, without keeping the inputs in memory.
"""

from __future__ import annotations

import hashlib
import pathlib
from collections import deque
from dataclasses import dataclass

import numpy as np

#: Contracts per request of the fleet's cache-filling pass.
BATCH = 32

#: Share of stream events whose bytecode is new to the run.
NOVEL_SHARE = 0.2

#: Repeated stream events reuse one of this many most recent novel
#: bytecodes: two cache entries each (decoded ids and prediction) fit
#: well inside ``FeatureCache``'s default 8,192, so a repeat is a hit.
RECENT_NOVEL = 1024


@dataclass(frozen=True)
class Pool:
    """Deployed records of the benchmark corpus (clones included)."""

    codes: list[bytes]
    addresses: list[str]
    kinds: list[str]

    @classmethod
    def load(cls, path: pathlib.Path) -> "Pool":
        with np.load(path) as data:
            blob = data["codes"].tobytes()
            offsets = data["offsets"].tolist()
            addresses = data["addresses"].tolist()
            kinds = data["kinds"].tolist()
        codes = [blob[a:b] for a, b in zip(offsets, offsets[1:])]
        return cls(codes=codes, addresses=addresses, kinds=kinds)

    @property
    def bases(self) -> list[bytes]:
        """Bytecodes of the non-proxy records."""
        return [c for c, k in zip(self.codes, self.kinds) if k == "base"]


def metadata_trailer(seed: int, serial: int | str) -> bytes:
    """A solc-style CBOR metadata trailer unique to ``(seed, serial)``.

    Layout as solc appends it: ``{"ipfs": <34-byte multihash>, "solc":
    <3-byte version>}`` in CBOR, then the CBOR length as two big-endian
    bytes. Separately compiled redeployments of one source differ in
    exactly this hash.
    """
    digest = hashlib.sha256(f"perfbench:{seed}:{serial}".encode()).digest()
    body = (b"\xa2\x64ipfs\x58\x22\x12\x20" + digest
            + b"\x64solc\x43\x00\x08\x13")
    return body + len(body).to_bytes(2, "big")


def _address(seed: int, serial: int, salt: str) -> str:
    digest = hashlib.sha256(f"{salt}:{seed}:{serial}".encode()).digest()
    return "0x" + digest[:20].hex()


class RepeatInputs:
    """Batches of deployed records drawn uniformly from the pool."""

    def __init__(self, pool: Pool, seed: int):
        self.pool = pool
        self._rng = np.random.default_rng([seed, 2])

    def warmup(self, size: int = BATCH):
        """Record indices covering the pool once: the warm-up pass."""
        n = len(self.pool.codes)
        for start in range(0, n, size):
            yield list(range(start, min(start + size, n)))

    def indices(self, size: int = BATCH) -> list[int]:
        return self._rng.integers(0, len(self.pool.codes), size).tolist()


class StreamInputs:
    """Deploy events: ~20% novel bytecodes, the rest recent repeats.

    Every event carries a fresh address (each deployment is a new
    account), so the scanner's address dedup never drops one.
    """

    def __init__(self, pool: Pool, seed: int, stream: int = 0):
        self.bases = pool.bases
        self.seed = seed
        self.stream = stream
        self.sequence = 0
        self._novel = 0
        self._recent: deque[bytes] = deque(maxlen=RECENT_NOVEL)
        self._rng = np.random.default_rng([seed, 3, stream])

    def next(self) -> tuple[str, bytes]:
        draw, pick = self._rng.random(), self._rng.random()
        if not self._recent or draw < NOVEL_SHARE:
            base = self.bases[int(pick * len(self.bases))]
            code = base + metadata_trailer(
                self.seed, f"{self.stream}:{self._novel}")
            self._novel += 1
            self._recent.append(code)
        else:
            code = self._recent[int(pick * len(self._recent))]
        address = _address(self.seed, self.sequence, f"event{self.stream}")
        self.sequence += 1
        return address, code


class Properties:
    """The workload properties a cache or dedup claim must cite."""

    def __init__(self):
        self._seen: set[bytes] = set()
        self.contracts = 0
        self.repeats = 0
        self.total_bytes = 0
        self.flagged = 0

    def add(self, code: bytes, flagged: bool) -> None:
        digest = hashlib.sha256(code).digest()
        self.repeats += digest in self._seen
        self._seen.add(digest)
        self.contracts += 1
        self.total_bytes += len(code)
        self.flagged += bool(flagged)

    def report(self, cache_entries: int) -> dict:
        n = max(self.contracts, 1)
        return {
            "contracts": self.contracts,
            "repeat_share": self.repeats / n,
            "unique_digests": len(self._seen),
            "cache_max_entries": cache_entries,
            "unique_over_cache": len(self._seen) / cache_entries,
            "mean_bytecode_bytes": self.total_bytes / n,
            "flagged_share": self.flagged / n,
        }
