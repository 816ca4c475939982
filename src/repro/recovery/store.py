"""A simulated stable store for server checkpoints.

The paper's servers are memoryless across a crash: a restarted server has
no principled error bound and must be operator-set (the rejoin path).  The
recovery subsystem gives each server a *checkpoint* — the MM-1 state
``<C, E, rate estimate, epoch>`` — written periodically to a simulated
stable store.  On restart the interval is rebuilt from the checkpoint by
inflating the recorded ``E`` by ``ρ·downtime`` (with ``ρ`` the larger of
the claimed δ and the measured own-rate estimate), which preserves
Theorem 1 correctness through the outage: the clock drifted at most
``ρ`` per local second while the server was down, so the inflated
interval still contains true time.

Real disks fail in undignified ways, so the store models the two classic
hazards checkpointing code must survive:

* **corruption** — bits rot in place; :meth:`StableStore.corrupt` garbles
  a stored payload;
* **torn writes** — the machine dies mid-write; :meth:`StableStore.tear`
  arms the next write to persist only a prefix of the record.

Both are caught the same way: every slot carries a CRC over the full
canonical payload, and :meth:`StableStore.read` returns None on any
mismatch, forcing the restarting server into the cold-start bootstrap
(operator-set error) instead of silently trusting garbage.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Checkpoint:
    """One durable snapshot of a server's synchronization state.

    Attributes:
        server: The checkpointing server's name.
        clock_value: ``C_i`` at the instant of the write.
        error: ``E_i`` at the instant of the write (the *effective* rule
            MM-1 error, not the inherited ε — restart re-bases ``r_i``).
        rate_estimate: The server's best own-skew estimate at write time
            (0.0 when unknown); restart inflates by
            ``max(δ, |rate_estimate|)`` per local second of downtime so a
            clock known to run outside its claimed bound is still covered.
        epoch: The server's consistency-group epoch (see
            :mod:`repro.recovery.stabilizer`).
        sequence: Monotone per-server write counter — a restart can tell
            which of two surviving checkpoints is newer.
        reputation: The Byzantine reputation tracker's serialised state
            (see :meth:`~repro.byzantine.reputation.ReputationTracker.
            encode`); empty for servers without one.  Carried so a warm
            restart does not re-trust a known liar.
        fault_budget: The adaptive fault budget at write time (0 when the
            server runs no budget controller).
        discipline: The clock-discipline servo's serialised state (rate
            correction plus the per-neighbour rate-estimator windows; see
            :meth:`~repro.service.discipline.DisciplineStage.
            checkpoint_fields`); empty for servers without one.  Carried
            so a warm restart resumes holdover-quality timekeeping
            instead of relearning the oscillator from scratch.
    """

    server: str
    clock_value: float
    error: float
    rate_estimate: float
    epoch: int
    sequence: int
    reputation: str = ""
    fault_budget: int = 0
    discipline: str = ""

    def encode(self) -> str:
        """Canonical payload the checksum is computed over."""
        return "|".join(
            [
                self.server,
                repr(self.clock_value),
                repr(self.error),
                repr(self.rate_estimate),
                repr(self.epoch),
                repr(self.sequence),
                self.reputation,
                repr(self.fault_budget),
                self.discipline,
            ]
        )

    @classmethod
    def decode(cls, payload: str) -> "Checkpoint":
        """Inverse of :meth:`encode`.

        Raises:
            ValueError: If the payload does not parse (a torn or corrupted
                record that happens to still checksum is caught here).

        Accepts both the current 9-field layout and the legacy 8-field one
        (pre-discipline checkpoints survive an upgrade as warm restarts).
        """
        parts = payload.split("|")
        if len(parts) not in (8, 9):
            raise ValueError(f"malformed checkpoint payload: {payload!r}")
        return cls(
            server=parts[0],
            clock_value=float(parts[1]),
            error=float(parts[2]),
            rate_estimate=float(parts[3]),
            epoch=int(parts[4]),
            sequence=int(parts[5]),
            reputation=parts[6],
            fault_budget=int(parts[7]),
            discipline=parts[8] if len(parts) == 9 else "",
        )


@dataclass
class StoreStats:
    """What the store observed (per whole store, for tests and reports)."""

    writes: int = 0
    torn_writes: int = 0
    reads: int = 0
    read_hits: int = 0
    read_misses: int = 0  # no slot for the server
    checksum_failures: int = 0
    decode_failures: int = 0


@dataclass
class _Slot:
    """One server's stored record: payload plus its checksum at write time."""

    payload: str
    crc: int


class StableStore:
    """An in-memory simulated stable store, one checkpoint slot per server.

    A single store instance is shared by every server of a service (the
    builder creates one), modelling per-server local disks with a common
    failure model; slots are independent, so corrupting one server's
    checkpoint never touches another's.
    """

    def __init__(self) -> None:
        self._slots: Dict[str, _Slot] = {}
        self._torn: Dict[str, bool] = {}
        self.stats = StoreStats()

    # -------------------------------------------------------------- writing

    def write(self, checkpoint: Checkpoint) -> None:
        """Persist a checkpoint, honouring an armed torn write.

        A torn write stores only a prefix of the payload while the CRC was
        computed over the full record — exactly the inconsistency a crash
        mid-write leaves on disk, and what the read-side checksum exists
        to catch.
        """
        payload = checkpoint.encode()
        crc = zlib.crc32(payload.encode("utf-8"))
        self.stats.writes += 1
        if self._torn.pop(checkpoint.server, False):
            self.stats.torn_writes += 1
            payload = payload[: max(1, len(payload) // 2)]
        self._slots[checkpoint.server] = _Slot(payload=payload, crc=crc)

    # -------------------------------------------------------------- reading

    def read(self, server: str) -> Optional[Checkpoint]:
        """The server's last durable checkpoint, or None.

        None means *no usable checkpoint*: nothing was ever written, the
        record fails its checksum (torn write or corruption), or it
        checksums but does not parse.  Callers must treat None as "cold
        start required".
        """
        self.stats.reads += 1
        slot = self._slots.get(server)
        if slot is None:
            self.stats.read_misses += 1
            return None
        if zlib.crc32(slot.payload.encode("utf-8")) != slot.crc:
            self.stats.checksum_failures += 1
            return None
        try:
            checkpoint = Checkpoint.decode(slot.payload)
        except ValueError:
            self.stats.decode_failures += 1
            return None
        self.stats.read_hits += 1
        return checkpoint

    def has_slot(self, server: str) -> bool:
        """Whether anything (valid or not) is stored for ``server``."""
        return server in self._slots

    # ------------------------------------------------------------ sabotage

    def corrupt(self, server: str) -> bool:
        """Garble the stored payload in place (bit rot).

        Returns True if there was a slot to corrupt.  The CRC is left at
        its write-time value, so the next read fails its checksum.
        """
        slot = self._slots.get(server)
        if slot is None:
            return False
        flipped = chr(ord(slot.payload[0]) ^ 0x20) + slot.payload[1:]
        slot.payload = flipped
        return True

    def tear(self, server: str) -> None:
        """Arm the *next* write for ``server`` to be torn (crash mid-write)."""
        self._torn[server] = True

    def wipe(self, server: str) -> None:
        """Discard the server's slot entirely (disk replaced)."""
        self._slots.pop(server, None)
        self._torn.pop(server, None)
