"""The two validation disciplines (§4.8.2), behind one interface.

Both answer the same questions for the log writer
(:mod:`repro.chunkstore.writepath`) and for recovery, and this module is
the only one that knows which discipline is in force:

* ``begin_set()`` / ``note(*parts, in_set=True)`` — a commit set opens;
  each appended version is chained or hashed;
* ``closing_record()`` — the signed commit chunk that seals the set, or
  ``None`` when the discipline writes none;
* ``restart_residual()`` — a checkpoint restarts the residual log;
* ``allows_lazy_flush`` / ``flushed()`` / ``publish(tail, leader, flush,
  force)`` — when the device flush may be skipped, and when and how far
  the tamper-resistant store moves;
* ``recovery_origin(superblock_leader)`` / ``recorded_tail`` /
  ``seals_sets`` / ``finish_recovery(last_count)`` — where roll-forward
  starts, where it must stop, whether the log delimits its own sets (so
  effects wait for their commit chunk and an unusable suffix is a torn
  commit, not tampering), and the final comparison with the
  tamper-resistant store.

**Direct hash validation** (§4.8.2.1).  The tamper-resistant store holds a
chained hash of the residual log, updated after *every* commit, together
with the log tail location and the leader location.  The chain is defined
per version: ``chain₀ = H(ε)``, then ``chainᵢ = H(chainᵢ₋₁ ‖ versionᵢ)``
for every version appended since the leader (the leader itself is
version 1).  The TR write is the real commit point: a crash before it
leaves the previous TR value, and recovery ignores everything beyond the
recorded tail.

**Counter-based validation** (§4.8.2.2).  Each commit set is followed by a
*commit chunk* carrying a monotonically increasing commit count and the
hash of the commit set, signed with a symmetric-key MAC.  The TR device is
only a monotonic counter, updated lazily: the counter may lag the log by
up to Δut commits (one TR write per Δut commits) and, if the untrusted
store is flushed lazily, lead it by up to Δtu.  The security cost is
precisely that an attacker may delete up to Δut commit sets from the log
tail (or, with Δtu > 0, benefit from the tolerated lead) — a measured
trade of security for TR-write latency.

Commit-set hashes exclude NEXT_SEGMENT versions.  Rationale: a checkpoint
is recovered from two different starting points (the new leader when the
superblock write completed; the previous leader when it did not), and the
segment-jump version sits between the two paths.  Jumps only affect where
data is *read from*; the data itself is authenticated by the count-
sequenced MACs, so excluding jumps sacrifices nothing.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro import obs
from repro.chunkstore.config import StoreConfig
from repro.chunkstore.log import CommitRecord
from repro.crypto.hashing import HashFunction
from repro.crypto.mac import Mac
from repro.errors import TamperDetectedError
from repro.platform.tamper_resistant import (
    TamperResistantCounter,
    TamperResistantStore,
)
from repro.platform.trusted_platform import TrustedPlatform
from repro.util.codec import Decoder, Encoder


#: how ``publish`` asks for the device flush it may find it needs
Flush = Callable[[], None]


class DirectValidation:
    """Maintains the residual-log chain hash in the TR store."""

    mode = "direct"
    #: the TR write is the commit point, so the log must be durable first
    allows_lazy_flush = False
    #: no commit chunks (one in the log is tampering): effects apply per
    #: version, and the TR store records the tail, so failing to read up
    #: to it is tampering too — there is no such thing as a torn tail
    seals_sets = False

    def __init__(
        self, tr_store: TamperResistantStore, system_hash: HashFunction
    ) -> None:
        self._tr = tr_store
        self._hash = system_hash
        self.chain: bytes = system_hash.hash(b"")
        #: recovery: where the TR store says the residual log ends, and
        #: the chain it must hash to
        self.recorded_tail: Optional[int] = None
        self._recorded_chain = b""

    # -- runtime commit path ---------------------------------------------------

    def begin_set(self) -> None:
        """Sets are delimited by TR writes, not in the log: nothing to open."""

    def note(self, *parts: bytes, in_set: bool = True) -> None:
        """Chain one version, given whole or as separate spans (header ct,
        body ct — the zero-copy recovery path feeds ``memoryview`` slices
        of a whole-segment read without joining them first).  The chain
        covers every version in the residual log, segment jumps included
        (``in_set`` is the counter discipline's distinction)."""
        hasher = self._hash.new()
        hasher.update(self.chain)
        for part in parts:
            hasher.update(part)
        self.chain = hasher.digest()

    def closing_record(self) -> None:
        return None

    def restart_residual(self) -> int:
        """A checkpoint restarts the residual log (before noting the
        leader); returns the leader's ``checkpoint_count`` (unused here)."""
        self.chain = self._hash.hash(b"")
        return 0

    def flushed(self) -> None:
        """Nothing waits on durability: every commit flushes."""

    def publish(self, tail: int, leader: int, flush: Flush, force: bool = False) -> bool:
        """The real commit point: atomically publish chain + tail + leader
        (the log was flushed already; see ``allows_lazy_flush``)."""
        enc = Encoder()
        enc.bytes(self.chain)
        enc.uint(tail)
        enc.uint(leader)
        with obs.span("platform.tr.write"):
            self._tr.write(enc.finish())
        return True

    # -- recovery ----------------------------------------------------------------

    def recovery_origin(self, superblock_leader: int) -> int:
        """The leader location to roll forward from: the TR store's, with
        the authoritative tail and chain remembered for the checks below
        (the superblock's hint is ignored)."""
        data = self._tr.read()
        if not data:
            raise TamperDetectedError(
                "tamper-resistant store is empty; store was never formatted"
            )
        dec = Decoder(data)
        self._recorded_chain = dec.bytes()
        self.recorded_tail = dec.uint()
        leader = dec.uint()
        dec.expect_exhausted()
        return leader

    def finish_recovery(self, last_log_count: int) -> None:
        if self.chain != self._recorded_chain:
            raise TamperDetectedError(
                "residual log hash does not match the tamper-resistant store"
            )


class CounterValidation:
    """Signed commit chunks sequenced by a tamper-resistant counter."""

    mode = "counter"
    #: the counter trails the log, so a commit need not wait for the device
    allows_lazy_flush = True
    #: a signed commit chunk closes each set: effects wait for it, and the
    #: log says where it ends — an unverifiable suffix is a torn commit
    seals_sets = True
    #: no tail is recorded outside the log
    recorded_tail: Optional[int] = None

    def __init__(
        self,
        counter: TamperResistantCounter,
        system_hash: HashFunction,
        mac: Mac,
        delta_ut: int,
        delta_tu: int,
        mac_optional: bool = False,
    ) -> None:
        self._counter = counter
        self._hash = system_hash
        self._mac = mac
        self.delta_ut = delta_ut
        self.delta_tu = delta_tu
        #: True when the system cipher authenticates (AEAD): commit
        #: chunks then arrive transport-authenticated — header bound as
        #: associated data, body unforgeable without the system key — so
        #: the explicit HMAC pass is skipped (empty tag).  MAC'd records
        #: written before a config change still verify (see
        #: :meth:`verify_commit_record`).
        self.mac_optional = mac_optional
        #: count the next commit chunk will carry
        self.next_count = 1
        #: count of the last commit chunk known durable in the untrusted store
        self.flushed_count = 0
        self._set_hasher = system_hash.new()

    # -- runtime commit path ---------------------------------------------------

    def begin_set(self) -> None:
        self._set_hasher = self._hash.new()

    def note(self, *parts: bytes, in_set: bool = True) -> None:
        """Hash one version (whole, or span-wise on the zero-copy recovery
        path) into the open set — unless it is out of set: NEXT_SEGMENT
        and COMMIT versions (see the module docstring)."""
        if in_set:
            for part in parts:
                self._set_hasher.update(part)

    def current_set_hash(self) -> bytes:
        """Digest of the versions noted since :meth:`begin_set`."""
        return self._set_hasher.digest()

    def build_commit_record(self) -> CommitRecord:
        set_hash = self._set_hasher.digest()
        record = CommitRecord(self.next_count, set_hash, b"")
        if not self.mac_optional:
            record.mac_tag = self._mac.sign(record.signed_message())
        return record

    def closing_record(self) -> CommitRecord:
        """The commit chunk sealing the open set; the caller appends it
        right away, so the count moves on (before the flush that makes it
        durable)."""
        record = self.build_commit_record()
        self.next_count += 1
        return record

    def restart_residual(self) -> int:
        """A checkpoint restarts the residual log; returns the count its
        first commit chunk will carry (the leader's ``checkpoint_count``)."""
        self.begin_set()
        return self.next_count

    def verify_commit_record(self, record: CommitRecord, set_hash: bytes) -> bool:
        """Recovery: check MAC and set hash of one commit chunk.

        An empty MAC tag is accepted only under ``mac_optional`` — i.e.
        when the commit chunk could not have been forged in the first
        place because decrypting it already verified an AEAD tag over
        header and body.  A present tag is always verified, so logs
        written with MACs stay valid after a system-cipher upgrade."""
        if record.set_hash != set_hash:
            return False
        if not record.mac_tag:
            return self.mac_optional
        return self._mac.verify(record.signed_message(), record.mac_tag)

    def flushed(self) -> None:
        """The untrusted store was flushed: every appended commit chunk is
        now durable."""
        self.flushed_count = self.next_count - 1

    def publish(self, tail: int, leader: int, flush: Flush, force: bool = False) -> bool:
        """Advance the counter to the last appended count once it lags by
        Δut commits (or ``force``: a checkpoint); returns whether it did.
        Δtu forbids the counter from leading the durable log, so a lazily
        flushed log is flushed first (``flush`` must end in
        :meth:`flushed`) and the counter catches up fully."""
        last = self.next_count - 1
        if not force and last - self._counter.read() < self.delta_ut:
            return False
        if self.flushed_count + self.delta_tu < last:
            flush()
        with obs.span("platform.tr.write"):
            self._counter.advance_to(min(last, self.flushed_count + self.delta_tu))
        return True

    # -- recovery ----------------------------------------------------------------

    def recovery_origin(self, superblock_leader: int) -> int:
        """The (untrusted) superblock names the leader; recovery checks
        that the chunk there really is one (§4.9.2)."""
        return superblock_leader

    def finish_recovery(self, last_log_count: int) -> None:
        """Compare the log's last count with the TR counter (§4.8.2.2)."""
        tr_count = self._counter.read()
        if tr_count - last_log_count > self.delta_tu:
            raise TamperDetectedError(
                f"commit sets deleted from log tail: log count {last_log_count}, "
                f"tamper-resistant counter {tr_count}, allowed lead Δtu="
                f"{self.delta_tu}"
            )
        # Upper bound: the log should not lead the counter by more than
        # Δut — plus 2, because a checkpoint appends two commit chunks
        # (map phase + leader phase) before its single TR advance, and a
        # crash inside that window is legitimate.  This check is a
        # consistency guard, not a security property: an attacker cannot
        # forge the MAC'd commit chunks that make the log "ahead".
        if last_log_count - tr_count > self.delta_ut + 2:
            raise TamperDetectedError(
                f"log is ahead of the tamper-resistant counter beyond Δut: "
                f"log count {last_log_count}, counter {tr_count}"
            )
        # Close the window: future replays of this state must now fail.
        if last_log_count > tr_count:
            self._counter.advance_to(last_log_count)
        self.next_count = last_log_count + 1
        self.flushed_count = last_log_count
        self.begin_set()


Validator = Union[DirectValidation, CounterValidation]


def make_validator(
    config: StoreConfig,
    platform: TrustedPlatform,
    system_hash: HashFunction,
    mac: Mac,
    mac_optional: bool,
) -> Validator:
    """The discipline ``config.validation_mode`` names, over the platform's
    matching tamper-resistant device."""
    if config.validation_mode == "direct":
        return DirectValidation(platform.tamper_resistant, system_hash)
    return CounterValidation(
        platform.counter,
        system_hash,
        mac,
        config.delta_ut,
        config.delta_tu,
        mac_optional,
    )
