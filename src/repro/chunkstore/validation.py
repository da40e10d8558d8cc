"""The two validation disciplines (§4.8.2).

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

from typing import Tuple

from repro import obs
from repro.chunkstore.log import CommitRecord
from repro.crypto.hashing import HashFunction
from repro.crypto.mac import Mac
from repro.errors import TamperDetectedError
from repro.platform.tamper_resistant import (
    TamperResistantCounter,
    TamperResistantStore,
)
from repro.util.codec import Decoder, Encoder


class DirectValidation:
    """Maintains the residual-log chain hash in the TR store."""

    mode = "direct"

    def __init__(
        self, tr_store: TamperResistantStore, system_hash: HashFunction
    ) -> None:
        self._tr = tr_store
        self._hash = system_hash
        self.chain: bytes = system_hash.hash(b"")

    def reset_chain(self) -> None:
        """A checkpoint restarts the residual log (before noting the leader)."""
        self.chain = self._hash.hash(b"")

    def note_version(self, version_bytes: bytes) -> None:
        self.note_parts(version_bytes)

    def note_parts(self, *parts: bytes) -> None:
        """Chain one version given as separate spans (header ct, body ct)
        — the zero-copy recovery path feeds ``memoryview`` slices of a
        whole-segment read without joining them first."""
        hasher = self._hash.new()
        hasher.update(self.chain)
        for part in parts:
            hasher.update(part)
        self.chain = hasher.digest()

    def commit_point(self, tail_location: int, leader_location: int) -> None:
        """The real commit point: atomically publish chain + tail + leader."""
        enc = Encoder()
        enc.bytes(self.chain)
        enc.uint(tail_location)
        enc.uint(leader_location)
        with obs.span("platform.tr.write"):
            self._tr.write(enc.finish())

    def read_tr(self) -> Tuple[bytes, int, int]:
        """Recovery: the authoritative (chain, tail, leader) triple."""
        data = self._tr.read()
        if not data:
            raise TamperDetectedError(
                "tamper-resistant store is empty; store was never formatted"
            )
        dec = Decoder(data)
        chain = dec.bytes()
        tail = dec.uint()
        leader = dec.uint()
        dec.expect_exhausted()
        return chain, tail, leader


class CounterValidation:
    """Signed commit chunks sequenced by a tamper-resistant counter."""

    mode = "counter"

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

    def begin_commit(self) -> None:
        self._set_hasher = self._hash.new()

    def note_version(self, version_bytes: bytes) -> None:
        self._set_hasher.update(version_bytes)

    def note_parts(self, *parts: bytes) -> None:
        """Span-wise :meth:`note_version` (zero-copy recovery path)."""
        for part in parts:
            self._set_hasher.update(part)

    def current_set_hash(self) -> bytes:
        """Digest of the versions noted since :meth:`begin_commit`."""
        return self._set_hasher.digest()

    def build_commit_record(self) -> CommitRecord:
        set_hash = self._set_hasher.digest()
        record = CommitRecord(self.next_count, set_hash, b"")
        if not self.mac_optional:
            record.mac_tag = self._mac.sign(record.signed_message())
        return record

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

    def committed(self) -> None:
        """Bookkeeping after the commit chunk was appended."""
        self.next_count += 1

    def note_flushed(self) -> None:
        """The untrusted store was flushed: every appended commit chunk is
        now durable."""
        self.flushed_count = self.next_count - 1

    def tr_lag(self) -> int:
        return (self.next_count - 1) - self._counter.read()

    def needs_tr_update(self) -> bool:
        return self.tr_lag() >= self.delta_ut

    def tr_update_target(self) -> int:
        """How far the counter may advance without violating Δtu."""
        return min(self.next_count - 1, self.flushed_count + self.delta_tu)

    def advance_tr(self, target: int) -> None:
        with obs.span("platform.tr.write"):
            self._counter.advance_to(target)

    # -- recovery ----------------------------------------------------------------

    def check_final_count(self, last_log_count: int) -> None:
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
