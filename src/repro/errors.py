"""Exception hierarchy for the TDB reproduction.

The one exception that carries the paper's security semantics is
:class:`TamperDetectedError`: it is raised whenever validation of data read
from the untrusted store fails, i.e. whenever an untrusted program has
modified (or replayed) state that a trusted program later reads.
"""

from __future__ import annotations


class TDBError(Exception):
    """Base class for all errors raised by the TDB reproduction."""


class TamperDetectedError(TDBError):
    """Validation of untrusted data failed.

    Raised on hash mismatches, signature failures, residual-log sequence
    violations, replay detection, or any other evidence that the untrusted
    store no longer reflects the state written by the trusted program.
    """


class CryptoUnavailableError(TDBError):
    """A registered cipher's backend is not present in this build.

    Raised when a partition or store names an AEAD suite
    (``aes-256-gcm`` / ``chacha20-poly1305``) but the ``cryptography``
    AEAD backend is missing or disabled via ``REPRO_NO_CRYPTO_ACCEL``.
    The refusal is deliberate and loud: the legacy suites have bit-exact
    pure-Python fallbacks, the AEAD tier does not, and silently
    downgrading an *authenticating* cipher to a non-authenticating one
    would weaken the validation the caller asked for.
    """


class ChunkStoreError(TDBError):
    """Base class for chunk-store usage errors."""


class ChunkNotAllocatedError(ChunkStoreError):
    """A chunk id was used that is not currently allocated."""


class ChunkNotWrittenError(ChunkStoreError):
    """A chunk id was read before it was ever written (committed)."""


class PartitionError(ChunkStoreError):
    """Base class for partition-level usage errors."""


class PartitionNotFoundError(PartitionError):
    """A partition id was used that is not currently written."""


class StorageFullError(TDBError):
    """The untrusted store has no free segments left (even after cleaning)."""


class CrashError(TDBError):
    """Raised by the crash-injection machinery to simulate a fail-stop crash.

    Test harnesses install a crash point, run an operation, catch
    :class:`CrashError`, then re-open the store to exercise recovery.
    """


class IOFaultError(TDBError):
    """An untrusted-storage operation failed at the I/O level.

    Unlike :class:`TamperDetectedError` this carries no security meaning:
    the bytes were never delivered, so nothing was validated.  Raised by
    the fault-injection machinery (and, for a real deployment, the place
    to translate ``OSError``/network failures into the TDB hierarchy).
    """


class TransientIOError(IOFaultError):
    """A retryable I/O failure (dropped request, transient read error).

    The retry layer re-issues the operation; the error escapes to callers
    only once the retry policy's attempts or deadline are exhausted.
    """


class PermanentIOError(IOFaultError):
    """A non-retryable I/O failure (media damage, e.g. a bad sector).

    Retrying cannot help; the affected extent can only be healed by
    restoring its committed bytes from a backup copy elsewhere."""


class RemoteTimeoutError(TransientIOError):
    """A round trip to the remote untrusted server timed out (§10)."""


class PartialResponseError(TransientIOError):
    """A batched remote read returned fewer extents than requested."""


class QuarantineError(ChunkStoreError):
    """A chunk is quarantined: unreadable after retries were exhausted.

    Degraded mode (not fail-stop): only reads of the quarantined chunk
    raise this; unrelated chunks and partitions stay fully usable, and
    :meth:`ChunkStore.scrub` can later heal the quarantine by re-fetching
    or restoring from backup.
    """

    def __init__(self, chunk: str, cause: str) -> None:
        super().__init__(f"chunk {chunk} is quarantined ({cause})")
        #: string form of the quarantined chunk id
        self.chunk = chunk
        #: what put it there: "io" (unreadable) or "tamper" (validation)
        self.cause = cause


class BackupError(TDBError):
    """Base class for backup-store errors."""


class BackupIntegrityError(BackupError, TamperDetectedError):
    """A backup stream failed signature or checksum validation."""


class BackupOrderingError(BackupError):
    """A restore violated ordering constraints (missing base snapshot,
    incomplete backup set, or out-of-order incremental restore)."""


class ObjectStoreError(TDBError):
    """Base class for object-store usage errors."""


class ObjectNotFoundError(ObjectStoreError):
    """An object id was used that does not name a stored object."""


class TransactionError(ObjectStoreError):
    """Transaction misuse (commit after abort, use outside scope, ...)."""


class DeadlockError(TransactionError):
    """Lock acquisition timed out; the transaction was chosen as the victim
    and must abort (the paper breaks deadlocks with timeouts, §7)."""


class PicklingError(ObjectStoreError):
    """An object could not be pickled or unpickled."""


class IndexError_(TDBError):
    """Collection-store index misuse (named with a trailing underscore to
    avoid shadowing the builtin)."""


class XDBError(TDBError):
    """Base class for errors from the XDB baseline system."""
