"""Reading the log in the order it was written (§4.8, §4.9.5).

Recovery's roll-forward and the cleaner's scan of a victim segment visit
versions by *location*, one after the other, not by descriptor — nothing
vouches for a version here until the caller has checked it (against the
commit chain, or against the map).  :class:`VersionReader` is the one
implementation of "read the version at this location": a segment's bytes
arrive in one round trip on first touch, every header and body is held to
the segment it starts in, and a segment whose span read faulted is read
version by version so retries land on the precise extent.  Recovery and
the cleaner differ only in what they do with a version.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.chunkstore.log import LogCodec, VersionHeader
from repro.chunkstore.segments import SegmentManager
from repro.errors import IOFaultError, TamperDetectedError
from repro.platform.retry import RetriedReader


class VersionReader:
    """Reads versions by location for one scan of the log.

    Build one per scan: a segment's span is fetched once and never
    refreshed, so a reader must not outlive appends to what it has read."""

    def __init__(
        self, codec: LogCodec, reader: RetriedReader, segman: SegmentManager
    ) -> None:
        self.codec = codec
        self.reader = reader
        self.segman = segman
        #: segment index -> its whole span, as a ``memoryview`` so header
        #: and body slices are views into the one buffer; ``None`` marks a
        #: span whose read faulted
        self._spans: Dict[int, Optional[memoryview]] = {}

    def read(self, location: int) -> Tuple[VersionHeader, bytes, bytes]:
        """The version at ``location``: ``(header, header_ct, body_ct)``.

        Raises :class:`TamperDetectedError` if the bytes do not parse as a
        version lying inside its segment — a version never crosses a
        segment boundary, so a header that says otherwise was not written
        by this store."""
        segman = self.segman
        header_size = self.codec.header_cipher_size
        segment = segman.segment_of(location)
        start = segman.segment_start(segment)
        end = start + segman.segment_size
        if location + header_size > end:
            raise TamperDetectedError("version header crosses a segment boundary")
        if segment not in self._spans:
            try:
                (blob,) = self.reader.read_many([(start, segman.segment_size)])
                self._spans[segment] = memoryview(blob)
            except IOFaultError:
                self._spans[segment] = None
        span = self._spans[segment]
        offset = location - start
        if span is None:  # per-version device reads, for this segment only
            header_ct = self.reader.read(location, header_size)
        else:
            header_ct = span[offset : offset + header_size]
        header = self.codec.parse_header(header_ct)
        body_size = header.body_cipher_size
        if location + header_size + body_size > end:
            raise TamperDetectedError("version body crosses a segment boundary")
        if span is None:
            body_ct = self.reader.read(location + header_size, body_size)
        else:
            body_ct = span[offset + header_size : offset + header_size + body_size]
        return header, header_ct, body_ct
