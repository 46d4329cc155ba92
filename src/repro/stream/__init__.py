"""Streaming continuous authentication (see DESIGN.md §4j).

Stateful, chunk-size-invariant twins of the batch DSP primitives plus
the :class:`StreamSession` state machine that turns a live IMU feed
into exactly-once authentication decisions.  Every primitive here is
*bitwise* equivalent to its batch counterpart for any partition of the
input into chunks — the property ``tests/test_stream_equivalence.py``
enforces.
"""

from repro.stream.dsp import StreamingOnsetDetector, StreamingSOSFilter
from repro.stream.session import SessionDecision, SessionState, StreamSession

__all__ = [
    "SessionDecision",
    "SessionState",
    "StreamSession",
    "StreamingOnsetDetector",
    "StreamingSOSFilter",
]
