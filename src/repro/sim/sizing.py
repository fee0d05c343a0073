"""Message size estimation for traffic accounting.

The paper's efficiency arguments are about *bytes on the wire* as much as
message counts: partial writes ship deltas, propagation ships log slices
instead of whole objects.  Since the simulator passes Python objects, we
estimate a wire size per payload with a simple recursive model (close
enough for relative comparisons, which is all the experiments need):

* fixed per-message envelope (headers, ids): 48 bytes;
* int/float/bool/None: 8 bytes;
* str/bytes: length (+2 framing);
* containers: 8 bytes plus the sum of their elements (dicts count keys
  and values);
* dataclasses: their field values.

Sizing walks every payload, so :class:`repro.sim.network.Network` runs it
only on traced runs -- while the trace stores records or has an
observer -- and reports each size in the ``bytes`` field of the
message's ``send`` record.  Byte accounting therefore exists only on
traced runs; build stores with ``trace_enabled=True`` to get it.
"""

from __future__ import annotations

import dataclasses
from typing import Any

ENVELOPE_BYTES = 48


def estimate_size(payload: Any) -> int:
    """Estimated wire size of one payload, in bytes (without envelope)."""
    if payload is None or isinstance(payload, (bool, int, float)):
        return 8
    if isinstance(payload, (str, bytes)):
        return len(payload) + 2
    if isinstance(payload, dict):
        return 8 + sum(estimate_size(k) + estimate_size(v)
                       for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(item) for item in payload)
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return 8 + sum(
            estimate_size(getattr(payload, field.name))
            for field in dataclasses.fields(payload))
    # opaque objects (rare in protocol payloads): flat charge
    return 32


def message_size(payload: Any) -> int:
    """Envelope plus payload."""
    return ENVELOPE_BYTES + estimate_size(payload)
