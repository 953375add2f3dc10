"""Digest goldens pinning the catalogue and cluster sweep outputs.

The fast-forward sweeps in :mod:`tests.test_fastforward_equiv` compare
each engine-driven catalogue entry (``SWEEP``) and each cluster shape
(``CLUSTER_SWEEP``) against itself with a switch flipped. That proves
the switch is inert, but not that the outputs are the ones an earlier
commit produced. ``tests/golden/catalogue_digests.json`` adds that
oracle: the sha256 of ``repr(output)`` for every ``SWEEP`` entry and of
``repr(_cluster_fingerprint(report))`` for every ``CLUSTER_SWEEP``
entry. The sweep tests assert the digest of the result they already
compute, so the check costs no extra run. For the ``TRACE_PINS``
cluster shapes it also pins the sha256 of the whole span-telemetry
JSONL trace, so the telemetry-on execution order is pinned as well.

The golden was captured by running this module standalone::

    PYTHONPATH=src:tests python tests/catalogue_golden.py

Outputs hold only builtins, dataclasses and float reprs, so the digests
do not depend on ``PYTHONHASHSEED``. Regenerate the golden only for a
deliberate, understood behaviour change.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict

from repro.metrics.telemetry import TelemetryRegistry, enabled

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "catalogue_digests.json"
)


def digest(value: Any) -> str:
    """sha256 of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: Cluster shapes whose span-telemetry trace is pinned: a static fleet
#: under a state-aware router and an elastic fleet.
TRACE_PINS = ("router:cache_aware", "autoscale:queue_depth")


def trace_digest(run: Callable[[], Any]) -> str:
    """sha256 of the JSONL trace ``run()`` records with spans on (the
    text :meth:`TelemetryRegistry.write_jsonl` would write)."""
    with enabled(TelemetryRegistry(record_spans=True)) as registry:
        run()
    text = "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in registry.trace_records()
    )
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def capture() -> Dict[str, Dict[str, str]]:
    """Run every sweep entry once and digest its output."""
    # Imported here: the test module imports this one for ``digest``.
    from test_fastforward_equiv import (
        CLUSTER_SWEEP,
        SWEEP,
        _cluster_fingerprint,
    )

    return {
        "catalogue": {name: digest(run()) for name, run in SWEEP.items()},
        "cluster": {
            name: digest(_cluster_fingerprint(run()))
            for name, run in CLUSTER_SWEEP.items()
        },
        "telemetry": {
            name: trace_digest(CLUSTER_SWEEP[name]) for name in TRACE_PINS
        },
    }


def main() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    payload = capture()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    combined = digest(sorted(
        (section, name, value)
        for section, entries in payload.items()
        for name, value in entries.items()
    ))
    print(f"wrote {GOLDEN_PATH}: {len(payload['catalogue'])} catalogue, "
          f"{len(payload['cluster'])} cluster and "
          f"{len(payload['telemetry'])} trace digests, combined "
          f"{combined[:16]}")


if __name__ == "__main__":
    main()
