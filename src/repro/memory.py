"""Process-memory introspection helpers (no external dependencies).

Current and peak RSS are read from ``/proc/self/status`` where available
(Linux: ``VmRSS`` / ``VmHWM``); elsewhere the peak falls back to
``resource.getrusage`` (kilobytes on Linux, bytes on macOS — normalized
to bytes here).  Both return 0 on platforms exposing neither, so callers
can always record the numbers unconditionally.
"""

from __future__ import annotations

import sys

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

__all__ = ["current_rss_bytes", "peak_rss_bytes"]


def _proc_status_bytes(field: str) -> int | None:
    """One ``kB`` field of ``/proc/self/status`` in bytes (``None`` if absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(field):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def current_rss_bytes() -> int:
    """Resident set size of this process right now, in bytes (0 if unknown)."""
    rss = _proc_status_bytes("VmRSS:")
    # Fallback better than nothing: RSS never exceeds the peak.
    return rss if rss is not None else peak_rss_bytes()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    Monotone over the process lifetime — comparisons that need a
    per-workload peak must run each workload in its own process (see
    ``repro.bench.memchild``).

    ``VmHWM`` first: it belongs to this process image, while Linux carries
    ``ru_maxrss`` across ``exec``, so a child spawned from a large parent
    would otherwise report the *parent's* peak as its own floor.
    """
    peak = _proc_status_bytes("VmHWM:")
    if peak is not None:
        return peak
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024
