"""The capture codec of the served path (:mod:`repro.shard.codec`).

The package keeps its historical name only so that code naming the
codec by module path (``repro.shard.codec:capture_engine`` and friends)
keeps resolving; it imports nothing on its own.
"""
