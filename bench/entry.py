"""Run one `sumsetvc` CLI call in this fresh process and stamp its phases.

Usage: python3 bench/entry.py STAMP TRACE ARGS...

ARGS go to `sumsetvc.cli.run` exactly as the console script passes them, and
the report goes to standard output as usual. STAMP receives a JSON object
with the monotonic clock at `ready` (the CLI is imported and about to run)
and at `end` (the call returned), the module file that was imported, and
the digest of every instance result the scan recorded (see `watch_results`).
TRACE is "-" for an untraced call; otherwise it is a path prefix, the layer
wrappers of tracer.py are installed before the call and their spans are
written to TRACE.spans and TRACE.json after it.
"""

import hashlib
import json
import sys
import time
from array import array


def watch_results():
    """Keep the (lhs, rhs) of every instance a scan records, in scan order.

    The report keeps only the first tightest instance, so a kernel that gets
    a later instance wrong without breaking the inequality leaves the report
    unchanged. Every scan's results pass through `_ScanState.record`, so the
    stream seen there covers each instance. It is kept in every scan process,
    traced or not, so its small cost is part of every timing alike.
    """
    from sumsetvc import verify

    results = array("q")
    record = verify._ScanState.record

    def recording(state, instance, lhs, rhs):
        results.append(lhs)
        results.append(rhs)
        return record(state, instance, lhs, rhs)

    verify._ScanState.record = recording
    return results


def main() -> int:
    stamp_path, trace_prefix, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from sumsetvc import cli

    results = watch_results()
    recorder = None
    if trace_prefix != "-":
        import tracer

        recorder = tracer.install()
    ready = time.monotonic()
    code = cli.run(argv)
    sys.stdout.flush()
    end = time.monotonic()
    if recorder is not None:
        recorder.dump(trace_prefix)
    stamp = {
        "ready": ready,
        "end": end,
        "module": cli.__file__,
        "recorded": len(results) // 2,
        "recorded_sha256": hashlib.sha256(results.tobytes()).hexdigest(),
    }
    with open(stamp_path, "w") as fh:
        json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
