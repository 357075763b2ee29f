"""One timed ``kmink`` invocation, run as a fresh child process.

    python3 child.py REPORT_PATH [KMINK_ARGS...]

Imports ``kmink.cli`` (found through ``PYTHONPATH``), reads the monotonic
clock as soon as the import is done, runs ``kmink.cli.main(KMINK_ARGS)``
and writes ``{"ready": <clock>, "exit": <code>}`` to REPORT_PATH.  The
parent reads the same system-wide clock just before it spawns this process,
so ``ready`` minus that reading is the invocation's set-up time.  With no
KMINK_ARGS the process only imports: a set-up probe.

Nothing is imported ahead of ``kmink.cli`` beyond ``sys`` and ``time``, so
the set-up time is the interpreter's start plus the package import.
"""

import sys
import time

import kmink.cli

ready = time.monotonic()
code = kmink.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.write('{"ready": %r, "exit": %d}' % (ready, code))
sys.exit(code)
