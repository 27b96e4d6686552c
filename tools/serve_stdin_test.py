#!/usr/bin/env python3
"""ga-serve answers stdin line by line.

    serve_stdin_test.py GA_SERVE SCENARIO

Starts ga-serve on a pipe with no --socket, writes one request, waits at
most 10 s for its response line, and only then writes the next. A daemon
that buffered stdin until more bytes or EOF arrived would never answer the
first request. Exits 0 when every request is answered in turn.
"""

import json
import os
import selectors
import subprocess
import sys
import time

TIMEOUT_S = 10.0
REQUESTS = [
    {"id": 1, "type": "stats"},
    {"id": 2, "type": "create_account", "user": "alice", "budget": 1000},
    {"id": 3, "type": "balance", "user": "alice"},
    {"id": 4, "type": "shutdown"},
]


def read_line(proc, selector, pending):
    """The next stdout line, or None when none arrives within TIMEOUT_S."""
    deadline = time.monotonic() + TIMEOUT_S
    while b"\n" not in pending:
        left = deadline - time.monotonic()
        if left <= 0 or not selector.select(left):
            return None, pending
        chunk = os.read(proc.stdout.fileno(), 1 << 16)
        if not chunk:
            return None, pending
        pending += chunk
    line, _, rest = pending.partition(b"\n")
    return line, rest


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    proc = subprocess.Popen([argv[1], argv[2]], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    pending = b""
    try:
        for request in REQUESTS:
            proc.stdin.write((json.dumps(request) + "\n").encode())
            proc.stdin.flush()
            line, pending = read_line(proc, selector, pending)
            if line is None:
                print("no response to request %d within %.0f s" %
                      (request["id"], TIMEOUT_S), file=sys.stderr)
                return 1
            response = json.loads(line)
            if response.get("id") != request["id"] or not response.get("ok"):
                print("bad response to request %d: %r" % (request["id"], line),
                      file=sys.stderr)
                return 1
        proc.stdin.close()
        if proc.wait(timeout=TIMEOUT_S) != 0:
            print("ga-serve exited with %d" % proc.returncode, file=sys.stderr)
            return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print("ga-serve answered %d requests line by line" % len(REQUESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
