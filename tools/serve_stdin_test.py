#!/usr/bin/env python3
"""ga-serve answers stdin line by line, and answers a last unterminated line.

    serve_stdin_test.py GA_SERVE SCENARIO

Starts ga-serve on a pipe with no --socket, writes one request, waits at
most 10 s for its response line, and only then writes the next. A daemon
that buffered stdin until more bytes or EOF arrived would never answer the
first request.

Then pipes one request without a closing newline and closes stdin, once
without --socket and (where AF_UNIX sockets exist) once with it: each loop
must answer that request before it exits at end of input.

Exits 0 when every request is answered.
"""

import json
import os
import selectors
import socket
import subprocess
import sys
import tempfile
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


def answers_unterminated(argv, extra_args):
    """Whether ga-serve answers a request that ends the input unterminated."""
    request = {"id": 1, "type": "stats"}
    try:
        out = subprocess.run([argv[1], argv[2]] + extra_args,
                             input=json.dumps(request).encode(),
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=TIMEOUT_S, check=True).stdout
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print("unterminated request %s: %s" % (extra_args, error),
              file=sys.stderr)
        return False
    lines = out.splitlines()
    if len(lines) != 1 or json.loads(lines[0]).get("id") != request["id"]:
        print("unterminated request %s: got %r" % (extra_args, out),
              file=sys.stderr)
        return False
    return True


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    variants = [[]]
    with tempfile.TemporaryDirectory(prefix="ga_serve_stdin_") as scratch:
        if hasattr(socket, "AF_UNIX"):
            variants.append(["--socket", os.path.join(scratch, "s.sock")])
        for extra_args in variants:
            if not answers_unterminated(argv, extra_args):
                return 1
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
    print("ga-serve answered %d requests line by line and an unterminated "
          "last request %s" % (len(REQUESTS),
                               "with and without --socket"
                               if len(variants) == 2 else "on stdin"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
