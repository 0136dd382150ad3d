"""Small parent process that starts every program process of a run.

A child's peak resident set as reported by wait4 includes the memory of
the process it was forked from, up to the moment it executes the program.
Forking from this process, which stays at interpreter size, keeps that
inheritance below any program's own peak; forking from the benchmark,
which holds samples and expected outputs, would not.

Reads one JSON request per line on stdin, {"argv", "cwd", "stderr"},
where stderr is a file path.  Runs the request to completion and
forwards the program's stdout as it arrives, in chunks of a 4-byte
big-endian length and that many bytes, ending with a zero length.  Then
answers with one JSON line {"wall", "code", "maxrss_kb"}: seconds from
spawn to exit, the exit code, and ru_maxrss from wait4.  Forwarding
instead of buffering keeps this process small.  Exits at the end of
stdin.
"""

import json
import os
import subprocess
import sys
from time import perf_counter

CHUNK = 1 << 16


def main():
    reply = sys.stdout.buffer
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=subprocess.PIPE,
                                    stderr=err, cwd=req["cwd"])
            with proc.stdout:
                while chunk := proc.stdout.read1(CHUNK):
                    reply.write(len(chunk).to_bytes(4, "big") + chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply.write(bytes(4))
        reply.write(json.dumps({"wall": wall, "code": proc.returncode,
                                "maxrss_kb": usage.ru_maxrss}).encode() + b"\n")
        reply.flush()


if __name__ == "__main__":
    main()
