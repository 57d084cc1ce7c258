"""Open-loop sender of the ``live-paced`` workload (a separate process).

Usage: sender.py CAPTURE UDP_HOST UDP_PORT TCP_HOST TCP_PORT FIRST_TS SPEED

Loads the capture, connects one TCP connection for DNS (RFC 1035
length framing) and one UDP socket for the flow export datagrams, prints
``ready``, then reads the wall-clock start (``time.monotonic``) from
stdin. Frame ``f`` is due at ``start + (f.ts - FIRST_TS) / SPEED`` and is
sent then, however far the receiver has fallen behind; a frame found
already past due is sent at once and its lateness recorded. Prints one
JSON line of lateness statistics when done.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.dns.tcp import frame_message  # noqa: E402
from repro.replay.capture import LANE_FLOW, read_capture  # noqa: E402


def main(argv) -> int:
    path, udp_host, udp_port, tcp_host, tcp_port, first_ts, speed = argv
    first_ts = float(first_ts)
    speed = float(speed)
    frames = sorted(read_capture(path), key=lambda f: f.ts)
    schedule = [
        ((f.ts - first_ts) / speed, f.lane == LANE_FLOW,
         f.payload if f.lane == LANE_FLOW else frame_message(f.payload))
        for f in frames
    ]
    udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    udp.connect((udp_host, int(udp_port)))
    tcp = socket.create_connection((tcp_host, int(tcp_port)))
    tcp.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    print("ready", flush=True)
    start = float(sys.stdin.readline())
    late = []
    clock = time.monotonic
    sleep = time.sleep
    try:
        for offset, is_flow, payload in schedule:
            due = start + offset
            now = clock()
            if now < due:
                sleep(due - now)
                now = clock()
            late.append(now - due)
            if is_flow:
                udp.send(payload)
            else:
                tcp.sendall(payload)
    finally:
        tcp.close()
        udp.close()
    late.sort()
    n = len(late)
    print(json.dumps({
        "frames": n,
        "late_p50_ms": late[n // 2] * 1000.0 if n else 0.0,
        "late_p99_ms": late[min(n - 1, int(n * 0.99))] * 1000.0 if n else 0.0,
        "late_max_ms": late[-1] * 1000.0 if n else 0.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
