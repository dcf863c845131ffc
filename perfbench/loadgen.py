"""Closed-loop load generator for ``POST /v1/infer`` (standard library only).

Usage::

    python3 perfbench/loadgen.py --url http://127.0.0.1:PORT \\
        --queries queries.json --seconds 20 --out results.json

Each of two threads holds one keep-alive connection and sends its next
request only when the previous reply has arrived.  A host with fewer than
two CPUs cannot run the workload as declared, so the generator exits with
an error there.  Request ``i``
(numbered across all connections) posts the single title
``titles[i % len(titles)]`` with seed ``seed_base + i``.  No request starts
after ``--seconds``; every request is recorded with its HTTP status (0 for a
connection error), latency and body.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import threading
import time
from urllib.parse import urlparse

#: Closed-loop connections (one thread each); the workload is defined by it.
CONNECTIONS = 2


def classify(status: int) -> bool:
    """Whether a reply counts as successful (anything but 200 fails)."""
    return status == 200


def connection_loop(host: str, port: int, titles, seed_base: int, counter,
                    lock: threading.Lock, deadline: float, records: list) -> None:
    connection = http.client.HTTPConnection(host, port, timeout=60)
    headers = {"Content-Type": "application/json"}
    try:
        while time.monotonic() < deadline:
            with lock:
                index = next(counter)
            body = json.dumps({"documents": [titles[index % len(titles)]],
                               "seed": seed_base + index})
            start = time.monotonic()
            try:
                connection.request("POST", "/v1/infer", body, headers)
                response = connection.getresponse()
                payload = response.read().decode("utf-8")
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                status, payload = 0, f"{type(exc).__name__}: {exc}"
            records.append([index, status, time.monotonic() - start, payload])
    finally:
        connection.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    cpus = len(os.sched_getaffinity(0))
    if cpus < CONNECTIONS:
        parser.error(f"{CONNECTIONS} connections need at least {CONNECTIONS} "
                     f"CPUs; this process may use {cpus}")
    with open(args.queries, encoding="utf-8") as handle:
        queries = json.load(handle)
    url = urlparse(args.url)
    counter, lock = itertools.count(), threading.Lock()
    records: list = []
    start = time.monotonic()
    deadline = start + args.seconds
    threads = [threading.Thread(
        target=connection_loop,
        args=(url.hostname, url.port, queries["titles"], queries["seed_base"],
              counter, lock, deadline, records)) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.monotonic()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"window": [start, end], "connections": CONNECTIONS,
                   "records": sorted(records)}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
