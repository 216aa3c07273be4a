"""Serve soak: does a long-running ``repro serve`` keep its memory bounded?

Boots ``repro serve`` as a child process (two pool workers, a budget no
request exhausts, a fresh ledger directory), sends ``--requests``
distinct private ``/release`` requests (12 samples each, a fresh seed
each, so every one is a new fit and a new ledger charge) over one
keep-alive connection, and reads the server's ``VmRSS`` from
``/proc/<pid>/status`` after request ``--baseline`` and after the last.
Every answer must be a 200 cache miss.  Prints one JSON line and exits 1
when the resident set grew by more than ``--max-growth-mib`` between the
two readings.  Linux only (it reads ``/proc``).

The growth is not zero: each charge keeps its in-memory ledger entry and
its token (about 0.3 KB, so about 0.7 MiB over requests 500 to 3,000).
The default bound of 1.5 MiB admits that and little more; the memos'
own growth, were they unbounded, is about 7 KB a request (18 MiB here).

Run from the repository root::

    python benchmarks/serve_soak.py                     # 3,000 requests
    python benchmarks/serve_soak.py --requests 600 --baseline 100
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
RELEASE = {"dataset": "as20", "epsilon": 0.3, "delta": 0.01, "count": 12}
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def vm_rss_mib(pid: int) -> float:
    """The resident set size of process ``pid``, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS line for process {pid}")


def boot(work_dir: Path) -> tuple[subprocess.Popen, tuple[str, int], Path]:
    """Start ``repro serve`` on an ephemeral port; wait until it listens."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    log = work_dir / "serve.log"
    with open(log, "wb") as handle:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--n-jobs", "2",
             "--budget-epsilon", "1e9", "--budget-delta", "1e9",
             "--ledger-dir", str(work_dir / "ledgers")],
            stdout=handle, stderr=subprocess.STDOUT, env=env,
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        match = _LISTENING.search(log.read_text())
        if match:
            return server, (match.group(1), int(match.group(2))), log
        if server.poll() is not None:
            break
        time.sleep(0.1)
    server.kill()
    raise RuntimeError(f"repro serve did not start:\n{log.read_text()}")


def release(connection: http.client.HTTPConnection, seed: int) -> None:
    body = json.dumps(dict(RELEASE, seed=seed)).encode("utf-8")
    connection.request("POST", "/release", body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    data = response.read()
    cache = response.getheader("X-Repro-Cache")
    if response.status != 200 or cache != "miss":
        raise RuntimeError(f"seed {seed}: /release answered {response.status} "
                           f"(X-Repro-Cache={cache}): {data[:200]!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=3000)
    parser.add_argument("--baseline", type=int, default=500,
                        help="request after which the first VmRSS reading is taken")
    parser.add_argument("--max-growth-mib", type=float, default=1.5)
    args = parser.parse_args(argv)
    if not 0 < args.baseline < args.requests:
        parser.error("--baseline must lie between 0 and --requests")

    with tempfile.TemporaryDirectory(prefix="repro-soak-") as work:
        server, address, log = boot(Path(work))
        connection = http.client.HTTPConnection(*address, timeout=120)
        start = time.perf_counter()
        try:
            for seed in range(1, args.requests + 1):
                release(connection, seed)
                if seed == args.baseline:
                    baseline = vm_rss_mib(server.pid)
            final = vm_rss_mib(server.pid)
        finally:
            connection.close()
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        growth = final - baseline
        report = {
            "requests": args.requests,
            "baseline_request": args.baseline,
            "vm_rss_mib_at_baseline": round(baseline, 2),
            "vm_rss_mib_at_end": round(final, 2),
            "growth_mib": round(growth, 2),
            "max_growth_mib": args.max_growth_mib,
            "seconds": round(time.perf_counter() - start, 1),
        }
        print(json.dumps(report))
        if growth > args.max_growth_mib:
            print(log.read_text()[-2000:], file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
