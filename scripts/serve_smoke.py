#!/usr/bin/env python
"""CI smoke test of the ``repro serve`` daemon, over real processes.

Starts the daemon as a subprocess on an ephemeral port, submits a
rob-scaling sweep at a small instruction budget through the ``repro
submit`` CLI, follows with a cell-document submission of a wish-branch
cell (the non-paper scheme kinds go through the same submit path), polls
both to completion, and checks that one long-poll
(``GET /v1/jobs/<id>?wait=30``) sees a further job done in a single
request.  It then submits a slow job, holds a long-poll on it, reads the
daemon's worker processes from ``/v1/health``, sends SIGTERM, and
asserts the daemon exits cleanly (status 0) despite the pending
long-poll, releases that long-poll, and leaves none of those workers
alive.  A *second* daemon is then started over
the same cache directory: its job journal must list the first daemon's
job as done (``recovered``) and still serve its result — the restart
recovery path, over the wire.  Exercises exactly what a deployment
would: process startup, the HTTP API, the client CLI, signal-driven
shutdown, and journal-based recovery.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [instruction-budget]
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def start_daemon(env):
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--max-store-bytes",
            "64M",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    banner = daemon.stdout.readline()
    print(banner.strip())
    match = re.search(r"http://[\d.]+:\d+", banner)
    return daemon, (match.group(0) if match else None)


def stop_daemon(daemon):
    """SIGTERM the daemon; return its exit code (None on timeout)."""
    daemon.send_signal(signal.SIGTERM)
    try:
        code = daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        return None
    print(daemon.stdout.read(), end="")
    return code


def get_json(url):
    with urllib.request.urlopen(url, timeout=40) as response:
        return json.loads(response.read())


def post_json(url, document):
    body = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def long_poll_in_background(url, job_id):
    """Start ``GET /v1/jobs/<id>?wait=30`` on a thread; return it and its outcome list."""
    outcome = []

    def poll():
        try:
            outcome.append(get_json(f"{url}/v1/jobs/{job_id}?wait=30")["state"])
        except OSError as error:
            outcome.append(f"connection closed ({error})")

    thread = threading.Thread(target=poll, daemon=True)
    thread.start()
    return thread, outcome


def alive(pids, grace=5.0):
    """The pids still running after up to ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        running = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            running.append(pid)
        if not running or time.monotonic() > deadline:
            return running
        time.sleep(0.1)


def main() -> int:
    budget = sys.argv[1] if len(sys.argv) > 1 else "3000"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.setdefault("REPRO_CACHE_DIR", os.path.join(REPO_ROOT, ".serve-smoke-cache"))

    daemon, url = start_daemon(env)
    revived = None
    try:
        if url is None:
            print("FAIL: daemon did not print its bound address", file=sys.stderr)
            return 1

        submit = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "--instructions",
                budget,
                "submit",
                "rob-scaling",
                "--url",
                url,
                "--timeout",
                "300",
                "--retries",
                "3",
            ],
            env=env,
            cwd=REPO_ROOT,
            timeout=420,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        print(submit.stdout, end="")
        if submit.returncode != 0:
            print(f"FAIL: repro submit exited {submit.returncode}", file=sys.stderr)
            return 1
        match = re.search(r"job ([0-9a-f]+):", submit.stdout)
        if not match:
            print("FAIL: submit output did not name its job id", file=sys.stderr)
            return 1
        job_id = match.group(1)

        # A cell document naming a non-paper scheme kind: the wish-branch
        # scheme must flow through submit -> parse -> engine like any other.
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", dir=REPO_ROOT, delete=False
        ) as handle:
            json.dump(
                {
                    "cells": [
                        {"benchmark": "gzip", "scheme": {"kind": "wish"}},
                    ],
                    "instructions": int(budget),
                },
                handle,
            )
            cells_path = handle.name
        try:
            wish = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "submit",
                    cells_path,
                    "--url",
                    url,
                    "--timeout",
                    "300",
                    "--retries",
                    "3",
                ],
                env=env,
                cwd=REPO_ROOT,
                timeout=420,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        finally:
            os.unlink(cells_path)
        print(wish.stdout, end="")
        if wish.returncode != 0:
            print(f"FAIL: wish-cell submit exited {wish.returncode}", file=sys.stderr)
            return 1
        if "wish" not in wish.stdout:
            print(
                "FAIL: wish-cell result does not mention the wish scheme",
                file=sys.stderr,
            )
            return 1

        # One long-poll sees a job through to the end: no stream of polls.
        # No submission above ran this cell, so the job is still running
        # when the long-poll arrives.
        fresh = {"benchmark": "twolf", "scheme": "wish"}
        quick = post_json(f"{url}/v1/jobs", {"cells": [fresh], "instructions": int(budget)})
        state = get_json(f"{url}/v1/jobs/{quick['id']}?wait=30")["state"]
        if state != "done":
            print(f"FAIL: one ?wait=30 long-poll answered {state!r}", file=sys.stderr)
            return 1

        # A job still running at SIGTERM, with a long-poll pending on it.
        cell = {"benchmark": "twolf", "scheme": "predicate"}
        slow = post_json(f"{url}/v1/jobs", {"cells": [cell], "instructions": 1_000_000})
        deadline = time.monotonic() + 30
        while get_json(f"{url}/v1/jobs/{slow['id']}")["state"] == "queued":
            if time.monotonic() > deadline:
                print("FAIL: the slow job never started", file=sys.stderr)
                return 1
            time.sleep(0.05)
        poll, outcome = long_poll_in_background(url, slow["id"])
        workers = get_json(f"{url}/v1/health")["worker_pids"]
        if not workers:
            print("FAIL: /v1/health lists no worker processes", file=sys.stderr)
            return 1
        time.sleep(0.5)  # let the long-poll reach its wait
        stopped = time.monotonic()
        code = stop_daemon(daemon)
        if code != 0:
            print(f"FAIL: daemon exited {code!r} on SIGTERM", file=sys.stderr)
            return 1
        poll.join(timeout=5)
        if poll.is_alive() or outcome == ["done"]:
            print(f"FAIL: the pending long-poll was not released ({outcome})", file=sys.stderr)
            return 1
        print(
            f"daemon exited {time.monotonic() - stopped:.1f}s after SIGTERM; "
            f"the pending long-poll ended with {outcome[0]}"
        )
        survivors = alive(workers)
        if survivors:
            print(
                f"FAIL: worker processes {survivors} outlived the daemon",
                file=sys.stderr,
            )
            return 1

        # Restart over the same cache directory: the journal must bring the
        # finished job back, listable and with its result still servable.
        revived, revived_url = start_daemon(env)
        if revived_url is None:
            print("FAIL: restarted daemon printed no address", file=sys.stderr)
            return 1
        jobs = get_json(f"{revived_url}/v1/jobs")["jobs"]
        recovered = {job["id"]: job for job in jobs}.get(job_id)
        if recovered is None:
            print(
                f"FAIL: restarted daemon does not list job {job_id}",
                file=sys.stderr,
            )
            return 1
        if recovered["state"] != "done" or not recovered["recovered"]:
            print(
                f"FAIL: job {job_id} came back as {recovered['state']} "
                f"(recovered={recovered['recovered']}), expected a recovered "
                "'done'",
                file=sys.stderr,
            )
            return 1
        result = get_json(f"{revived_url}/v1/jobs/{job_id}/result?format=json")
        if not result.get("cells"):
            print(
                f"FAIL: recovered job {job_id} served no result cells",
                file=sys.stderr,
            )
            return 1

        code = stop_daemon(revived)
        if code != 0:
            print(f"FAIL: restarted daemon exited {code!r} on SIGTERM", file=sys.stderr)
            return 1
        print(
            "serve smoke: OK (submit completed, one long-poll saw a job done, "
            f"{len(workers)} worker processes stopped with the daemon despite "
            f"a pending long-poll, daemon restarted, job {job_id} recovered "
            "from the journal)"
        )
        return 0
    finally:
        for process in (daemon, revived):
            if process is not None and process.poll() is None:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
