"""Shared helpers for serve end-to-end tests: boot, talk, kill."""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port.

    The server leads its own process group, so :meth:`sigkill` and
    :meth:`close` take down the pool workers it forked along with it
    instead of leaving them orphaned.
    """

    def __init__(self, store, extra_args=(), env_extra=None):
        env = dict(os.environ,
                   PYTHONPATH=os.path.abspath(SRC) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        env.update(env_extra or {})
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", store, *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, start_new_session=True)
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        assert match, f"no listen banner, got: {banner!r}"
        self.port = int(match.group(1))
        self.url = f"http://127.0.0.1:{self.port}"

    def request(self, path, method="GET", payload=None, timeout=10):
        data = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        request = urllib.request.Request(self.url + path, data=data,
                                         method=method)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, json.load(resp)
        except urllib.error.HTTPError as error:
            with error:
                return error.code, json.load(error)

    def wait_terminal(self, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.request(f"/jobs/{job_id}")
            assert status == 200, body
            if body["state"] in ("done", "failed"):
                return body
            time.sleep(0.25)
        raise AssertionError(f"{job_id} not terminal after {timeout}s")

    def _kill_group(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the server and all its workers are already gone

    def sigkill(self):
        self._kill_group()
        self.proc.wait(timeout=10)

    def sigterm(self, timeout=30):
        self.proc.terminate()
        self.proc.wait(timeout=timeout)

    def close(self):
        self._kill_group()
        self.proc.wait(timeout=10)
