"""A sweep SIGKILLed mid-run resumes from its checkpoint bit-identically.

``repro sweep --checkpoint F`` runs as a real subprocess and is killed
(SIGKILL: no handler, no flush, no cleanup) once its first record has
landed.  ``--resume`` must then restore what was checkpointed, run the
rest, and end with canonical results byte-identical to an
uninterrupted sweep's.  Every wait is bounded.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.core.platform import EmulationMode
from repro.harness.checkpoint import (
    SweepCheckpoint,
    canonical_result,
    result_to_dict,
)
from repro.harness.experiment import ExperimentRunner, RunKey

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
COLLECTORS = ("PCM-Only", "KG-N", "KG-W")
KEYS = [RunKey("fop", collector, 1, "default", EmulationMode.EMULATION)
        for collector in COLLECTORS]

#: Upper bound on any one subprocess wait; three fop runs take seconds.
WAIT_SECONDS = 180.0


def _sweep_argv(checkpoint, *extra):
    return [sys.executable, "-m", "repro", "sweep", "-b", "fop",
            "-c", ",".join(COLLECTORS), "-j", "1",
            "--checkpoint", checkpoint, "--json", *extra]


def _env():
    return dict(os.environ,
                PYTHONPATH=os.path.abspath(SRC) + os.pathsep
                + os.environ.get("PYTHONPATH", ""))


def _complete_records(path):
    """Run records (not the header) that end in a newline."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return 0
    lines = raw.split(b"\n")[:-1]  # the last piece is unterminated
    return sum(1 for line in lines if b'"key"' in line)


def _kill_after_first_record(checkpoint):
    """Start the sweep and SIGKILL its process group once one run
    record is on disk."""
    proc = subprocess.Popen(_sweep_argv(checkpoint), env=_env(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + WAIT_SECONDS
        while _complete_records(checkpoint) < 1:
            if proc.poll() is not None:
                output = proc.stdout.read().decode(errors="replace")
                raise AssertionError(
                    f"sweep exited ({proc.returncode}) before its first "
                    f"checkpoint record:\n{output}")
            if time.monotonic() > deadline:
                raise AssertionError("no checkpoint record appeared "
                                     f"within {WAIT_SECONDS:.0f}s")
            time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it already finished
        proc.wait(timeout=30)
        proc.stdout.close()
    return proc.returncode


def _canonical(result):
    return json.dumps(canonical_result(result_to_dict(result)),
                      sort_keys=True, separators=(",", ":"))


class TestSweepResume:
    def test_sigkill_mid_sweep_resumes_bit_identical(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.ckpt.jsonl")
        returncode = _kill_after_first_record(checkpoint)
        assert returncode in (-signal.SIGKILL, 0)

        resumed = subprocess.run(_sweep_argv(checkpoint, "--resume"),
                                 env=_env(), capture_output=True,
                                 text=True, timeout=WAIT_SECONDS)
        assert resumed.returncode == 0, resumed.stderr
        outcomes = [json.loads(line)
                    for line in resumed.stdout.splitlines()]
        assert [o["key"]["collector"] for o in outcomes] \
            == list(COLLECTORS)
        assert all(o["status"] == "ok" for o in outcomes)
        assert sum(o["from_checkpoint"] for o in outcomes) >= 1

        # The checkpoint now holds every key: the records restored from
        # the killed pass plus the ones the resumed pass appended.
        stored = SweepCheckpoint(checkpoint).load()
        assert set(stored) == set(KEYS)

        reference = ExperimentRunner().sweep(KEYS, max_workers=1)
        assert reference.ok
        for printed, outcome in zip(outcomes, reference.outcomes):
            result = stored[outcome.key]
            assert _canonical(result) == _canonical(outcome.result), (
                f"{outcome.key.collector}: resumed result diverged from "
                f"an uninterrupted sweep")
            # What the resumed sweep reported, restored or fresh.
            for field, value in printed["result"].items():
                assert value == getattr(outcome.result, field), field
