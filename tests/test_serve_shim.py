"""Pin the ``repro.serve.wire`` re-export the end-to-end benchmark uses.

``benchmarks/e2e/child.py`` imports ``canonical_result`` from
``repro.serve.wire``.  The shim must stay one re-export of the
checkpoint's canonicaliser, and importing it must stay cheap: it loads
no event loop and no service code before the benchmark's timed parts.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_wire_reexports_the_checkpoint_canonicaliser():
    import repro.harness.checkpoint as checkpoint
    import repro.serve.wire as wire

    assert wire.canonical_result is checkpoint.canonical_result


def test_importing_the_shim_loads_no_event_loop():
    code = ("import sys\n"
            "import repro.serve.wire\n"
            "print('asyncio' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(SRC) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
