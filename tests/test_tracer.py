"""The benchmark's tracer still finds every name it wraps in the package."""

import subprocess
import sys
from pathlib import Path

from childenv import child_env

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


def test_tracer_installs_on_this_package():
    # spans.install looks every traced function up by name; a rename or a
    # deletion in the package breaks the traced benchmark run
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % str(E2EBENCH),
        "import spans",
        "spans.install(spans.Tracer())",
        "print('installed')",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "installed"
