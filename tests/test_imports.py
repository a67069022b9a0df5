"""The package and its CLI import nothing outside the standard library.

Every benchmark worker imports both from source, so a third-party import
would be paid for in each worker's set-up time.
"""

import json
import os
import subprocess
import sys

PROBE = """
import json, sys
before = set(sys.modules)
import arck0, arck0.cli
added = set(sys.modules) - before
print(json.dumps(sorted(added)))
"""


def test_import_adds_only_stdlib_and_package_modules():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
        check=True,
    )
    added = json.loads(proc.stdout)
    assert "arck0.cli" in added and "arck0.snf" in added
    foreign = [
        name
        for name in added
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name != "arck0"
        and not name.startswith("arck0.")
    ]
    assert foreign == []
