"""Structure files and the command-line front end.

Structures serialize to a single JSON document holding the ground field, the
algebra and coalgebra structure constants, the matrix of psi, and (optionally)
an antipode.  Loading re-validates everything, so a file is a proof-carrying
object: if it loads, the bow-tie holds.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from entwine.zoo import load, named_example, save

with tempfile.TemporaryDirectory() as tmpdir:
    tmp = Path(tmpdir)

    # Round-trip: save, reload (full validation), save again -> byte identical.
    e = named_example("sweedler")
    p1, p2 = tmp / "sweedler.json", tmp / "sweedler2.json"
    save(e, p1)
    save(load(p1), p2)
    print("round trip is byte-identical:", p1.read_bytes() == p2.read_bytes())
    print("file starts with:")
    print("  " + "\n  ".join(p1.read_text().splitlines()[:6]))

    # A corrupted entwining map fails to load, naming the broken relation.
    bad = tmp / "corrupted.json"
    save(named_example("corrupted-psi"), bad)
    try:
        load(bad)
    except Exception as exc:
        print("\ncorrupted file rejected:", exc)

    # The same functionality is scriptable through the CLI; --json emits a
    # machine-readable report (byte-deterministic for fixed input and seed).
    for cmd in (
        [sys.executable, "-m", "entwine.cli", "verify", str(p1)],
        [sys.executable, "-m", "entwine.cli", "cohom", str(p1), "--max-degree", "2",
         "--json", str(tmp / "report.json")],
    ):
        print("\n$", " ".join(cmd[2:]))
        out = subprocess.run(cmd, capture_output=True, text=True)
        print("\n".join("  " + line for line in out.stdout.splitlines()[-4:]))
        print("  exit code:", out.returncode)

    report = json.loads((tmp / "report.json").read_text())
    print("\nstructured report keys:", sorted(report.keys()))
    print("betti table:", report["tables"]["betti numbers"])
