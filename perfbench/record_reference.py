"""Record the paper_run reference values into reference.json.

    python3 perfbench/record_reference.py

Runs the paper_run invocation once through the CLI and stores its ground
energy and normalised yield over orders [2, 40].  These are regression
values of the commit that recorded them, not the paper's figures; record
again only when a change to the physics is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_PATH, REFERENCE_WINDOW, reference_from_outputs
from run import WORK, environment, invoke
from workloads import paper_run


def main() -> int:
    p = next(paper_run(0))
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        config, out = tmp / "config.ini", tmp / "out"
        config.write_text(p.config)
        inv = invoke(["-m", "polaron_hhg.cli", *p.argv(str(config), str(out))], tmp / "cli.log")
        if inv.returncode != 0:
            print((tmp / "cli.log").read_text(), file=sys.stderr)
            return 1
        env = environment()
        ref = {
            "recorded_at_commit": env["commit"],
            "source_sha256": env["source_sha256"],
            "window": list(REFERENCE_WINDOW),
            **reference_from_outputs(out),
        }
    finally:
        shutil.rmtree(tmp)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH.name}: E0 = {ref['ground_energy']!r}, {len(ref['orders'])} orders")
    return 0


if __name__ == "__main__":
    sys.exit(main())
