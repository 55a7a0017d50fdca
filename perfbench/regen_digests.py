"""Record the SHA-256 of each cli-reports command's stdout.

    python3 perfbench/regen_digests.py

This is the only writer of ``perfbench/cli_digests.json``; benchmark runs
only read it, so a changed byte of CLI output fails the op instead of
silently becoming the new reference. Run it only when a change to the
CLI's output is intended, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("VS_SEED", None)  # the CLI reads its default seed from here

from workloads import DIGESTS, SEARCH_SEEDS, command_key, deck, run_cli  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    digests = {}
    for seed in range(SEARCH_SEEDS):
        for argv in deck(seed):
            key = command_key(argv)
            if key in digests:
                continue
            code, stdout = run_cli(argv)
            if code != 0:
                print(f"error: {key!r} exited {code}", file=sys.stderr)
                return 1
            digests[key] = hashlib.sha256(stdout).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
