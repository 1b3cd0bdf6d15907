"""Record the payload digests that cli-cold checks every command against.

    python3 perfbench/record_digests.py

Runs each command of the CLI mix once per base graph and writes
perfbench/digests.json.  The exact values are fixed by the project's
contract, so re-record only for a deliberate, documented payload change.
"""

from __future__ import annotations

import json
import subprocess
import sys

import inputs
import workloads


def main():
    if not workloads.source_present():
        print("netmoments source not found", file=sys.stderr)
        return 2
    inputs_dir = workloads.OUT / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for cmd in sorted(inputs.cli_round(0, 0), key=lambda c: (c[0], c[1])):
        argv = workloads.cli_argv(cmd, inputs_dir)
        code, out, _ = workloads.run_cli(argv)
        if code != 0:
            print(f"{cmd[0]} base {cmd[1]} exited with {code}",
                  file=sys.stderr)
            return 1
        digest = workloads.payload_digest(json.loads(out)["result"])
        digests.setdefault(cmd[0], {})[str(cmd[1])] = digest
        print(cmd[0], cmd[1], digest)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(workloads.DIGESTS, "w") as fh:
        json.dump({"recorded_at": commit or None, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
