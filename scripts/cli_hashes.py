#!/usr/bin/env python3
"""Hash the CLI output of a source checkout, one line per invocation.

Runs ``extsphere`` from ``<checkout>/src`` in this process on:

* the six bundled scenes of ``<checkout>/scenes``, each under ``check``,
  ``cover``, ``sconvex --envelope full``, ``harness`` and ``report``;
* the ``polytope-check`` benchmark scenes of seeds 7 and 23, built by
  ``<checkout>/perfbench/workloads.build``, each under ``check``, ``cover``
  (with the workload's probe points where it has them) and ``report``;
* the six seed-7 ``cover`` invocations of the ``witness-cover`` benchmark,
  built the same way, whose near-boundary probes run the epsilon loop and
  the boundary crossing.

Each line gives the exit status, a hash of stdout and a hash of the JSON
report without its ``timings``.  A change that should not move any output
prints the same lines as its parent:

    python scripts/cli_hashes.py PARENT > parent.txt
    python scripts/cli_hashes.py . > change.txt
    diff parent.txt change.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

BUNDLED = ("strip", "lineplane", "ball", "ballcomplement", "halfplane", "pointset")
BUNDLED_COMMANDS = (["check"], ["cover"], ["sconvex", "--envelope", "full"], ["harness"], ["report"])
POLYTOPE_SEEDS = (7, 23)
WITNESS_SEED = 7


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _invocations(checkout: str, workdir: str):
    """(label, argv) pairs; the scene files are written to workdir."""
    for name in BUNDLED:
        path = os.path.join(checkout, "scenes", f"{name}.scene")
        for command in BUNDLED_COMMANDS:
            yield f"{name} {' '.join(command)}", [command[0], path, *command[1:]]
    import workloads

    for seed in POLYTOPE_SEEDS:
        wl = workloads.build("polytope-check", seed, os.path.join(checkout, "scenes"))
        os.mkdir(os.path.join(workdir, str(seed)))
        paths = wl.write(os.path.join(workdir, str(seed)))
        covers = {inv.scene: inv.argv for inv in wl.invocations if inv.command == "cover"}
        for name in wl.scenes:
            for argv in (["check"], covers.get(name, ["cover"]), ["report"]):
                yield f"polytope-{seed} {name} {argv[0]}", [argv[0], paths[name], *argv[1:]]
    wl = workloads.build("witness-cover", WITNESS_SEED, os.path.join(checkout, "scenes"))
    os.mkdir(os.path.join(workdir, "witness"))
    paths = wl.write(os.path.join(workdir, "witness"))
    for inv in wl.invocations:
        label = f"witness-{WITNESS_SEED} {inv.scene} {inv.command}"
        yield label, [inv.command, paths[inv.scene], *inv.argv[1:]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="root of the source checkout to run")
    checkout = os.path.abspath(parser.parse_args().checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    from extsphere.cli import main as cli_main

    with tempfile.TemporaryDirectory() as workdir:
        # A relative report path, so that the "json report:" line of stdout
        # is the same in every run.
        os.chdir(workdir)
        report = "report.json"
        for label, argv in _invocations(checkout, workdir):
            if os.path.exists(report):
                os.remove(report)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli_main([*argv, "--json-report", report])
            payload = {}
            if os.path.exists(report):
                with open(report, encoding="utf-8") as handle:
                    payload = json.load(handle)
            payload.pop("timings", None)
            body = json.dumps(payload, sort_keys=True).encode()
            print(f"{label}: exit {status} stdout {_hash(out.getvalue().encode())} json {_hash(body)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
