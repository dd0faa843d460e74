"""One measured pass in a fresh interpreter.

    python3 perfbench/child.py SCENARIO [WORKLOAD SEED WORKDIR]

Times ``import zitterkit.cli`` plus the first ``load_scenario`` and
``_validate_scenario`` of SCENARIO, which includes the lazy jsonschema
import.  Nothing but ``speed.py`` (standard library ``signal`` and
``time`` only) is imported before that clock starts, so the library pays for
every module it needs.  Given a workload, it then runs one pass of it over
the files already generated in WORKDIR, after set-up as every CLI invocation
runs.  It prints one JSON line: the set-up time and the pass's wall time,
each raw and at reference speed (``speed.py``), the pass's problems and the
process's peak resident memory.
"""

import os
import sys

import speed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv) -> int:
    sys.path.insert(0, SRC)
    with speed.Clock() as setup:
        import zitterkit.cli as cli

        cli._validate_scenario(cli.load_scenario(argv[0]))

    import json

    if len(argv) == 1:
        print(json.dumps({"setup_s": setup.scaled_s, "setup_raw_s": setup.raw_s}))
        return 0
    workload, seed, workdir = argv[1], int(argv[2]), argv[3]

    import resource
    from pathlib import Path

    import inputs
    import passes

    ops = inputs.operations(workload, Path(workdir))
    wall_raw_s, wall_s, problems = passes.run_pass(cli, ops, seed)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup_s": setup.scaled_s, "setup_raw_s": setup.raw_s, "wall_s": wall_s,
                      "wall_raw_s": wall_raw_s, "peak_rss_mb": peak_rss_mb,
                      "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
