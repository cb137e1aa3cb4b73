"""Regenerate map_reference.json: the map workload's cells at tol 1e-8.

For every grid a seed can select (see workloads.JITTER_LEVELS) and every
2x2 tile of it, run the same ``sweep`` command as the map workload at
tol 1e-8 and store the cells.  The map workload requires its tol-1e-6
cells to lie within 1e-4 of these.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run

REFERENCE_TOL = 1e-8


def main() -> int:
    run.prepare()
    import numpy as np
    import workloads
    from chainwise_sta import cli

    levels = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as tmp:
        out = Path(tmp)
        for level in range(workloads.JITTER_LEVELS):
            grids = {p: np.full((workloads.MAP_POINTS,) * 2, np.nan)
                     for p in workloads.MAP_PROTOCOLS}
            for protocol, i0, j0, tf, delta in workloads.map_tiles(level):
                argv = workloads.map_argv(protocol, tf, delta, REFERENCE_TOL)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.run_cli([*argv, "--out", str(out)])
                if rc != 0:
                    print(f"reference sweep failed: {argv}", file=sys.stderr)
                    return 1
                _, _, cells = workloads.read_map(out / "map.csv")
                grids[protocol][i0:i0 + 2, j0:j0 + 2] = cells
            levels[str(level)] = {p: g.tolist() for p, g in grids.items()}
            print(f"level {level} done", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(_format(levels))
    return 0


def _format(levels: dict) -> str:
    """JSON with one line per map."""
    blocks = []
    for level, grids in levels.items():
        rows = ",\n".join(f'  "{p}": {json.dumps(cells)}' for p, cells in grids.items())
        blocks.append(f' "{level}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
