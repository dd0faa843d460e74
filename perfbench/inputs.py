"""Seeded benchmark inputs: the three workloads and their generated scenarios.

Every scenario of a workload starts from the shipped file in ``scenarios/``.
The seed draws one spatial rotation per scenario; it is applied to every
3-vector and to the spatial part of every 4-vector under ``initial``.  All
shipped potentials are isotropic, so the rotation changes the inputs the
program sees without changing step counts, row counts or barrier intervals,
and the same output checks hold on every seed.  Seed 0 is the identity and
reproduces the shipped files byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

#: Seed of the shipped ``verify_all.json``; the benchmark seed is added to it.
VERIFY_BASE_SEED = 20250810

WORKLOADS = {
    # CSV-heavy: stride 1 on every run, about 85k rows per pass.
    "canonical_io": ["free_cmf", "free_boosted", "superluminal", "general_n2"],
    # Step-loop heavy: about 138k RK4 steps through Potential3D.gradient.
    "nonrel_loop": ["nonrel_harmonic", "nonrel_circle", "nonrel_gaussian_barrier"],
    # No output file: finite-difference brackets, monitor runs, gamma matrices.
    "verify_suites": ["verify_all"],
}

METRIC_DIAG = (1.0, -1.0, -1.0, -1.0)


@dataclass(frozen=True)
class Operation:
    """One closed-loop request: a ``zitterkit`` argument list and what it writes."""

    name: str
    kind: str
    argv: tuple[str, ...]
    scenario_path: Path
    output_path: Path | None
    stride: int


def rotation(seed: int, name: str) -> list[list[float]]:
    """Uniform random rotation for one scenario (Shoemake's quaternion method).

    Seeding from the string keeps each scenario's rotation independent of the
    order in which scenarios are generated.
    """
    if seed == 0:
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    rng = random.Random(f"{seed}:{name}")
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a = math.sqrt(1.0 - u1)
    b = math.sqrt(u1)
    w, x = a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2)
    y, z = b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


def _apply3(rot, v):
    return [rot[i][0] * v[0] + rot[i][1] * v[1] + rot[i][2] * v[2] for i in range(3)]


def rotate_initial(node, rot):
    """Rotate every 3-vector and the spatial part of every 4-vector in ``node``."""
    if isinstance(node, dict):
        return {k: rotate_initial(v, rot) for k, v in node.items()}
    if isinstance(node, list):
        if all(isinstance(v, (int, float)) for v in node):
            if len(node) == 3:
                return _apply3(rot, node)
            if len(node) == 4:
                return [node[0]] + _apply3(rot, node[1:])
            return node
        return [rotate_initial(v, rot) for v in node]
    return node


def minkowski_dot(u, v) -> float:
    return sum(g * a * b for g, a, b in zip(METRIC_DIAG, u, v))


def check_free_invariants(before: dict, after: dict, tol: float = 1e-12):
    """Raise if the rotation moved <p,p>, <p,cos_amp> or <p,sin_amp>."""
    p0, p1 = before["p"], after["p"]
    for other in ("p", "cos_amp", "sin_amp"):
        d0 = minkowski_dot(p0, before[other])
        d1 = minkowski_dot(p1, after[other])
        if abs(d1 - d0) > tol * max(1.0, abs(d0)):
            raise RuntimeError(f"rotation changed <p,{other}>: {d0!r} -> {d1!r}")


def render(name: str, seed: int) -> str:
    """Generated scenario text for one shipped scenario and seed."""
    scn = json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))
    if scn["kind"] == "verify":
        scn["verify"]["seed"] = VERIFY_BASE_SEED + seed
    elif "initial" in scn:
        rotated = rotate_initial(scn["initial"], rotation(seed, name))
        if scn["kind"] == "free":
            check_free_invariants(scn["initial"], rotated)
        scn["initial"] = rotated
    return json.dumps(scn, indent=2) + "\n"


def generate(workload: str, seed: int, workdir: Path) -> list[Operation]:
    """Write the workload's scenario files into ``workdir``; return its operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS[workload]:
        (workdir / f"{name}.json").write_text(render(name, seed), encoding="utf-8")
    return operations(workload, workdir)


def operations(workload: str, workdir: Path) -> list[Operation]:
    """The operations of one pass over files already written by :func:`generate`."""
    ops = []
    for name in WORKLOADS[workload]:
        path = workdir / f"{name}.json"
        scn = json.loads(path.read_text(encoding="utf-8"))
        if scn["kind"] == "verify":
            spec = scn["verify"]
            argv = ("verify", "--suite", spec["suite"], "--points", str(spec["points"]),
                    "--seed", str(spec["seed"]))
            ops.append(Operation(name, "verify", argv, path, None, 1))
            continue
        out = workdir / f"{name}.csv"
        argv = ("run", str(path), "--set", f"output.path={out}")
        ops.append(Operation(name, scn["kind"], argv, path, out,
                             scn["integrator"].get("stride", 1)))
    return ops
