"""Seeded workload generator and artifact checks for the kwavelab benchmark.

Each workload is a shipped fixture from ``configs/`` with a few keys
overridden: the horizons are shortened so that one repetition takes under a
second, and the benchmark seed is written into the ``seed`` key. The CLI only
ever sees the generated configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

# The reason each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS: dict[str, "Workload"] = {}


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str  # file name under configs/
    overrides: dict  # config key -> value text, or a function of a seeded RNG
    commands: tuple  # CLI commands run in order on the generated config
    threads: int

    def argv(self, config_path: str, out_dir: str) -> list[list[str]]:
        return [[cmd, "--config", config_path, "--out", out_dir,
                 "--threads", str(self.threads)] for cmd in self.commands]


def _register(w: Workload) -> None:
    WORKLOADS[w.name] = w


# Horizons are the fixture's divided by 80 (by 8 for the single trajectories),
# so that a repetition takes well under a second and a run holds dozens of
# them. pullback-d3 keeps the fixture's ratio of 2 tau_max legs (one in
# verify_absorbing, one in pullback_cloud) to 5 integrated time units per
# delta.
_register(Workload(
    "pullback-d3", "cubic3d.cfg",
    {"attractor.taus": "0.125, 0.25"},
    ("pullback",), 2))
_register(Workload(
    "sweep-d2", "sweep.cfg",
    {"model.dim": "2", "disc.n_modes": "16", "attractor.taus": "0.0625, 0.125, 0.25"},
    ("semicontinuity",), 1))
_register(Workload(
    "simulate-d3", "cubic3d.cfg",
    {"disc.t_end": "1.25"},
    ("simulate",), 1))
_register(Workload(
    "baseline-d1", "linear.cfg",
    # single-mode data as in the fixture (a random draw over all 32 modes puts
    # the decomposition's residual diagnostic far above its tolerance)
    {"disc.t_end": "2.5",
     "ic.u_amp": lambda rng: repr(0.5 + rng.random()),
     "ic.v_amp": lambda rng: repr(rng.random() - 0.5)},
    ("validate", "simulate", "decompose"), 1))


def read_fixture(root: str, fixture: str) -> list[str]:
    with open(os.path.join(root, "configs", fixture), encoding="utf-8") as fh:
        return fh.read().splitlines()


def generate_config(workload: Workload, fixture_lines: list[str], seed: int,
                    scale: float = 1.0) -> str:
    """Config text for one workload and seed.

    ``scale`` multiplies every time horizon the workload shortens; the tests
    use a small value for quick smoke runs.
    """
    rng = random.Random(seed)
    overrides = {k: v(rng) if callable(v) else v for k, v in workload.overrides.items()}
    overrides["seed"] = str(int(seed))
    if scale != 1.0:
        overrides = {k: _scaled(k, v, scale) for k, v in overrides.items()}
    out, seen = [], set()
    for line in fixture_lines:
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key in overrides:
            out.append(f"{key} = {overrides[key]}")
            seen.add(key)
        else:
            out.append(line)
    out.extend(f"{k} = {v}" for k, v in overrides.items() if k not in seen)
    return "\n".join(out) + "\n"


def _scaled(key: str, value: str, scale: float) -> str:
    if key == "disc.t_end":
        return repr(float(value) * scale)
    if key == "attractor.taus":
        return ", ".join(repr(float(t) * scale) for t in value.split(","))
    return value


def write_configs(root: str, dest: str, seed: int, names=None,
                  scale: float = 1.0) -> dict[str, str]:
    """Write one generated config per workload into ``dest``; return the paths."""
    os.makedirs(dest, exist_ok=True)
    paths = {}
    for name in names or WORKLOADS:
        w = WORKLOADS[name]
        path = os.path.join(dest, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(generate_config(w, read_fixture(root, w.fixture), seed, scale))
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# artifact checks

# Columns that hold NaN by construction: Etilde needs a difference run that
# simulate does not make, the last ledger residual has no forward difference,
# the decomposition residual skips the stencil's end points, and the fitted
# order is undefined with fewer than two positive deltas.
NAN_COLUMNS = {
    "ledger.csv": {"Etilde", "residual"},
    "decomposition.csv": {"residual_norm"},
    "sweep.csv": {"fitted_order"},
}

# JSON keys that may hold +inf: a hypothesis check that is vacuous (h = 0)
# reports an infinite margin.
INF_KEYS = {"hypotheses.json": {"margin"}}

# Pass flags per artifact: (path of keys, expected value).
PASS_FLAGS = {
    "summary.json": [(("decay", "passed"), True), (("decay", "integrated_passed"), True),
                     (("decay", "energy_nonneg"), True), (("sandwich", "passed"), True)],
    "semicontinuity.json": [(("monotone_within_band",), True)],
    "hypotheses.json": [(("all_passed",), True)],
    "decomposition.json": [(("rate2_ok",), True)],
}


def _check_csv(name: str, text: str) -> list[str]:
    lines = text.splitlines()
    if len(lines) < 2:
        return [f"{name}: no data rows"]
    header = lines[0].split(",")
    allowed = NAN_COLUMNS.get(name, set())
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            return [f"{name}:{lineno}: {len(cells)} cells, header has {len(header)}"]
        for col, cell in zip(header, cells):
            x = float(cell)
            if not math.isfinite(x) and not (math.isnan(x) and col in allowed):
                return [f"{name}:{lineno}: non-finite {col} = {cell}"]
    return []


def _nonfinite_json(obj, inf_keys, path="", key=None) -> list[str]:
    if isinstance(obj, float):
        ok = math.isfinite(obj) or (obj == math.inf and key in inf_keys)
        return [] if ok else [f"{path} = {obj}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_json(v, inf_keys, f"{path}.{k}", k)]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj)
                for p in _nonfinite_json(v, inf_keys, f"{path}[{i}]", key)]
    return []


def _check_json(name: str, text: str) -> list[str]:
    obj = json.loads(text)
    problems = [f"{name}: non-finite {p}"
                for p in _nonfinite_json(obj, INF_KEYS.get(name, set()))]
    for keys, want in PASS_FLAGS.get(name, []):
        val = obj
        for k in keys:
            val = val.get(k) if isinstance(val, dict) else None
        if val != want:
            problems.append(f"{name}: {'.'.join(keys)} is {val!r}, expected {want!r}")
    if name == "absorbing.json":
        reports = obj.get("reports") or {}
        if not reports:
            problems.append("absorbing.json: no reports")
        problems += [f"absorbing.json: delta {delta} did not pass"
                     for delta, rep in reports.items() if rep.get("passed") is not True]
    return problems


def check_artifacts(out_dir: str, names) -> tuple[dict[str, str], int, list[str]]:
    """Digest, total size and problems of the named artifacts in ``out_dir``.

    Other files are ignored, so an artifact documented as outside the
    byte-identity contract (timings, say) cannot fail the rerun comparison.
    """
    digests, size, problems = {}, 0, []
    for name in sorted(names):
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            problems.append(f"{name}: missing")
            continue
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
        text = data.decode("utf-8")
        try:
            if name.endswith(".csv"):
                problems += _check_csv(name, text)
            else:
                problems += _check_json(name, text)
        except ValueError as exc:
            problems.append(f"{name}: unparsable ({exc})")
    return digests, size, problems


ARTIFACTS = {"validate": ("hypotheses.json",),
             "simulate": ("trajectory.csv", "ledger.csv", "summary.json"),
             "pullback": ("clouds.csv", "absorbing.json"),
             "semicontinuity": ("sweep.csv", "semicontinuity.json"),
             "decompose": ("decomposition.csv", "decomposition.json")}


def artifact_names(workload: Workload) -> set[str]:
    return {name for cmd in workload.commands for name in ARTIFACTS[cmd]}
