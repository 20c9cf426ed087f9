"""The four benchmark workloads: their input specs, CLI commands and output checks.

Each workload is a list of operations; one operation is one ``starmix``
command line run in-process.  A check reads the command's stdout and returns
``None`` when the output is correct, or a one-line reason when it is not.
Reference values are read from the repository's own sources (the acceptance
tests and the CLI grid tables) rather than restated here.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Files searched, in order, for the named reference constants.
REFERENCE_FILES = ("tests/test_acceptance.py", "src/starmix/*.py")
REFERENCE_NAMES = (
    "GRID_LENGTHS",
    "GRID_COUNTS",
    "EXPECTED_SLEM_GRID",
    "EXPECTED_CORE_CAPACITY_GRID",
    "EXPECTED_SCHEME_SLEM",
)

SCHEMES = ("optimal", "metropolis", "max_degree", "best_constant")

COMPARISON_SPEC = {"m": [1, 2, 3], "n": [4, 3, 2], "K": 1}
TWO_CORE_FAMILY = {"m": [2, 3, 4], "n": [3, 2, 2], "K": 1}
# Core-count window straddling the family's closed-form bound K_max = 40.
SWEEP_WINDOW = (37, 43)
SIM_TRIALS, SIM_ITERATIONS = 10_000, 500
# n = (3k, 2k, 2k) on m = (2, 3, 4) gives 1 + 20k nodes: 141, 701, 1401.
LADDER_SCALES = (7, 35, 70)
LADDER_TRIALS, LADDER_ITERATIONS = 32, 100

_TIMING_LINE = re.compile(r'^\s*"(started_utc|elapsed_seconds)": .*\n', re.MULTILINE)

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    check: Check


def strip_timing(stdout: str) -> str:
    """Drop the manifest's wall-clock fields, the only bytes allowed to vary."""
    return _TIMING_LINE.sub("", stdout)


def load_references(root: Path) -> dict:
    """Literal values of REFERENCE_NAMES from the first file that assigns each."""
    found: dict = {}
    for pattern in REFERENCE_FILES:
        for path in sorted(root.glob(pattern)):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in tree.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and target.id in REFERENCE_NAMES:
                        found.setdefault(target.id, ast.literal_eval(node.value))
    missing = [name for name in REFERENCE_NAMES if name not in found]
    if missing:
        raise LookupError(f"reference constants not found in the repository: {missing}")
    return found


def spec_files(workload: str) -> dict[str, dict]:
    """Input topology files of a workload, by file name.

    The inputs are the paper's fixed experiment specs; the seed reaches the
    program as the ``--seed`` of ``simulate`` and ``validate``.
    """
    if workload == "core-sweep":
        return {"two_core_family.json": TWO_CORE_FAMILY}
    if workload == "consensus-sim":
        return {"comparison.json": COMPARISON_SPEC}
    if workload == "network-ladder":
        return {
            f"ladder-{1 + 20 * k}.json": {"m": [2, 3, 4], "n": [3 * k, 2 * k, 2 * k], "K": 1}
            for k in LADDER_SCALES
        }
    return {}


def write_specs(workload: str, directory: Path) -> None:
    directory.mkdir(parents=True)
    for name, spec in spec_files(workload).items():
        (directory / name).write_text(json.dumps(spec) + "\n", encoding="utf-8")


def operations(workload: str, spec_dir: Path, seed: int, refs: dict) -> list[Operation]:
    files = {name: str(spec_dir / name) for name in spec_files(workload)}
    if workload == "paper-grid":
        return [
            Operation(("slem-grid", "--format", "csv"), lambda out: _check_slem_grid(out, refs)),
            Operation(("kmax", "--grid", "--format", "csv"), lambda out: _check_kmax_grid(out, refs)),
        ]
    if workload == "core-sweep":
        # One invocation per core count, so the reference probe of run.py
        # runs between the optimizer calls.
        k_min, k_max = SWEEP_WINDOW
        return [
            Operation(
                ("sweep-k", "--spec", files["two_core_family.json"], "--k-min", str(k), "--k-max", str(k)),
                _check_sweep,
            )
            for k in range(k_min, k_max + 1)
        ]
    if workload == "consensus-sim":
        # One invocation per scheme (the same seed gives every scheme the same
        # initial states), so the reference probe of run.py runs between them.
        return [
            Operation(
                ("simulate", "--spec", files["comparison.json"], "--schemes", scheme,
                 "--trials", str(SIM_TRIALS), "--iterations", str(SIM_ITERATIONS),
                 "--seed", str(seed)),
                lambda out, scheme=scheme: _check_comparison(out, scheme, refs),
            )
            for scheme in SCHEMES
        ]
    if workload == "network-ladder":
        ops = []
        for path in files.values():
            for scheme in SCHEMES:
                ops.append(Operation(("slem", "--spec", path, "--scheme", scheme), _check_slem_below_one))
            ops.append(Operation(
                ("validate", "--spec", path, "--skip-optimizer", "--seed", str(seed)),
                _check_validate,
            ))
            ops.append(Operation(
                ("simulate", "--spec", path, "--trials", str(LADDER_TRIALS),
                 "--iterations", str(LADDER_ITERATIONS), "--seed", str(seed)),
                _check_short_simulation,
            ))
        return ops
    raise KeyError(workload)


def _grid_rows(out: str, refs: dict, column: str) -> list[tuple[str, float]]:
    """(cell label, value) per CSV row, after checking row-major grid order."""
    rows = list(csv.DictReader(io.StringIO(out)))
    lengths, counts = refs["GRID_LENGTHS"], refs["GRID_COUNTS"]
    if len(rows) != len(lengths) * len(counts):
        raise ValueError(f"{len(rows)} grid rows, expected {len(lengths) * len(counts)}")
    cells = []
    for idx, row in enumerate(rows):
        r, c = divmod(idx, len(counts))
        label = (" ".join(map(str, lengths[r])), " ".join(map(str, counts[c])))
        if (row["m"], row["n"]) != label:
            raise ValueError(f"row {idx} is m={row['m']!r} n={row['n']!r}, expected {label}")
        cells.append((f"m={label[0]} n={label[1]}", float(row[column])))
    return cells


def _check_slem_grid(out: str, refs: dict) -> str | None:
    expected = [v for row in refs["EXPECTED_SLEM_GRID"] for v in row]
    for (label, got), want in zip(_grid_rows(out, refs, "slem"), expected):
        if abs(got - want) > 1e-4:
            return f"slem-grid {label}: {got} vs published {want} (tolerance 1e-4)"
    return None


def _check_kmax_grid(out: str, refs: dict) -> str | None:
    expected = [v for row in refs["EXPECTED_CORE_CAPACITY_GRID"] for v in row]
    for (label, got), want in zip(_grid_rows(out, refs, "k_max"), expected):
        if got != want:
            return f"kmax grid {label}: {got} vs published {want}"
    return None


def _check_sweep(out: str) -> str | None:
    document = json.loads(out)
    limit = document["k_max"]
    k_min, k_max = SWEEP_WINDOW
    if not k_min <= limit < k_max:
        return f"K_max={limit} does not split the window {k_min}..{k_max} into both regimes"
    (row,) = document["sweep"]
    closed = row["slem_closed_form"]
    if row["K"] > limit:
        if closed is not None:
            return f"K={row['K']} past K_max={limit} still reports a closed form"
        return None
    if closed is None:
        return f"K={row['K']} within K_max={limit} has no closed form"
    if abs(row["slem_numeric"] - closed) > 1e-3:
        return f"K={row['K']}: numeric {row['slem_numeric']} vs closed form {closed} (1e-3)"
    # Both are printed to 12 significant digits; allow last-digit rounding.
    if abs(row["slem_formula_weights"] - closed) > 1e-11:
        return f"K={row['K']}: formula-weight SLEM {row['slem_formula_weights']} != cos(theta) {closed}"
    return None


def _check_comparison(out: str, scheme: str, refs: dict) -> str | None:
    document = json.loads(out)
    want, tolerance = refs["EXPECTED_SCHEME_SLEM"][scheme]
    got = document["slem"][scheme]
    if abs(got - want) > tolerance:
        return f"{scheme} SLEM {got} vs published {want} (tolerance {tolerance})"
    fitted = document["fitted_decay"][scheme]
    rel = abs(math.log(fitted) - math.log(got)) / abs(math.log(got))
    if rel > 0.02:
        return f"{scheme} fitted decay {fitted} is {rel:.2%} from SLEM {got} in log (2%)"
    return None


def check_pass(workload: str, outputs: list[str]) -> str | None:
    """Checks that need the outputs of every command of one pass."""
    if workload != "consensus-sim":
        return None
    traces = {s: json.loads(out)["traces"][s] for s, out in zip(SCHEMES, outputs)}
    optimal = traces["optimal"]
    for scheme, trace in traces.items():
        for t in range(100, len(trace)):
            if optimal[t] > trace[t] + 1e-15:
                return f"optimal trace above {scheme} at t={t}: {optimal[t]} > {trace[t]}"
    return None


def _check_slem_below_one(out: str) -> str | None:
    document = json.loads(out)
    if not document["slem"] < 1.0:
        return f"{document['scheme']} SLEM {document['slem']} is not below 1"
    return None


def _check_validate(out: str) -> str | None:
    document = json.loads(out)
    bad = [c for c in document["checks"] if c["status"] not in ("pass", "skip")]
    if bad or not document["passed"]:
        return "validate checks failed: " + "; ".join(f"{c['name']}: {c['detail']}" for c in bad)
    return None


def _check_short_simulation(out: str) -> str | None:
    document = json.loads(out)
    for scheme, value in document["slem"].items():
        if not value < 1.0:
            return f"{scheme} SLEM {value} is not below 1"
        trace = document["traces"][scheme]
        if trace[0] != 1.0 or not all(math.isfinite(e) for e in trace) or not trace[-1] < 1.0:
            return f"{scheme} error trace does not start at 1 and decay"
    return None
