"""The benchmark's workloads and the correctness gate on their outputs.

Each workload is a fixed list of flaglab CLI commands, run in order, each
in a fresh process. Sizes are fixed; only the sampler seeds follow the
benchmark's --seed: a command whose default seed is d runs with
d + seed - 1, so --seed 1 reproduces the reference runs below.

The gate reads each command's exit code and its CSV. At every seed it
checks the verdict and the physical values; when a command's arguments
equal those of a reference run it also compares the key numbers with the
values that run gave, within the tolerances below. CSV bytes are not
compared: a change of engine may move flags at the 1e-15 level.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 1

# Tolerances against the reference numbers: wide enough for an engine that
# sums in another order, or one more accurate than the LAPACK level path,
# whose error in the small singular values grows with their spread; narrow
# enough to catch a wrong sweep, sample or count.
GAP_ATOL = 1e-6  # each min_gap of a certificate, in nats
SLOPE_ATOL = 1e-6  # box-counting slope
TRANSVERSALITY_RTOL = 1e-6  # min_transversality, relative
MC_FLIPS = 5  # Monte Carlo estimate: at most this many samples change side

TAU_PASS = 1e-3  # flaglab's hyperconvex pass threshold (fibers.TAU_PASS)
CANTOR_DIM = math.log(2.0) / math.log(3.0)
HEMISPHERE_SIGMAS = 4.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation, given by its argv."""

    argv: tuple[str, ...]

    @property
    def kind(self) -> str:
        """The subcommand, which names the CSV it writes."""
        return self.argv[0]

    @property
    def rep(self) -> str | None:
        """The representation argument, resolved during set-up."""
        return next((a for a in self.argv if a.startswith("builtin:")), None)

    @property
    def tag(self) -> str | None:
        """The builtin representation's name, which labels the spans."""
        return self.rep.split(":", 1)[1] if self.rep else None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    uses_cache: bool
    defaults: tuple[Command, ...]  # the commands at the default seed

    def commands(self, seed: int) -> list[Command]:
        return [_reseed(c, seed) for c in self.defaults]


def _reseed(cmd: Command, seed: int) -> Command:
    argv = list(cmd.argv)
    if "--seed" in argv:
        i = argv.index("--seed") + 1
        argv[i] = str(int(argv[i]) + seed - DEFAULT_SEED)
    return Command(tuple(argv))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-sweep",
            "both sides of gap_sweep's path choice: graded prefix tree (sym4) and batched LAPACK levels (schottky)",
            False,
            (
                Command(("certify", "builtin:sym4", "--k", "2", "--radius", "8")),
                Command(("certify", "builtin:schottky", "--k", "1", "--radius", "11")),
            ),
        ),
        Workload(
            "fiber-session",
            "fiber dimension then visual mass of one limit set: long-power sampling, projection, cache miss then hit",
            True,
            (
                Command(("dimension", "builtin:octagon-sym3", "--k", "1", "--mode", "fiber",
                         "--points", "2000", "--word-length", "10", "--seed", "1")),
                Command(("visualmass", "builtin:octagon-sym3", "--k", "1",
                         "--points", "2000", "--word-length", "10", "--seed", "1", "--mc", "200000")),
            ),
        ),
        Workload(
            "hyperconvex-sym4",
            "prerequisite sweep, flag pool, adversarial pair rejection sampling and triple scoring",
            False,
            (Command(("hyperconvex", "builtin:sym4", "--k", "2", "--triples", "4000", "--seed", "5")),),
        ),
        Workload(
            "sphere-synthetic",
            "control with no product SVD: box counting over 262144 points and a 1e6-point cap Monte Carlo",
            False,
            (
                Command(("dimension", "--synthetic", "cantor", "--points", "262144")),
                Command(("visualmass", "--synthetic", "hemisphere", "--mc", "1000000", "--seed", "2")),
            ),
        ),
    )
}

# Key numbers of each reference run (flaglab 0.1.0, default seeds).
REFERENCE = {
    WORKLOADS["certify-sweep"].defaults[0].argv: {
        "min_gaps": (
            1.3862943611198906, 2.379370903354116, 3.282449015948984, 4.305681914455434,
            5.327379899716637, 6.253328823489297, 7.143463565596087, 8.164933594554004,
        ),
    },
    WORKLOADS["certify-sweep"].defaults[1].argv: {
        "min_gaps": (
            1.3862943611198906, 2.3793709033541317, 3.2824490159489494, 4.3056819144554268,
            5.3273798997143906, 6.2533288234868358, 7.1434635655958463, 8.1649335944596793,
            9.1864029341142128, 10.112324463102102, 11.00245344314596,
        ),
    },
    WORKLOADS["fiber-session"].defaults[0].argv: {"slope": 1.0070232034833406},
    WORKLOADS["fiber-session"].defaults[1].argv: {"estimate": 0.04949},
    WORKLOADS["hyperconvex-sym4"].defaults[0].argv: {
        "min_transversality": 0.24780434919820732,
        "triples_tested": 3741,
    },
    WORKLOADS["sphere-synthetic"].defaults[0].argv: {"slope": 0.63631538188606007},
    WORKLOADS["sphere-synthetic"].defaults[1].argv: {"estimate": 0.501029},
}


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")][1:]


def parse_output(kind: str, out_dir: str) -> dict:
    """The verdict and key numbers of a command's CSV."""
    rows = _rows(os.path.join(out_dir, f"{kind}.csv"))
    if kind == "certify":
        return {"verdict": rows[0][6], "min_gaps": [float(r[2]) for r in rows]}
    if kind == "dimension":
        summary = rows[-1]
        ci, verdict = summary[2].split(";")
        return {"verdict": verdict, "slope": float(summary[1]), "ci": float(ci)}
    if kind == "hyperconvex":
        row = rows[0]
        return {
            "verdict": row[8],
            "triples_tested": int(row[2]),
            "min_transversality": float(row[4]),
        }
    if kind == "visualmass":
        row = rows[0]
        return {"estimate": float(row[0]), "sigma": float(row[1]), "mc": int(row[3])}
    raise ValueError(f"unknown command kind {kind}")


EXPECTED_VERDICT = {"certify": "certified", "dimension": "below_2", "hyperconvex": "passes"}


def check(cmd: Command, rc, out_dir: str) -> list[str]:
    """Problems with one finished command; empty when it passed the gate."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        got = parse_output(cmd.kind, out_dir)
    except (OSError, IndexError, ValueError) as exc:
        return [f"unreadable {cmd.kind}.csv: {exc}"]
    return check_values(cmd, got)


def check_values(cmd: Command, got: dict) -> list[str]:
    problems = []
    want = EXPECTED_VERDICT.get(cmd.kind)
    if want is not None and got["verdict"] != want:
        problems.append(f"verdict {got['verdict']}, expected {want}")
    problems += _physical(cmd, got)
    ref = REFERENCE.get(cmd.argv)
    if ref is not None:
        problems += _against_reference(got, ref)
    return problems


def _physical(cmd: Command, got: dict) -> list[str]:
    out = []
    if cmd.kind == "certify":
        if not all(math.isfinite(g) and g > 0 for g in got["min_gaps"]):
            out.append(f"min_gaps not finite and positive: {got['min_gaps']}")
    elif cmd.kind == "dimension":
        if not (0.0 < got["slope"] < 2.0 and math.isfinite(got["ci"])):
            out.append(f"slope {got['slope']} +- {got['ci']} outside (0, 2)")
        if "cantor" in cmd.argv and abs(got["slope"] - CANTOR_DIM) > got["ci"]:
            out.append(f"cantor slope {got['slope']} +- {got['ci']} misses log2/log3")
    elif cmd.kind == "hyperconvex":
        triples = int(cmd.argv[cmd.argv.index("--triples") + 1])
        if not TAU_PASS <= got["min_transversality"] <= 1.0:
            out.append(f"min_transversality {got['min_transversality']} outside [tau, 1]")
        if not 1 <= got["triples_tested"] <= triples:
            out.append(f"{got['triples_tested']} triples tested of {triples}")
    elif cmd.kind == "visualmass":
        est, sigma, mc = got["estimate"], got["sigma"], got["mc"]
        if "hemisphere" in cmd.argv:
            if abs(est - 0.5) > HEMISPHERE_SIGMAS * math.sqrt(0.25 / mc):
                out.append(f"hemisphere mass {est} not within 4 sigma of 0.5")
        elif not (0.0 < est < 1.0 and sigma > 0.0):
            out.append(f"mass {est} +- {sigma} not a probability")
    return out


def _against_reference(got: dict, ref: dict) -> list[str]:
    out = []
    if "min_gaps" in ref:
        gaps = got["min_gaps"]
        if len(gaps) != len(ref["min_gaps"]) or any(
            abs(a - b) > GAP_ATOL for a, b in zip(gaps, ref["min_gaps"])
        ):
            out.append(f"min_gaps {gaps} differ from reference by more than {GAP_ATOL}")
    if "slope" in ref and abs(got["slope"] - ref["slope"]) > SLOPE_ATOL:
        out.append(f"slope {got['slope']} differs from reference {ref['slope']}")
    if "estimate" in ref and abs(got["estimate"] - ref["estimate"]) > MC_FLIPS / got["mc"]:
        out.append(f"mass {got['estimate']} differs from reference {ref['estimate']}")
    if "min_transversality" in ref:
        a, b = got["min_transversality"], ref["min_transversality"]
        if abs(a - b) > TRANSVERSALITY_RTOL * abs(b):
            out.append(f"min_transversality {a} differs from reference {b}")
        if got["triples_tested"] != ref["triples_tested"]:
            out.append(f"{got['triples_tested']} triples tested, reference {ref['triples_tested']}")
    return out
