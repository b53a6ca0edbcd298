"""Command-line surface: certify, hyperconvex, foliate, dimension,
crossratio, visualmass, replay.

Each command fills one Run (the representation it resolves, the files it
writes, the counts it reports), and main writes it as the manifest JSON
beside the CSV.  Re-running a manifest (replay) reproduces the CSV byte
for byte, stochastic steps included, because every sampler is seeded and
every float is formatted with a fixed rule; replay compares each output
with the digest its manifest records.  Exit codes (VERDICT_EXIT):
0 pass/certified/below_2, 2 refuted/fails, 3 inconclusive/not_below_2.
An error's class alone picks its code (main): 64 InputError (usage or
malformed input), 5 NotAnosovError (unmet Anosov prerequisites), 3 every
other FlaglabError (a numerical or size limit).  A replay whose outputs
differ from the recorded digests exits 4.  Only a verdict exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, boxdim, words as W
from .certify import R2_THRESHOLD, SLOPE_THRESHOLD, budget, certificates, limit_set_sample
from .errors import FlaglabError, InputError, NotAnosovError, PrecisionError
from .fibers import (
    TripleSpec,
    check_transversality,
    fiber_ks,
    foliated_limit_sample,
    grassmann_charts,
    tangent_project,
)
from .mobius import INF, sphere_xyz
from .reps import Representation, preset, preset_names
from .sphere import VisualMeasure, cross_ratio, visual_mass
from .words import GroupPresentation, free_group, surface_group

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_DIFFERS = 4
EXIT_PREREQ = 5
EXIT_USAGE = 64
# only a verdict exits 2; one not named here (inconclusive, not_below_2) exits 3
VERDICT_EXIT = {"certified": EXIT_OK, "passes": EXIT_OK, "below_2": EXIT_OK,
                "refuted": EXIT_FAIL, "fails": EXIT_FAIL}


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _floats(text: str, option: str, count: int | None = None) -> list[float]:
    """Parse a comma-separated option value; the option itself stays a
    string, so the manifest can replay it."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{option} takes comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise InputError(f"{option} takes finite numbers, got {text!r}")
    if count is not None and len(values) != count:
        raise InputError(f"{option} takes {count} comma-separated numbers, got {text!r}")
    return values


def _finite(text: str) -> float:
    """argparse type of a one-number option, read by the rule of _floats."""
    try:
        return _floats(text, "the option", 1)[0]
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low: int):
    """argparse type of an integer option that must be >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every other error; --help prints the usage
        sys.stderr.write(f"input error: {message} (see {self.prog} --help)\n")
        raise SystemExit(EXIT_USAGE)


# --- representation files ---------------------------------------------------


def rep_digest(rep: Representation) -> str:
    h = hashlib.sha256()
    h.update(repr((rep.dim, rep.presentation)).encode())
    for g in rep.generators:
        h.update(np.ascontiguousarray(g).tobytes())
    return h.hexdigest()[:16]


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}")


def load_rep_file(path: str) -> Representation:
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise InputError(f"{path}: expected an object with \"format\": 1")
    try:
        d = int(doc["dim"])
        pres_doc = doc["presentation"]
        kind = pres_doc["kind"]
        if kind == "free":
            pres = free_group(int(pres_doc["rank"]))
        elif kind == "surface":
            rels = [tuple(int(x) for x in r) for r in pres_doc["relations"]]
            if len(rels) != 1:
                raise InputError(f"{path}: a surface presentation takes one relation, got {len(rels)}")
            pres = surface_group(int(pres_doc["genus"]), rels[0])
        else:
            rels = tuple(tuple(int(x) for x in r) for r in pres_doc.get("relations", []))
            pres = GroupPresentation(generator_count=int(pres_doc["rank"]), kind="custom", relations=rels)
        mats = []
        for gen in doc["generators"]:
            if any(len(e) != 2 for row in gen for e in row):
                raise InputError(f"{path}: a matrix entry is not a [re, im] pair")
            rows = [[complex(e[0], e[1]) for e in row] for row in gen]
            m = np.array(rows, dtype=complex)
            if m.shape != (d, d):
                raise InputError(f"{path}: generator matrix is not {d}x{d}")
            mats.append(m)
        return Representation(pres, mats, label=doc.get("label", os.path.basename(path)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad representation document ({exc})")


def resolve_rep(spec: str) -> tuple[Representation, str]:
    """Returns (representation, input descriptor for the manifest)."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        return preset(name), spec
    rep = load_rep_file(spec)
    return rep, f"file:{spec}:sha256:{rep_digest(rep)}"


# --- manifests ---------------------------------------------------------------


class Run:
    """The record of one command run that main writes as its manifest."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()  # monotonic: a clock reset moves no wall time
        self.inputs: dict = {}
        self.outputs: list[str] = []
        self.results: dict = {}  # counts reported beside the CSV

    def rep(self, spec: str | None) -> Representation:
        if not spec:  # dimension and visualmass take --synthetic instead
            raise InputError(f"{self.args.command} needs a representation or --synthetic")
        rep, self.inputs["rep"] = resolve_rep(spec)
        return rep

    def table(self, header: str, columns: list[str], rows: list[list[str]]) -> None:
        self.outputs.append(emit(self.args, header, columns, rows))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(run: Run) -> None:
    """Write {command}.manifest.json for a finished run (replay reads
    command, params and the representation file's digest in inputs)."""
    args = run.args
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "seeds": [args.seed] if hasattr(args, "seed") else [],
        "version": __version__,
        "numpy": np.__version__,
        "inputs": run.inputs,
        "outputs": run.outputs,
        "digests": {path: _sha256(path) for path in run.outputs},
        "results": run.results,
        "wall_time_s": round(time.perf_counter() - run.started, 3),
    }
    path = os.path.join(args.out, f"{args.command}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit(args, header: str, columns: list[str], rows: list[list[str]]) -> str:
    """Write the subcommand's result table as CSV (default) or JSON per --format."""
    path = os.path.join(args.out, f"{args.command}.{args.format}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if args.format == "json":
            doc = {"schema": header, "rows": [dict(zip(columns, row)) for row in rows]}
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(f"# {header}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    return path


# --- svg ---------------------------------------------------------------------


def write_svg(path: str, values: list[complex], infinities: int, markers: dict[str, complex]):
    """Point cloud in the plane chart; presentation only, no data round trip."""
    finite = [v for v in values if abs(v) < 20.0]
    xs = [v.real for v in finite] or [0.0]
    ys = [v.imag for v in finite] or [0.0]
    lo = min(min(xs), min(ys), -1.5)
    hi = max(max(xs), max(ys), 2.5)
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    size = 640.0
    scale = size / (hi - lo)

    def px(z: complex) -> tuple[float, float]:
        return (z.real - lo) * scale, size - (z.imag - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for v in finite:
        x, y = px(v)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="#1f4e9c" fill-opacity="0.7"/>')
    for name, z in markers.items():
        if name == "inf":
            parts.append(
                f'<text x="{size - 60:.0f}" y="24" font-size="15" fill="#b02020">'
                f"inf ({infinities} pts)</text>"
            )
            continue
        x, y = px(z)
        parts.append(
            f'<g stroke="#b02020" stroke-width="2">'
            f'<line x1="{x - 6:.1f}" y1="{y:.1f}" x2="{x + 6:.1f}" y2="{y:.1f}"/>'
            f'<line x1="{x:.1f}" y1="{y - 6:.1f}" x2="{x:.1f}" y2="{y + 6:.1f}"/></g>'
        )
        parts.append(f'<text x="{x + 8:.1f}" y="{y - 8:.1f}" font-size="14" fill="#b02020">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# --- commands ----------------------------------------------------------------


def cmd_certify(args, run: Run) -> int:
    [cert] = certificates(run.rep(args.rep), [args.k], args.radius, args.slope_threshold, args.r2_threshold)
    rows = [
        [str(cert.k), str(n), fmt(g), fmt(cert.c1), fmt(cert.c2), fmt(cert.r_squared), cert.verdict]
        for n, g in zip(cert.lengths, cert.min_gaps)
    ]
    run.table("flaglab certificate v1", ["k", "length", "min_gap", "c1", "c2", "r2", "verdict"], rows)
    for note in cert.notes:
        print(f"note: {note}")
    print(f"certify {args.rep} k={args.k} radius={cert.radius}: {cert.verdict} "
          f"(c1={cert.c1:.4f}, c2={cert.c2:.4f}, R2={cert.r_squared:.4f})")
    return VERDICT_EXIT.get(cert.verdict, EXIT_INCONCLUSIVE)


def cmd_hyperconvex(args, run: Run) -> int:
    spec = TripleSpec(count=args.triples, seed=args.seed, word_length=args.word_length,
                      pool_size=args.pool, tau=args.tau)
    report = check_transversality(run.rep(args.rep), args.k, spec,
                                  None if args.assume_anosov else args.radius, args.mode)
    run.table(
        "flaglab hyperconvex v1",
        ["mode", "k", "triples_tested", "skipped", "min_transversality", "worst_x", "worst_y", "worst_z", "verdict"],
        [[
            report.mode,
            str(report.k),
            str(report.triples_tested),
            str(report.skipped),
            fmt(report.min_transversality),
            W.word_to_str(report.worst_triple[0]),
            W.word_to_str(report.worst_triple[1]),
            W.word_to_str(report.worst_triple[2]),
            report.verdict,
        ]],
    )
    run.results = {"skip_reasons": report.skip_reasons, "sample_failures": report.sample_failures}
    print(f"hyperconvex {args.rep} k={args.k} mode={args.mode}: {report.verdict} "
          f"(min={report.min_transversality:.6f} over {report.triples_tested} triples)")
    return VERDICT_EXIT.get(report.verdict, EXIT_INCONCLUSIVE)


def cmd_foliate(args, run: Run) -> int:
    sample = foliated_limit_sample(run.rep(args.rep), args.k, args.bases, args.fibers, args.seed,
                                   args.word_length)
    rows = []
    for r in sample.rows:
        rows.append([
            W.word_to_str(r.base_word),
            W.word_to_str(r.fiber_word),
            fmt(r.value.real),
            fmt(r.value.imag),
            "1" if r.at_infinity else "0",
            sample.base_status.get(r.base_word, ""),
        ])
    run.table(
        "flaglab foliate v1",
        ["base_word", "fiber_source_word", "re", "im", "is_infinity", "base_status"],
        rows,
    )
    if args.svg:
        os.makedirs(args.svg, exist_ok=True)
        by_base: dict = {}
        for r in sample.rows:
            by_base.setdefault(r.base_word, []).append(r)
        for base_word, rws in by_base.items():
            values = [r.value for r in rws if not r.at_infinity]
            n_inf = sum(1 for r in rws if r.at_infinity)
            svg_path = os.path.join(args.svg, f"fiber_{W.word_to_str(base_word)}.svg")
            write_svg(svg_path, values, n_inf, {"0": 0j, "1": 1 + 0j, "inf": INF})
            run.outputs.append(svg_path)
    print(f"foliate {args.rep} k={args.k}: {len(sample.rows)} fiber points over "
          f"{len(sample.base_status)} bases; basepoints "
          f"{[W.word_to_str(w) for w in sample.basepoint_words]}")
    return EXIT_OK


def _fiber_cloud(rep, k, count, length, seed):
    """Tangent-project a limit-set sample of count >= 1 flags into the fiber
    of one extra base, as unit vectors (sphere_xyz).  A base with no fiber
    frame raises tangent_project's PrecisionError."""
    flags, _ = limit_set_sample(rep, fiber_ks(rep.dim, k), count + 1, length, seed)
    pairs, _ = tangent_project(flags[0], flags[1:], k)
    if len(pairs) == 0:
        raise PrecisionError(f"none of {count} flags projected into the fiber")
    return sphere_xyz(pairs)


def cmd_dimension(args, run: Run) -> int:
    scales = _floats(args.scales, "--scales") if args.scales else None
    if args.synthetic:
        levels = max(2, math.ceil(math.log2(args.points)))
        # box counting's traced peak per point (cloud, barycentrics, cell keys):
        # 98-107 bytes at 1e5-2.6e5 points
        budget(1 << levels if args.synthetic == "cantor" else args.points, 256, f"--points {args.points}")
        if args.synthetic == "circle":
            pts = boxdim.circle_cloud(args.points)
        elif args.synthetic == "cantor":
            pts = boxdim.cantor_cloud(levels)
        else:
            pts = boxdim.uniform_cloud(args.points, seed=args.seed)
        run.inputs["synthetic"] = args.synthetic
        est = boxdim.box_dimension_sphere(pts, scales=scales)
    else:
        rep = run.rep(args.rep)
        if args.mode == "fiber":
            pts = _fiber_cloud(rep, args.k, args.points, args.word_length, args.seed)
            est = boxdim.box_dimension_sphere(pts, scales=scales)
        else:
            ks = fiber_ks(rep.dim, args.k)
            flags, _ = limit_set_sample(rep, ks, args.points + args.anchors, args.word_length, args.seed)
            anchors, cloud = flags[: args.anchors], flags[args.anchors :]
            charts, uncovered = grassmann_charts(cloud, args.k, anchors)
            while uncovered and len(anchors) < 4 * args.anchors:
                # one fresh anchor sample per pass; the cloud never changes
                anchors, _ = limit_set_sample(rep, ks, 2 * len(anchors), args.word_length, args.seed + 1000)
                charts, uncovered = grassmann_charts(cloud, args.k, anchors)
            if uncovered:
                names = ", ".join(W.word_to_str(cloud.sources[i]) for i in uncovered[:8])
                raise InputError(
                    f"{len(uncovered)} flags covered by none of {len(anchors)} charts: {names}"
                )
            est = boxdim.grassmann_dimension(charts, scales=scales)
    rows = [[fmt(s), str(c), args.synthetic or args.mode] for s, c in zip(est.scales, est.counts)]
    verdict = "below_2" if est.verdict_below(2.0) else "not_below_2"
    rows.append(["summary", fmt(est.slope), f"{fmt(est.ci_halfwidth)};{verdict}"])
    run.table("flaglab dimension v1", ["scale", "count", "chart_id"], rows)
    for wmsg in est.warnings:
        print(f"warning: {wmsg}")
    print(f"dimension: slope={est.slope:.4f} +- {est.ci_halfwidth:.4f} ({verdict}, "
          f"{est.n_points} points)")
    if est.chart_breakdown:
        for name, s in sorted(est.chart_breakdown.items()):
            print(f"  chart {name}: slope {s:.4f}")
    return VERDICT_EXIT.get(verdict, EXIT_INCONCLUSIVE)


def _parse_point(text: str) -> complex:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise InputError(f"not a complex number or inf: {text!r}")


def cmd_crossratio(args, run: Run) -> int:
    value = cross_ratio(
        _parse_point(args.z1), _parse_point(args.z2), _parse_point(args.z3), _parse_point(args.z4)
    )
    if math.isinf(value.real) or math.isinf(value.imag):
        print("inf")
    else:
        print(f"{fmt(value.real)}{'+' if value.imag >= 0 else '-'}{fmt(abs(value.imag))}j")
    return EXIT_OK


def cmd_visualmass(args, run: Run) -> int:
    # the Monte Carlo sample's traced peak per point (images, cube keys): 65 bytes at 1e6
    budget(args.mc, 128, f"--mc {args.mc}")
    if args.synthetic == "hemisphere":
        cloud = np.array([[0.0, 0.0, 1.0]])  # cap of radius pi/2 around the pole
        eps = math.pi / 2.0
    else:
        cloud = _fiber_cloud(run.rep(args.rep), args.k, args.points, args.word_length, args.seed)
        eps = args.eps
    base = _floats(args.basepoint, "--basepoint", 3)
    nu = VisualMeasure(complex(base[0], base[1]), base[2])
    est = visual_mass(nu, cloud, eps, mc_count=args.mc, seed=args.seed)
    run.table(
        "flaglab visualmass v1",
        ["estimate", "sigma", "eps", "mc_count", "seed"],
        [[fmt(est.estimate), fmt(est.sigma), fmt(eps), str(est.mc_count), str(est.seed)]],
    )
    print(f"visual mass: {est.estimate:.6f} +- {est.sigma:.6f} (eps={eps:.4f}, mc={est.mc_count})")
    return EXIT_OK


def cmd_presets(args, run: Run) -> int:
    for name in preset_names():
        print(name)
    return EXIT_OK


def cmd_replay(args, run: Run) -> int:
    """Re-run a manifest's command into --out.  Every output goes there: a
    recorded --svg directory is taken by its last name under --out, so a
    replay never writes over the run it replays.  A representation file
    whose digest is not the recorded one is refused before anything runs.
    Once the command returns, each output it wrote is compared with the
    digest recorded for the output at the same position: any difference
    exits EXIT_DIFFERS, and otherwise the exit code is the run's."""
    manifest = _read_json(args.manifest)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("params"), dict)
            and isinstance(manifest.get("command"), str)):
        raise InputError(f"{args.manifest}: not a flaglab run manifest")
    if manifest.get("version") != __version__:
        print(f"note: manifest written by flaglab {manifest.get('version')}, replayed by {__version__}: "
              "outputs may differ as the README's replay notes say")
    params = {k: v for k, v in manifest["params"].items() if k != "out"}
    inputs = manifest.get("inputs")
    was = str(inputs.get("rep", "")) if isinstance(inputs, dict) else ""
    if was.startswith("file:"):  # file:PATH:sha256:DIGEST, as resolve_rep records it
        now = resolve_rep(str(params.get("rep")))[1]
        if now != was:
            raise InputError(f"{params.get('rep')}: representation digest {now.rsplit(':', 1)[1]} is not "
                             f"the recorded {was.rsplit(':', 1)[1]}; the file changed since the run")
    argv = [manifest["command"]]
    if "rep" in params and params["rep"]:
        argv.append(params.pop("rep"))
    if params.get("svg"):
        params["svg"] = os.path.join(args.out, os.path.basename(os.path.abspath(params["svg"])))
    for key, value in sorted(params.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")  # a value may start with "-"
    argv.extend(["--out", args.out])
    code, replayed = _execute(argv)  # a command that fails raises: nothing is compared
    recorded = manifest.get("digests")
    if not isinstance(recorded, dict):
        print("note: the manifest records no digests (flaglab before 0.19.0): no output was compared")
        return code
    differs = [(new, old) for new, old in itertools.zip_longest(replayed.outputs, manifest.get("outputs") or [])
               if new is None or old is None or _sha256(new) != recorded.get(old)]
    for new, old in differs:
        print(f"replay: {new or 'no output'} differs from the recorded {old or 'no output'}", file=sys.stderr)
    return EXIT_DIFFERS if differs else code


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="flaglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep=True, seeded=True):
        if rep:
            p.add_argument("rep", help="builtin:NAME or path to a representation JSON file")
        p.add_argument("--out", default=".", help="output directory (default .)")
        if seeded:
            # NumPy's SeedSequence takes no negative seed
            p.add_argument("--seed", type=_at_least(0), default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="machine-readable output format")

    p = sub.add_parser("certify", help="gap-growth certificate over a word ball")
    common(p, seeded=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--slope-threshold", type=_finite, default=SLOPE_THRESHOLD)
    p.add_argument("--r2-threshold", type=_finite, default=R2_THRESHOLD)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("hyperconvex", help="triple transversality sweep")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("eq1", "Hk"), default="eq1")
    p.add_argument("--triples", type=int, default=TripleSpec.count)
    p.add_argument("--radius", type=int, default=5, help="radius for prerequisite certificates")
    p.add_argument("--word-length", type=int, default=TripleSpec.word_length)
    p.add_argument("--pool", type=int, default=TripleSpec.pool_size)
    p.add_argument("--tau", type=_finite, default=TripleSpec.tau)
    p.add_argument("--assume-anosov", action="store_true")
    p.set_defaults(func=cmd_hyperconvex)

    p = sub.add_parser("foliate", help="trivialized fiber limit sets over sampled bases")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bases", type=_at_least(1), default=1)
    p.add_argument("--fibers", type=_at_least(1), default=500)
    p.add_argument("--word-length", type=int, default=8)
    p.add_argument("--svg", default=None, help="directory for per-base SVG clouds")
    p.set_defaults(func=cmd_foliate)

    p = sub.add_parser("dimension", help="box-counting dimension of a limit-set sample")
    common(p, rep=False)
    p.add_argument("rep", nargs="?", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", choices=("fiber", "grassmann"), default="fiber")
    p.add_argument("--synthetic", choices=("circle", "cantor", "uniform"), default=None)
    p.add_argument("--points", type=_at_least(1), default=2000)
    p.add_argument("--anchors", type=_at_least(1), default=3)
    p.add_argument("--word-length", type=int, default=10)
    p.add_argument("--scales", default=None, help="comma-separated cell sizes in radians")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("crossratio", help="cross-ratio of four sphere points")
    p.add_argument("z1"); p.add_argument("z2"); p.add_argument("z3"); p.add_argument("z4")
    p.set_defaults(func=cmd_crossratio)

    p = sub.add_parser("visualmass", help="Monte-Carlo visual measure of a thickened cloud")
    common(p, rep=False)
    p.add_argument("rep", nargs="?", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--synthetic", choices=("hemisphere",), default=None)
    p.add_argument("--points", type=_at_least(1), default=500)
    p.add_argument("--word-length", type=int, default=8)
    p.add_argument("--eps", type=_finite, default=0.05)
    p.add_argument("--mc", type=_at_least(1000), default=100000)
    p.add_argument("--basepoint", default="0,0,1", help="upper-half-space x,y,t")
    p.set_defaults(func=cmd_visualmass)

    p = sub.add_parser("presets", help="list builtin representations")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("replay", help="re-execute a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_replay)
    return parser


def _execute(argv) -> tuple[int, Run]:
    """Run argv's command: its exit code, and the Run it filled.  A
    rejected argv raises the parser's SystemExit, and a failed command
    its error, for main to turn into an exit code."""
    args = build_parser().parse_args(argv)
    run = Run(args)
    os.makedirs(getattr(args, "out", "."), exist_ok=True)
    code = args.func(args, run)
    if run.outputs:
        write_manifest(run)
    return code, run


def main(argv=None) -> int:
    try:
        return _execute(argv)[0]
    except SystemExit as exc:  # a rejected argument (64) or --help (0)
        return exc.code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlaglabError as exc:
        # unmet Anosov prerequisites, or else a numerical or size limit that
        # says nothing about the representation: exit 2 is left to verdicts
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PREREQ if isinstance(exc, NotAnosovError) else EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
