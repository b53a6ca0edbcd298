"""Run one flaglab command in this (fresh) process and time it from inside.

    python3 child.py --result R.json [--rep SPEC] [--setup-only] [--env]
                     [--spans S.json] -- ARGV...

Set-up ends once flaglab is imported and the command's representation
(--rep, a builtin:NAME or file spec) is resolved; its monotonic time is
written as "ready", to be compared with the parent's spawn time. Then
flaglab.cli.main(ARGV) runs and its duration is written as "main_s".
With --spans the layer functions are wrapped first (see spans.py) and the
recorded spans are written to that file after main returns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback


def _environment() -> dict:
    import numpy as np

    env = {"python": sys.version.split()[0], "numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return env


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--rep", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    from flaglab import cli

    if opts.rep is not None:
        cli.resolve_rep(opts.rep)
    result = {"ready": time.monotonic()}
    if opts.env:
        result["env"] = _environment()
    if not opts.setup_only:
        recorder = None
        if opts.spans:
            import spans

            recorder = spans.Recorder()
            result["missing_targets"] = spans.install(recorder)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            result["raised"] = traceback.format_exc(limit=4)
        result["main_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if recorder is not None:
            with open(opts.spans, "w", encoding="utf-8") as fh:
                json.dump(recorder.spans, fh)
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
