"""One workload iteration in a fresh interpreter: set up, run the workload's
CLI commands, check what they wrote, and write a result document.

    python3 perfbench/child.py --workload NAME --seed N --work DIR --result FILE
                               [--setup-only] [--trace]

Set-up ends once slim is imported, the scenario document is generated from
the seed and resolved. The parent measures set-up from the moment it starts
this process, so ``setup_done`` is a time.monotonic() reading, a clock shared
by every process on the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def _call_cli(main, argv: list[str], log) -> int:
    """Exit code of one CLI call; an escaping exception counts as exit 1."""
    try:
        with contextlib.redirect_stdout(log):
            return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        log.write(traceback.format_exc())
        return 1


def main(argv=None) -> int:
    args = _args(argv)
    work = Path(args.work)

    import numpy
    import slim.cli
    import slim.config
    import slim.model

    tracer = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}-{args.seed}")
        tracer.install()

    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "scenario.json"
    cfg_path.write_text(json.dumps(workloads.config_doc(args.workload, args.seed)))
    slim.config.load_scenario(cfg_path)
    result = {"setup_done": time.monotonic()}

    if not args.setup_only:
        out = work / "out"
        rcs, cmd_s, decode_ms = {}, {}, []
        with open(work / "cli.log", "w") as log:
            t_run = time.perf_counter()
            for cmd in workloads.WORKLOADS[args.workload]["commands"]:
                argv_cmd = [cmd, "--config", str(cfg_path), "--out", str(out)]
                t_cmd = time.perf_counter()
                if tracer is not None:
                    main_fn = tracer.wrap(f"cli.{cmd}", slim.cli.main)
                    rcs[cmd] = _call_cli(main_fn, argv_cmd, log)
                elif cmd == "infer":
                    # only this method is wrapped, to time each decode step
                    timer, decoder = spans.Tracer(run_id="decode"), slim.model.Decoder
                    original = vars(decoder)["decode_step"]
                    decoder.decode_step = timer.wrap("model.Decoder.decode_step", original)
                    try:
                        rcs[cmd] = _call_cli(slim.cli.main, argv_cmd, log)
                    finally:
                        decoder.decode_step = original
                    decode_ms = [(end - start) * 1e-6
                                 for _, _, _, _, start, end, _, _ in timer.spans]
                else:
                    rcs[cmd] = _call_cli(slim.cli.main, argv_cmd, log)
                cmd_s[cmd] = time.perf_counter() - t_cmd
            result["run_s"] = time.perf_counter() - t_run

        if args.workload == "train-infer":
            checks = workloads.check_train_infer(out, rcs)
        else:
            checks = workloads.check_simulation(args.workload, out, rcs)
        digests = {}
        for name in workloads.WORKLOADS[args.workload]["outputs"]:
            path = out / name
            digests[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                             if path.exists() else "missing")
        result.update(rcs=rcs, cmd_s=cmd_s, decode_ms=decode_ms, checks=checks,
                      digests=digests)
        if tracer is not None:
            tracer.dump(work / "spans.jsonl")
            result["spans_file"] = str(work / "spans.jsonl")

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0], numpy=numpy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
