"""Fresh-interpreter helpers of the benchmark.

    python3 perfbench/child.py setup WORKLOAD
        Import netmoments and run one warm-up operation under the speed
        sampler; print one JSON line with the monotonic time at the end, the
        seconds spent making the input and the speed samples.
    python3 perfbench/child.py cli SPEEDFILE CLI-ARGS...
        Run one CLI command under the speed sampler, as `python -m
        netmoments.cli CLI-ARGS` would, and write the samples to SPEEDFILE.
    python3 perfbench/child.py trace SPANFILE CLI-ARGS...
        Run one CLI command with spans recorded, then write them to SPANFILE.
"""

from __future__ import annotations

import json
import sys
import time

from speed import Sampler


def setup(workload):
    with Sampler() as sampler:
        import contextlib
        import io

        import inputs
        import workloads
        t0 = time.monotonic()
        graph = {"esu-o5": inputs.esu_warmup_graph,
                 "batch-o3": inputs.batch_warmup_graph}.get(
                     workload, lambda: None)()
        gen_s = time.monotonic() - t0
        workloads.use_source()
        if workload == "cli-cold":
            import netmoments.cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = netmoments.cli.main(list(inputs.CLI_WARMUP))
            if code != 0:
                raise SystemExit(f"warm-up command exited with {code}")
        else:
            from netmoments import make_graph
            op = workloads.esu_op if workload == "esu-o5" \
                else workloads.batch_op
            op(make_graph(graph[1], graph[2]))
        done = time.monotonic()
    print(json.dumps({"done": done, "gen_s": gen_s,
                      "samples": sampler.samples}))


def cli(speedfile, argv):
    with Sampler() as sampler:
        import netmoments.cli
        code = netmoments.cli.main(argv)
        sys.stdout.flush()
    with open(speedfile, "w") as fh:
        json.dump(sampler.samples, fh)
    return code


def trace(spanfile, argv):
    import workloads
    from tracer import Tracer, cache_stats
    workloads.use_source()
    import netmoments.cli
    t_import = time.monotonic()
    tracer = Tracer()
    with tracer.instrument():
        code = netmoments.cli.main(argv)
    sys.stdout.flush()
    with open(spanfile, "w") as fh:
        json.dump({"t_import": t_import, "spans": tracer.spans,
                   "cache": cache_stats()}, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    elif mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
