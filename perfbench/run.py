"""Benchmark entry point: one workload, one run, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``plan-cold``  one cold ``plan()`` per operation;
* ``exec-hot``   one ``execute()`` of a cached plan on ``compiled``;
* ``serve-tcp``  one request to a plan-server child over TCP.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans go to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.  The exit code
is 0 only when every operation's output matched ``execute_sequential`` and
nothing leaked.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inprocess  # noqa: E402
import serve  # noqa: E402
from benchstats import host_factor, reference_loop_ms  # noqa: E402
from tracing import Tracer  # noqa: E402

#: workload -> (set-up, measured run, tear-down of a set-up-only probe
#: returning its failures)
WORKLOADS = {
    "plan-cold": (inprocess.setup_plan_cold, inprocess.run_plan_cold, lambda state: []),
    "exec-hot": (inprocess.setup_exec_hot, inprocess.run_exec_hot, lambda state: []),
    "serve-tcp": (serve.setup, serve.run, lambda state: serve.close(state)[1]),
}

#: Extra set-ups per untraced run, each in a fresh process; ``setup_s`` is
#: the median of these and the run's own set-up.
SETUP_PROBES = 6

#: Reference-loop samples taken right before and right after each set-up
#: to normalise it.
SETUP_REF_SAMPLES = 3

#: Every per-layer metric and its unit.  A workload reports the ones its
#: layers serve; the rest read 0 (the layer did no work in that workload).
PER_LAYER = {
    "core.select_ms": "ms",
    "core.build_ms.symbolic": "ms",
    "core.build_ms.recurrence-chains": "ms",
    "core.build_ms.dataflow": "ms",
    "core.build_ms.pdm": "ms",
    "core.build_ms.doacross": "ms",
    "core.probe_refused": "count",
    "core.probe_waste_ratio": "ratio",
    **{f"core.pick.{name}": "count" for name in inprocess.STRATEGIES},
    "core.plan_cache.hits": "count",
    "dependence.points": "count",
    "ir.fingerprint_ms": "ms",
    "analysis.features_ms": "ms",
    "analysis.feature_cache.hits": "count",
    "runtime.kernel_ms": "ms",
    "runtime.fallback_ms": "ms",
    "runtime.fallback_ratio": "ratio",
    "runtime.dispatch_ms": "ms",
    "runtime.instances": "count",
    "codegen.kernel_build_ms": "ms",
    "codegen.kernel_cache.misses": "count",
    "transport.wire_queue_ms": "ms",
    "transport.client_codec_ms": "ms",
    "transport.server_codec_ms": "ms",
    "transport.connect_ms": "ms",
    "transport.server_fds": "count",
    "serving.queue_wait_ms": "ms",
    "serving.plan_ms": "ms",
    "serving.exec_ms": "ms",
    "runtime.process_exec_ms": "ms",
    "serving.plan_cache_hit_ratio": "ratio",
    "serving.pool_reuse_ratio": "ratio",
    "serving.batch_size_mean": "count",
    "serving.queue_high_water": "count",
    "host.ref_ms": "ms",
    "raw.op_geomean_ms": "ms",
    "trace.overhead_pct": "%",
    "fail_ratio": "ratio",
}


def _timed_setup(setup, seed: int, tracer=None):
    """Set up once; returns ``(state, raw seconds, normalised seconds)``.

    A set-up is one stretch of seconds, so it is normalised by reference-loop
    samples taken around it rather than by the run's later samples.
    """
    refs = [reference_loop_ms() for _ in range(SETUP_REF_SAMPLES)]
    state, raw = setup(seed, tracer)
    refs += [reference_loop_ms() for _ in range(SETUP_REF_SAMPLES)]
    return state, raw, raw * host_factor(refs)


def _setup_probe(workload: str, seed: int):
    """``(raw, normalised)`` seconds of one more set-up in a fresh process,
    and the failures its tear-down found."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    return (probe["raw_s"], probe["setup_s"]), probe["failures"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up once and print the set-up time")
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup, measure, teardown = WORKLOADS[args.workload]

    if args.setup_probe:
        state, raw_s, setup_s = _timed_setup(setup, args.seed)
        failures = teardown(state)
        print(json.dumps({"raw_s": raw_s, "setup_s": setup_s, "failures": failures}))
        return 0

    tracer = Tracer() if args.trace else None
    state, raw_s, setup_s = _timed_setup(setup, args.seed, tracer)
    out = measure(state, args.seconds, bool(args.trace))
    run = out["run"]
    setups = [(raw_s, setup_s)]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            sample, failures = _setup_probe(args.workload, args.seed)
            setups.append(sample)
            run.failures.extend(failures)
    figures = run.figures()
    # The run's effective host factor: normalised over raw operation time.
    factor = figures["raw"]["ops_per_s"] / figures["normalised"]["ops_per_s"]
    peak_rss_mb = out.get("peak_rss_mb",
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    for why in run.failures[:20]:
        print(f"perfbench: FAIL {why}", file=sys.stderr)

    if args.trace:
        untraced = out["untraced"].figures()["normalised"]["op_geomean_ms"]
        layers = {name: 0 for name in PER_LAYER}
        for name, (value, _unit) in out["layers"].items():
            # Layer times are host-normalised like the end-to-end ones.
            layers[name] = value * factor if PER_LAYER[name] == "ms" else value
        layers["host.ref_ms"] = run.clock.ref_ms
        layers["raw.op_geomean_ms"] = figures["raw"]["op_geomean_ms"]
        layers["trace.overhead_pct"] = (
            figures["normalised"]["op_geomean_ms"] / untraced - 1) * 100
        layers["fail_ratio"] = failed / attempted
        metrics = {name: _metric(layers[name], unit) for name, unit in PER_LAYER.items()}
        Path(".perfbench").mkdir(exist_ok=True)
        tracer.write_jsonl(Path(".perfbench") / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        norm = figures["normalised"]
        metrics = {
            "setup_s": _metric(statistics.median(s for _, s in setups), "s"),
            "op_geomean_ms": _metric(norm["op_geomean_ms"], "ms"),
            "op_tail_ms": _metric(norm["op_tail_ms"], "ms"),
            "ops_per_s": _metric(norm["ops_per_s"], "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        print("# raw " + json.dumps({
            **figures["raw"], "setup_s": statistics.median(r for r, _ in setups),
            "setup_samples_s": setups, "host_ref_ms": run.clock.ref_ms,
            "global": figures["global"],
            "fail_ratio": failed / attempted, "ops": len(run.latencies)}))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
