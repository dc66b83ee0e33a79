"""A worker interpreter of one workload; started by run.py.

    worker.py serve --workload W --seed S [--trace SPANS] [--inputs DIR]
        Import picardfuchs, build the inputs and print one JSON line with the
        monotonic time at which it is ready and the item keys of the pass in
        seed order.  Then read item keys from
        standard input, one a line; for each, compute the item and print one
        JSON line: its compute time, output hash and check result.  At the end
        of input print {"end": true}, with the per-layer metrics of the items
        when --trace is given (spans are written to SPANS), and exit.
    worker.py cli --metrics PATH -- ARGS...
        Run `pf ARGS...` with the tracer installed and write its per-layer
        metrics to PATH.
    worker.py reference --workload W
        Print the output hash of every item any seed can produce.

The package comes from the directory that run.py puts on PYTHONPATH: `src`
of the checkout, or the frozen reference copy in perfbench/reference.
Nothing else is imported from outside the standard library.
"""

import argparse
import json
import sys
import time

import digest


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _hashed(rec):
    output = rec.pop("output")
    rec["hash"] = digest.item_hash(output) if output is not None else None
    return rec


def _serve(args):
    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    keys = workload.items(args.seed)
    if args.workload == "cli":
        workload.setup(keys, args.inputs)
        inputs = None
    else:
        inputs = workload.setup(keys)
    _emit({"ready_ns": time.monotonic_ns(), "keys": keys})
    if tracer:
        tracer.install()
    for line in sys.stdin:
        key = line.strip()
        _emit(_hashed(workloads.run_item(workload, key, inputs, tracer)))
    end = {"end": True}
    if tracer:
        tracer.write_spans(args.trace)
        end["layers"] = tracer_module.finish(tracer.raw_metrics())
    _emit(end)


def _reference(args):
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    keys = workload.universe()
    inputs = workload.setup(keys)
    out = {}
    for key in keys:
        rec = _hashed(workloads.run_item(workload, key, inputs))
        out[key] = {"hash": rec["hash"], "ok": rec["ok"], "error": rec["error"]}
    _emit(out)


def _cli(args):
    import tracer as tracer_module

    import picardfuchs.cli

    tracer = tracer_module.Tracer().install()
    tracer.start()
    code = 1
    try:
        code = picardfuchs.cli.main(args.pf_args)
    finally:
        tracer.stop()
        with open(args.metrics, "w") as fh:
            json.dump(tracer.raw_metrics(), fh)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", metavar="SPANS")
    p.add_argument("--inputs", metavar="DIR")
    p = sub.add_parser("reference")
    p.add_argument("--workload", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--metrics", required=True)
    p.add_argument("pf_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        if args.pf_args[:1] == ["--"]:
            args.pf_args = args.pf_args[1:]
        return _cli(args)
    if args.mode == "serve":
        _serve(args)
    else:
        _reference(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
