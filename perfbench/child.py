"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/child.py JOB.json`` with ``PYTHONPATH`` pointing at
the checkout's ``src``.  The child sets up what a CLI user pays for (import
``minkact.cli`` and build the catalog), prints ``ready``, then runs each
request of the job through ``minkact.cli.main`` with its output captured.
The job's ``result_out`` file receives, per request, the exit code, the
captured output and the start and end of the call, plus the child's peak
RSS.  With ``"trace": true`` the layer functions are wrapped first and the
span summary is added; the raw spans go to ``spans_out``.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_request(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call(f"cli.main.{argv[0]}", main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request, not a dead run
            code = "exception"
            traceback.print_exc()
        end = time.perf_counter()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "start": start, "end": end}


def main():
    with open(sys.argv[1]) as f:
        job = json.load(f)
    # plain import statements, so that ``-X importtime`` reports these modules
    import minkact.cli
    from minkact.catalog import catalog

    catalog()
    print("ready", flush=True)

    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for i, argv in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = i
        results.append(run_request(minkact.cli.main, argv, tracer))

    report = {
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        with open(job["spans_out"], "w") as f:
            json.dump(tracer.rows(), f)
    with open(job["result_out"], "w") as f:
        json.dump(report, f)


if __name__ == "__main__":
    main()
