"""One benchmark session, run in a fresh child process.

    python3 session.py --src SRC --script FILE --out FILE [--workload NAME]
                       [--cache-dir DIR] [--trace | --reference] [--setup-only]

Imports `ordclass.cli` from SRC, builds one `Session`, feeds the script's
lines one at a time to `run_command` and writes a JSON result to --out:
set-up time, per-command wall times, answers, output digest, peak RSS and,
with --trace, the per-layer counters of tracer.py.  With --reference, a
chunk of the reference kernel (calib.py) runs every REFERENCE_EVERY_S of
wall time, inside commands or between them; its times are reported with
the index of the command it interrupted or followed, and are left out of
the commands' times.  Output checks that need
the program's own parser (answers that must re-parse to themselves) run
after the timed part and outside the trace; --workload names the workload
whose payloads and re-parse checks (workloads.py) apply to the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

# Set explicitly, so that a change of the CLI default cannot change the
# workloads.  The default of 400 makes `grid ... eps(5)` (579 points) fail.
GRID_CAP = 1000
REFERENCE_EVERY_S = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--script")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    ns = parser.parse_args(argv)

    src = os.path.abspath(ns.src)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ordclass.cli as cli

    session = cli.Session(cache_dir=ns.cache_dir, grid_cap=GRID_CAP)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the program under {src}")
    result = {"setup_s": setup_s}
    if ns.setup_only:
        _write(ns.out, result)
        return 0

    with open(ns.script) as fh:
        lines = fh.read().splitlines()
    want_payload = set(wl.payload_lines(ns.workload, lines))

    tracer = None
    if ns.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reference = None
    if ns.reference:
        from calib import Reference

        reference = Reference()
        reference.start(REFERENCE_EVERY_S)
    try:
        outputs, times_ms, errors, payloads = _run_script(
            cli.run_command, session, lines, want_payload, reference
        )
    finally:
        if reference is not None:
            reference.close()
    chunks = reference.chunks if reference is not None else []
    session_s = sum(t for t in times_ms if t is not None) / 1e3
    digest = hashlib.sha256()
    for i, text in enumerate(outputs):
        if i in errors:
            digest.update(f"{i}!{errors[i].split(':')[0]}\n".encode())
        elif text is not None:
            digest.update(f"{i}:{text}\n".encode())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()

    exports = {}
    for name in sorted(os.listdir(".")):
        if os.path.isfile(name):
            with open(name, "rb") as fh:
                data = fh.read()
            exports[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
            digest.update(f"{name}:{exports[name]['sha256']}\n".encode())

    reparse = [outputs[i] for i in wl.reparse_lines(ns.workload, lines)]
    if ns.workload == "oracle-cold":
        for name in exports:
            if name.endswith(".json"):
                with open(name) as fh:
                    reparse += json.load(fh)["points"]
    reparse_failures = []
    for text in reparse:
        if text is None:
            continue
        try:
            again = cli.run_command(session, f"eval {text}")[0]
        except Exception as exc:  # reported as a failed check
            again = f"{type(exc).__name__}: {exc}"
        if again != text:
            reparse_failures.append(f"{text} -> {again}")

    cache_bytes = 0
    if ns.cache_dir and os.path.isdir(ns.cache_dir):
        for name in os.listdir(ns.cache_dir):
            cache_bytes += os.path.getsize(os.path.join(ns.cache_dir, name))

    result.update(
        session_s=session_s,
        times_ms=times_ms,
        outputs=outputs,
        errors=errors,
        payloads=payloads,
        digest=digest.hexdigest(),
        exports=exports,
        cache_bytes=cache_bytes,
        peak_rss_mb=peak_rss_mb,
        reparse_failures=reparse_failures,
        reference_chunks=chunks,
        python=sys.version.split()[0],
    )
    _write(ns.out, result)
    return 0


def _run_script(run_command, session, lines, want_payload, reference):
    """Feed the script to `run_command`; time each command in ms."""
    outputs, times_ms, errors, payloads = [], [], {}, {}
    clock = time.perf_counter

    def paused():
        return reference.paused if reference is not None else 0.0

    for i, line in enumerate(lines):
        if line.startswith("@format "):
            session.output_format = line.split()[1]
            outputs.append(None)
            times_ms.append(None)
            continue
        if reference is not None:
            reference.index = i
        p = paused()
        t = clock()
        try:
            text, payload = run_command(session, line)
        except Exception as exc:  # a failed command is counted, not fatal
            times_ms.append((clock() - t - (paused() - p)) * 1e3)
            outputs.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
            continue
        times_ms.append((clock() - t - (paused() - p)) * 1e3)
        outputs.append(text)
        if i in want_payload:
            payloads[str(i)] = payload
    return outputs, times_ms, errors, payloads


def _write(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    raise SystemExit(main())
