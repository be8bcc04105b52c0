"""Runs in the spawned interpreter: import the CLI, then call
``iondeco.cli.main`` on each argv list of a plan.

Usage: python3 child.py SPEC.json T_SPAWN

T_SPAWN is the parent's time.monotonic() just before the spawn.  SPEC
holds ``src`` (the directory iondeco must be imported from), ``result``
(a JSON-lines file to write), ``rounds`` (lists of argv lists, or empty for
a set-up probe), ``seconds`` (run whole rounds until this much time has
passed) or ``limit`` (run exactly this many commands), and ``trace``.

The result file gets one line when the CLI is imported, one with the
host-speed kernel's time right after (see hostspeed.py), one line per
command as it ends (so a killed run still reports what it did), and, in
traced runs, the spans, which are kept in memory until the run ends.
Only the standard library and the benchmark's hostspeed module are
imported here besides iondeco itself.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time

import iondeco.cli

T_READY = time.monotonic()  # set-up ends when the CLI is imported

import hostspeed  # noqa: E402  (after T_READY, so set-up does not include it)

CALIB_EVERY_S = 0.5

# Public functions wrapped in a traced run, by the name the CLI (or the
# module calling them) resolves at call time.
TARGETS = {
    "cli": [("iondeco.cli", "main")],
    "dynamics": [("iondeco.cli", "integrate"), ("iondeco.cli", "integrate_adiabatic"),
                 ("iondeco.protocol", "integrate"), ("iondeco.protocol", "integrate_adiabatic")],
    "protocol": [("iondeco.cli", "run_trajectory"), ("iondeco.cli", "accumulate"),
                 ("iondeco.cli", "write_trajectories"), ("iondeco.cli", "write_curve_csv")],
    "fitting": [("iondeco.cli", "fit_nutation"), ("iondeco.cli", "effective_from_fit")],
    "design": [("iondeco.cli", "design_decoherence"), ("iondeco.cli", "verify_design")],
    "model": [("iondeco.cli", "effective_rates"), ("iondeco.config", "scattering_rates")],
    "config": [("iondeco.cli.RunConfig", m) for m in (
        "__init__", "load", "parse", "set_path", "serialize", "hash", "physical_params",
        "rates", "initial_state", "protocol_config", "integrator_config", "model_variant")],
}


class Tracer:
    """Spans in memory: [layer, name, start, end, parent, command]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = -1
        self.curves = []  # dynamics results: [span, points, states or None]

    def wrap(self, layer, name, fn):
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.command]
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if layer == "dynamics":
                self.curves.append(_curve_record(index, result))
            return result

        return traced

    def install(self):
        """Wrap every target that exists; return the names that do not."""
        absent = []
        for layer, targets in TARGETS.items():
            for owner_path, attr in targets:
                owner = _resolve(owner_path)
                raw = None if owner is None else owner.__dict__.get(attr)
                if raw is None:
                    absent.append(f"{owner_path}.{attr}")
                    continue
                name = f"{owner_path}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(layer, name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(layer, name, raw))
        return absent


def _resolve(path):
    """A loaded module, or a class (capitalised last part) inside one."""
    module, _, attr = path.rpartition(".")
    if attr[:1].isupper():
        return getattr(sys.modules.get(module), attr, None)
    return sys.modules.get(path)


def _curve_record(index, result):
    t = getattr(result, "t", None)
    y = getattr(result, "y", None)
    return [index, 0 if t is None else len(t), None if y is None else y.tolist()]


class SpeedSampler:
    """Host-speed kernel times, starting with ``first``.  When ``timed``,
    the kernel is timed every CALIB_EVERY_S of wall time from a timer
    signal, so that long commands are sampled while they run, and the time
    taken is counted, so that it can be left out of the command it
    interrupted."""

    def __init__(self, first, timed):
        self.samples = [first]
        self.taken = 0.0
        if timed:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(hostspeed.kernel_seconds())
        self.taken += time.perf_counter() - t0

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _run(argv):
    try:
        return iondeco.cli.main(argv), None
    except SystemExit as exc:  # argparse rejects bad argv this way
        return exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a traceback is a failed command, not a crash of the run
        return "exception", f"{type(exc).__name__}: {exc}"


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    origin = os.path.realpath(iondeco.cli.__file__)
    if not origin.startswith(src + os.sep):
        sys.exit(f"iondeco imported from {origin}, not from {src}")
    out = open(spec["result"], "w")
    out.write(json.dumps({"ready": T_READY - float(sys.argv[2])}) + "\n")
    first = hostspeed.kernel_seconds()
    out.write(json.dumps({"calib": first}) + "\n")
    out.flush()
    tracer = None
    absent = []
    if spec.get("trace"):
        tracer = Tracer()
        absent = tracer.install()
    # a traced run takes no samples: its spans would hold their time
    sampler = SpeedSampler(first, timed=tracer is None and bool(spec["rounds"]))
    rounds = spec["rounds"]
    limit = spec.get("limit")
    done = 0
    start = time.perf_counter()
    r = 0
    while rounds:
        for j, argv in enumerate(rounds[r % len(rounds)]):
            if limit is not None and done >= limit:
                break
            if tracer:
                tracer.command = done
            n, taken = len(sampler.samples), sampler.taken
            t0 = time.perf_counter()
            rc, err = _run(argv)
            dt = time.perf_counter() - t0 - (sampler.taken - taken)
            # the kernel's time over the command: the samples taken while it
            # ran, with the last one before it
            samples = sampler.samples[n - 1:]
            out.write(json.dumps({"round": r % len(rounds), "index": j, "rc": rc,
                                  "seconds": dt, "kernel_s": statistics.median(samples),
                                  "error": err}) + "\n")
            out.flush()
            done += 1
        r += 1
        if limit is not None and done >= limit:
            break
        if limit is None and time.perf_counter() - start >= spec["seconds"]:
            break
    sampler.stop()
    tail = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calibs": sampler.samples}
    if tracer:
        tail.update(spans=tracer.spans, curves=tracer.curves, absent=absent)
    out.write(json.dumps(tail) + "\n")
    out.close()


if __name__ == "__main__":
    main()
