"""One workload execution in a fresh interpreter (started by ``run.py``).

Usage: python3 child.py <scenario.yaml> <entry> <out_dir> <result.json> <trace>

``entry`` is ``run`` (``run_experiment``, threads=1) or ``optimize``
(``optimize_experiment``).  With ``trace`` = 1 the public functions of each
layer are wrapped, from outside the package, by patching module and class
attributes; span self time is the span's duration minus its child spans.
Spans are aggregated per name in memory and written with the result.

With ``trace`` = 0 a probe runs instead: a fixed piece of pure-Python work,
started by a SIGALRM interval timer every 50 ms from before ``import
aoisched`` until the workload returns.  Its mean duration measures the speed
the host gave this process while the workload ran, and ``run.py`` scales the
untraced times by it.

Timestamps are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux),
so the parent can subtract its own spawn time from them.
"""

import ctypes
import inspect
import json
import os
import resource
import signal
import sys
import time


class Probe:
    """Fixed pure-Python work run from an interval timer; records durations."""

    LOOPS = 3000          # about 0.75 ms on a 2-vCPU 2.1 GHz Xeon VM
    INTERVAL_S = 0.05

    def __init__(self):
        self.durations = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        x = 12345
        acc = 0.0
        for _ in range(self.LOOPS):
            x = (x * 1103515245 + 12345) & 0x7fffffff
            acc += (x >> 7) * 1e-9 if x & 1 else -1e-9
        self.durations.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class Tracer:
    """Nested spans on one thread, aggregated per span name."""

    def __init__(self):
        self.stack = []          # [name, child_seconds] per open span
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counts = {}         # counter name -> value

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name, count=None):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if count is not None:
                    count(args, kwargs, dur)
        return traced

    def parent(self):
        return self.stack[-1][0] if self.stack else None


def _patch(tracer, owner, attr, name, count=None):
    """Wrap ``owner.attr`` if it exists; a layer the code no longer has is skipped."""
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, tracer.wrap(fn, name, count))


def install(tracer):
    import numpy as np
    from aoisched import dpp, experiments, forp, ofrp, simulate

    def count_run(args, kwargs, dur):
        policy = args[0] if args else kwargs["policy"]
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        name = getattr(policy, "name", "policy")
        tracer.add("simulate.slots", cfg.horizon)
        tracer.add(f"simulate.slots.{name}", cfg.horizon)
        tracer.add(f"simulate.run_s.{name}", dur)

    def count_solve(args, kwargs, dur):
        a = np.asarray(args[0] if args else kwargs["a"])
        matrices = a.shape[0] if a.ndim == 3 else 1
        tracer.add("lapack.matrices", matrices)
        if tracer.parent() == "ofrp.optimize":
            tracer.add("ofrp.grid_points", matrices)
            tracer.add("ofrp.grid_solve_s", dur)

    def count_states(args, kwargs, dur):
        matrix = args[0] if args else kwargs["matrix"]
        tracer.add("markov.states_solved", len(matrix))

    traced_run = tracer.wrap(simulate.run, "simulate.run", count_run)
    simulate.run = traced_run
    if hasattr(experiments, "run"):
        experiments.run = traced_run
    traced_replicas = tracer.wrap(simulate.run_replicas, "simulate.run_replicas")
    simulate.run_replicas = traced_replicas
    if hasattr(experiments, "run_replicas"):
        experiments.run_replicas = traced_replicas
    for module, cls, name in ((dpp, "DppPolicy", "dpp.decide"),
                              (ofrp, "OfrpPolicy", "ofrp.decide"),
                              (forp, "ForpPolicy", "forp.decide")):
        policy_cls = getattr(module, cls, None)
        if policy_cls is not None and "decide" in vars(policy_cls):
            _patch(tracer, policy_cls, "decide", name)
    _patch(tracer, ofrp, "optimize", "ofrp.optimize")
    _patch(tracer, ofrp, "build_chain", "ofrp.build_chain")
    _patch(tracer, ofrp, "metrics", "ofrp.metrics")
    _patch(tracer, ofrp, "solve_stationary", "markov.solve_stationary",
           count_states)
    _patch(tracer, forp, "optimize", "forp.optimize")
    _patch(tracer, np.linalg, "solve", "lapack.solve", count_solve)


def blas_info():
    """BLAS name/version from numpy's build record and OpenBLAS's thread count."""
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:   # not Linux: the thread count stays unrecorded
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(argv):
    scenario, entry, out_dir, result_path, trace = argv
    probe = Probe() if trace == "0" else None
    if probe is not None:
        probe.start()
    import aoisched
    from aoisched import experiments
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        install(tracer)
        load_spec = tracer.wrap(experiments.load_spec, "experiments")
    else:
        load_spec = experiments.load_spec
    marks = []   # (perf_counter, message starts with "wrote") per log call

    def on_log(message=""):
        marks.append((time.perf_counter(), str(message).startswith("wrote")))

    fn = experiments.run_experiment if entry == "run" else experiments.optimize_experiment
    params = inspect.signature(fn).parameters
    kwargs = {"out_dir": out_dir}
    if "log" in params:
        kwargs["log"] = on_log
    if "threads" in params:
        kwargs["threads"] = 1
    if tracer is not None:
        fn = tracer.wrap(fn, "experiments")

    t_imported = time.perf_counter()
    spec = load_spec(scenario)
    t_setup = time.perf_counter()
    probe_setup = list(probe.durations) if probe is not None else []
    fn(spec, **kwargs)
    if probe is not None:
        probe.stop()
    t_done = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    import numpy
    import scipy
    result = {
        "t_imported": t_imported,
        "t_setup": t_setup,
        "t_done": t_done,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "log_marks": marks,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "aoisched": getattr(aoisched, "__version__", None),
                     "aoisched_file": aoisched.__file__},
        "blas": blas_info(),
    }
    if probe is not None:
        result["probe"] = {"count": len(probe.durations),
                           "total_s": sum(probe.durations),
                           "setup_s": sum(probe_setup)}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
