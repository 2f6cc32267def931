"""One benchmark client: a fresh process that imports factexp from the
checkout, runs a warm-up op, then runs whole rounds of a workload back
to back and checks every output against `references.json`.

    python3 bench/worker.py < job.json

The job names the workload, seed, round count, thread count, output
directory and result path.  With
"trace" set the worker installs the span shims of `tracer.py` before
running; otherwise it never imports that module, and it reports whether
any shim is found on the traced attributes after the run.
"""

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import plan

BENCH = Path(__file__).resolve().parent


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


class Runner:
    """Runs op dicts from plan.py through factexp.cli.main and checks
    each output's digest."""

    def __init__(self, main, refs, outdir: Path, threads: int, tracer=None):
        self.main = main
        self.refs = refs
        self.out = outdir / "op.out"
        self.threads = str(threads)
        self.tracer = tracer
        self.errors = []

    def output(self, argv):
        """Run one command line: (exit status, wall seconds, output bytes).
        Commands without --out write to stdout, which goes to the same file."""
        argv = list(argv)
        if argv[0] in plan.THREADED:
            argv += ["--threads", self.threads]
        to_stdout = argv[0] in ("verify", "lambda")
        if not to_stdout:
            argv += ["--out", str(self.out)]
        rc = None
        with contextlib.ExitStack() as stack:
            if to_stdout:
                stack.enter_context(contextlib.redirect_stdout(
                    stack.enter_context(open(self.out, "w"))))
            start = time.perf_counter()
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                self._error(argv, repr(exc))
            end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_op(start, end)
        data = self.out.read_bytes() if self.out.exists() else b""
        self.out.unlink(missing_ok=True)
        return rc, end - start, data

    def call(self, argv):
        """One checked command line: (wall seconds, output correct, output bytes)."""
        rc, wall, data = self.output(argv)
        key = plan.op_key(argv)
        ok = rc == 0 and self.refs.get(key) == digest(data)
        if not ok:
            known = "present" if key in self.refs else "missing"
            self._error(argv, f"exit {rc}, reference {known}")
        return wall, ok, data

    def _error(self, argv, what):
        if len(self.errors) < 10:
            self.errors.append(f"{plan.op_key(argv)}: {what}")

    def run(self, op):
        """One op: (integers covered, wall seconds, correct)."""
        if op["kind"] == "cli":
            wall, ok, _ = self.call(op["argv"])
            return op["n"], wall, ok
        return self.ladder()

    def ladder(self):
        """The doubling search of scripts/parity_coverage_growth.py: for
        each k, double the limit from LADDER_START until every parity
        pattern over the first k odd primes has a witness.  The wall time
        is that of the coverage calls alone."""
        n = wall = 0
        for k in range(1, len(plan.LADDER_PRIMES) + 1):
            limit = plan.LADDER_START
            while True:
                w, ok, data = self.call(plan.coverage_argv(k, limit))
                n += limit
                wall += w
                if not ok:
                    return n, wall, False
                patterns = json.loads(data)["patterns"]
                if all(p["minimal_n"] is not None for p in patterns):
                    break
                limit *= 2
                if limit > plan.LADDER_CAP:
                    return n, wall, False
        return n, wall, True


def shims_seen() -> bool:
    return "tracer" in sys.modules or any(
        getattr(getattr(sys.modules[module], attr), "__bench_shim__", False)
        for module, attr, _ in plan.SHIM_TARGETS)


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    refs = json.loads((BENCH / "references.json").read_text())["refs"]
    outdir = Path(job["outdir"])
    tracing = tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()

    start = time.perf_counter()
    import factexp.cli

    if tracer is not None:
        tracer.install()
    runner = Runner(factexp.cli.main, refs, outdir, job["threads"], tracer)
    warm_ok = runner.run(plan.WARMUP[job["workload"]])[2]
    setup_s = time.perf_counter() - start

    import numpy

    result = {
        "setup_s": setup_s,
        "warmup_ok": warm_ok,
        "factexp_file": factexp.__file__,
        "numpy": numpy.__version__,
        "ops": [],
    }
    if job["mode"] == "run":
        if tracer is not None:
            tracer.spans.clear()
        for round_ops in plan.rounds(job["workload"], job["seed"], job["rounds"]):
            result["ops"].extend(runner.run(op) for op in round_ops)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans, job["rounds"])
    result["errors"] = runner.errors
    result["shims_seen"] = shims_seen()
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
