"""The factexp benchmark: seeded CLI workloads, end to end and per layer.

    python3 bench/run.py --workload scan-narrow --seed 0 --seconds 26 --trace 0

Workloads, metrics and the per-layer map live in plan.py and are
mirrored in BENCHMARK.json.  Every op is a `factexp` command line run
in-process through factexp.cli.main by one closed-loop client, a fresh
worker process (worker.py) that runs ops back to back in whole rounds.
Every output is checked against references.json.

--trace 0 measures the end-to-end metrics: five fresh processes each
import factexp and run the workload's small warm-up op (setup_s is the
median of those and of the client's own set-up), then the client runs
the fixed number of rounds plan.round_count gives for --seconds.

--trace 1 runs the rounds for half of --seconds untraced, then the same
rounds in a second, traced client, and reports the per-layer metrics
per round, with the tracing overhead as traced minus untraced op time.

Before the result line the command prints one JSON line with the
environment stamp, the digest of the generated op list, the tail
percentile and op count, and the failure ratio.  The last line is the
result.  The exit status is 0 only when every output was correct.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
# Every child is killed if the whole command would pass this many seconds.
DEADLINE_S = 170.0


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"l{level}"] = _read(index / "size")
    return out


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or "unknown"
    return head or "not a git checkout"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "factexp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Clients:
    """Starts worker.py processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, threads: int, outdir: Path):
        self.workload = workload
        self.base = {"root": str(ROOT), "workload": workload, "seed": seed,
                     "threads": threads, "outdir": str(outdir)}
        self.outdir = outdir
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("FACTEXP_THREADS", "FACTEXP_OUT_DIR")}

    def run(self, **job) -> dict:
        job = {**self.base, **job, "result": str(self.outdir / "result.json")}
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                       text=True, stdout=subprocess.DEVNULL, env=self.env, cwd=ROOT,
                       timeout=max(1.0, remaining), check=True)
        result = json.loads((self.outdir / "result.json").read_text())
        if Path(result["factexp_file"]).resolve().parent != (ROOT / "src" / "factexp").resolve():
            raise RuntimeError(f"imported factexp from {result['factexp_file']}, not the checkout")
        return result


def tail(walls) -> tuple[int, float]:
    """The highest percentile, in steps of 5, with at least ten ops beyond
    it, and its value (inclusive interpolation)."""
    percentile = int(20 * (1 - 10 / len(walls))) * 5
    value = statistics.quantiles(walls, n=100, method="inclusive")[percentile - 1]
    return percentile, value


def end_to_end(clients: Clients, seconds: int):
    setups = [clients.run(mode="setup", trace=False) for _ in range(SETUP_PROBES)]
    rounds = plan.round_count(clients.workload, seconds)
    res = clients.run(mode="run", trace=False, rounds=rounds)
    walls = [w for _, w, _ in res["ops"]]
    percentile, tail_s = tail(walls)
    metrics = {
        "throughput_nps": sum(n for n, _, _ in res["ops"]) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "peak_rss_mib": res["maxrss_kib"] / 1024,
        "setup_s": statistics.median([r["setup_s"] for r in setups + [res]]),
    }
    info = {"rounds": rounds, "tail_percentile": percentile, "timed_ops": len(walls)}
    bad = [] if not res["shims_seen"] else ["trace shims found in a timed process"]
    return metrics, [res] + setups, info, bad


def per_layer(clients: Clients, seconds: int):
    rounds = plan.round_count(clients.workload, seconds / 2, minimum=1)
    plain = clients.run(mode="run", trace=False, rounds=rounds)
    traced = clients.run(mode="run", trace=True, rounds=rounds)
    metrics = dict(traced["layers"])
    wall = sum(w for _, w, _ in traced["ops"]) - sum(w for _, w, _ in plain["ops"])
    metrics["trace.overhead_s"] = wall / rounds
    bad = [] if traced["shims_seen"] else ["traced client ran without shims"]
    if plain["shims_seen"]:
        bad.append("trace shims found in a timed process")
    return metrics, [plain, traced], {"rounds": rounds}, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    ap.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "factexp" / "__init__.py", BENCH / "references.json"):
        if not needed.is_file():
            print(f"bench: {needed} is missing; run from a factexp checkout", file=sys.stderr)
            return 2

    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    outdir = ROOT / ".bench_out" / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        clients = Clients(args.workload, args.seed, threads, outdir)
        measure = per_layer if args.trace else end_to_end
        metrics, results, info, bad = measure(clients, args.seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()

    ops = [ok for r in results for _, _, ok in r["ops"]]
    failed = ops.count(False)
    bad += [e for r in results for e in r["errors"]]
    bad += ["warm-up output wrong" for r in results if not r["warmup_ok"]]
    units = {name: unit for name, unit, *_ in plan.END_TO_END + plan.PER_LAYER}
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "plan_digest": plan.plan_digest(args.workload, args.seed, info["rounds"]),
        "ops": len(ops),
        "fail_ratio": failed / len(ops),
        "problems": bad,
        "stamp": {
            "nproc": nproc, "threads": threads,
            "python": platform.python_version(), "numpy": results[0]["numpy"],
            "cpu": cpu_model(), **cache_sizes(),
            "commit": git_commit(), "source_sha256": source_digest(),
            "seed": args.seed,
            "note": f"wall-clock thread scaling beyond {nproc} cores "
                    "is not measured on this machine",
        },
    })
    print(json.dumps(info))
    correct = failed == 0 and not bad
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
