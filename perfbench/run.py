#!/usr/bin/env python3
"""Closed-loop benchmark of the ``fdsi`` command line.

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 25 --trace 0

One client spawns one ``python -m fdsi`` call at a time (closed loop, one
client) on a seeded suite of instance files, checks every answer, and prints
one line per metric with its unit, then a JSON summary as the last line.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
whole suite once more with in-process spans around each fdsi module and
prints the per-layer metrics.  Workloads, metrics and caps are described in
perfbench/README.md.  Results, the suite manifest and the spans are written
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

AS_CAP_BYTES = 2 << 30  # address-space cap of every child
TIMEOUT_S = 60.0  # wall-clock cap of every child
SETUP_REPEATS = 21
STARTUP_SAMPLES = 10
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TRACEMALLOC_CALLS = 2  # largest exact searches re-run under tracemalloc


def _import_fdsi():
    """Import fdsi from this checkout's src/, never from anywhere else."""
    pkg = SRC / "fdsi"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from the root of an fdsi checkout")
    sys.path.insert(0, str(SRC))
    import fdsi

    if Path(fdsi.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported fdsi from {fdsi.__file__}, expected {pkg}")
    return fdsi


_import_fdsi()

import calibration  # noqa: E402
import checking  # noqa: E402  (needs fdsi on the path)
import suites  # noqa: E402
import tracing  # noqa: E402
from fdsi import cli, search, serialize  # noqa: E402
from fdsi.fairness import check, is_sim  # noqa: E402


# -- children ------------------------------------------------------------------

def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))


class Runner:
    """Spawns ``python -m fdsi`` under the caps and reports wall time,
    exit code, output and the child's own ``ru_maxrss``."""

    def __init__(self, workdir: Path, state_budget: int | None = None) -> None:
        self.env = {k: v for k, v in os.environ.items() if k != "FDSI_STATE_BUDGET"}
        self.env["PYTHONPATH"] = str(SRC)
        if state_budget is not None:
            self.env["FDSI_STATE_BUDGET"] = str(state_budget)
        self.out = open(workdir / "child.stdout", "w+b")
        self.err = open(workdir / "child.stderr", "w+b")

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def run(self, args: list[str]) -> dict:
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        start = perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fdsi", *args],
            stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err,
            env=self.env, cwd=ROOT, preexec_fn=_limit_child,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], TIMEOUT_S)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter_ns() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        for f in (self.out, self.err):
            f.seek(0)
        stdout, stderr = self.out.read().decode(), self.err.read().decode()
        # exit 1 is a negative answer only when nothing went to stderr
        # (a MemoryError under the address-space cap also exits 1)
        failed = timed_out or code not in (0, 1) or bool(stderr)
        return {
            "wall_ns": wall, "code": code, "stdout": stdout, "stderr": stderr,
            "maxrss_kib": usage.ru_maxrss, "cpu_ns": round((usage.ru_utime + usage.ru_stime) * 1e9),
            "failed": failed, "timed_out": timed_out,
        }


def _abs_argv(argv: list[str], workdir: Path) -> list[str]:
    return [str(workdir / a) if a.endswith(".json") else a for a in argv]


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU, so that the calibration
    samples see the same processor as the calls: on a shared host each
    virtual CPU speeds up and slows down on its own."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- set-up ----------------------------------------------------------------------

def set_up(args) -> tuple:
    """Generate the suite and serialize every instance as ``save_instance``
    does; return the suite, the instance texts, the set-up time and the
    generation time.  Writing the files is left out of the time: on shared
    disks file creation swings by several times between runs."""
    t0 = perf_counter()
    suite = suites.build(args.workload, args.seed, smoke=args.smoke)
    t1 = perf_counter()
    texts = {name: serialize.dumps(serialize.instance_to_obj(inst))
             for name, inst in suite.instances.items()}
    return suite, texts, perf_counter() - t0, t1 - t0


def repeat_set_up(args, times: list, count: int) -> None:
    """Set up ``count`` more times, recording the set-up and generation
    times scaled by a calibration sample taken right after each.

    The repeats are split between before and after the measured phase, so
    that they do not all fall in one phase of the machine's speed."""
    for _ in range(count):
        setup_t, gen_t = set_up(args)[2:]
        slowdown = calibration.kernel_slowdown()
        times.append((setup_t / slowdown, gen_t / slowdown, setup_t))


def write_suite(texts: dict[str, str], workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in texts.items():
        (workdir / name).write_text(text, encoding="utf-8")


def warm_up(workdir: Path) -> None:
    """One untimed call, so bytecode compilation is not billed to a solve."""
    runner = Runner(workdir)
    try:
        warm = runner.run(["--help"])
    finally:
        runner.close()
    if warm["code"] != 0:
        sys.exit(f"error: warm-up call failed: {warm['stderr'].strip()}")


# -- statistics ----------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """The value with exactly TAIL_BEYOND samples above it, its percentile
    and the sample count (the maximum when there are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


class Report:
    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:>14.6g} {unit:6s} {note}".rstrip())


# -- closed loop -----------------------------------------------------------------

class CallFailed(Exception):
    """A call hit a cap, exited with anything but 0 or 1, or wrote to stderr."""


def _execute(runner: Runner, suite, idx: int, workdir: Path, saved: dict) -> dict:
    """Run one call of the suite; a failed call fails the whole run."""
    call = suite.calls[idx]
    res = runner.run(_abs_argv(call.argv, workdir))
    if res["failed"]:
        why = "timed out" if res["timed_out"] else f"exit code {res['code']}"
        stderr = res["stderr"].strip().splitlines()
        raise CallFailed(f"call {idx} ({' '.join(call.argv)}): {why}"
                         + (f"; stderr: {stderr[-1]}" if stderr else ""))
    if call.saves:
        saved[call.saves] = res["stdout"]
        (workdir / call.saves).write_text(res["stdout"], encoding="utf-8")
    return res


def timed_phase(args, suite, workdir: Path):
    """Run the suite's calls in order until ``args.seconds`` have passed,
    with a calibration sample before the first call and after each; each
    record gets the samples around it and its slowdown."""
    runner = Runner(workdir, args.state_budget)
    share = suites.SPAWN_SHARE[args.workload]
    records, first, saved = [], {}, {}
    before = calibration.sample()
    start = perf_counter()
    try:
        i = 0
        while True:
            idx = i % len(suite.calls)
            res = _execute(runner, suite, idx, workdir, saved)
            after = calibration.sample()
            res["samples_ns"] = [before, after]
            res["slowdown"] = calibration.slowdown(share, before, after)
            before = after
            records.append((idx, res))
            first.setdefault(idx, (res, saved.get(suite.calls[idx].reads)))
            i += 1
            if perf_counter() - start >= args.seconds:
                break
    finally:
        runner.close()
    return records, first


def check_answers(args, suite, records, first) -> dict[int, object]:
    """Every distinct call is checked against the oracles; a repeated call
    must print exactly what it printed the first time."""
    for idx, res in records:
        ref = first[idx][0]
        if (res["code"], res["stdout"]) != (ref["code"], ref["stdout"]):
            raise checking.WrongAnswer(f"call {idx} answered differently on a repeat")
    verdicts = {}
    flip_next = args.flip_expected
    for idx in sorted(first):
        res, alloc_text = first[idx]
        call = suite.calls[idx]
        try:
            verdicts[idx] = checking.verdict(
                call, suite.instances[call.instance], res["code"], res["stdout"],
                alloc_text, flip=flip_next,
            )
        except checking.WrongAnswer as exc:
            raise checking.WrongAnswer(f"call {idx} ({' '.join(call.argv)}): {exc}") from exc
        flip_next = False
    return verdicts


def end_to_end(report: Report, records, setups) -> None:
    """Every time is divided by its slowdown (calibration.py); the raw
    figure follows each in its note."""
    raw = [res["wall_ns"] / 1e6 for _, res in records]
    scaled = [res["wall_ns"] / 1e6 / res["slowdown"] for _, res in records]
    value, pct, n = tail(scaled)
    report.add("setup_s", statistics.median(t for t, _, _ in setups), "s",
               f"median of {SETUP_REPEATS} set-ups, scaled; raw {statistics.median(r for _, _, r in setups):.6f}")
    report.add("solve_p50_ms", statistics.median(scaled), "ms", f"n={n}, scaled; raw {statistics.median(raw):.3f}")
    report.add("solve_tail_ms", value, "ms",
               f"p{pct:.1f}, n={n}, {TAIL_BEYOND} samples beyond, scaled; raw {tail(raw)[0]:.3f}")
    report.add("solves_per_s", n / sum(scaled) * 1e3, "1/s",
               f"{n} calls in {sum(scaled) / 1e3:.2f} s of scaled call time, 1 client; raw {n / sum(raw) * 1e3:.4f}")
    report.add("peak_rss_mb", max(res["maxrss_kib"] for _, res in records) / 1024, "MiB", "largest child ru_maxrss")
    print(f"{'failed_frac':32s} {0:>14.6g} {'ratio':6s} 0 of {len(records)} calls (a failed call fails the run)")


# -- traced replay -----------------------------------------------------------------

def _in_process(argv: list[str], tracer=None, call_id: int = 0) -> tuple[int, str, int]:
    """Run ``fdsi.cli.main(argv)`` in this process, as the root span of a
    traced call when a tracer is given; return exit code, stdout and wall ns."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tracer.run_call(call_id, cli.main, argv) if tracer else cli.main(argv)
    return code, out.getvalue(), perf_counter_ns() - start


def _traced(argv: list[str], tracer, idx: int) -> int:
    tracing.instrument(tracer)
    try:
        return _in_process(argv, tracer, idx)[2]
    finally:
        tracer.unpatch_all()


def traced_phase(args, suite, workdir: Path):
    """One pass over the whole suite: each call is spawned, then run in
    process once untraced and once under the tracer."""
    runner = Runner(workdir, args.state_budget)
    tracer = tracing.Tracer()
    try:
        startup = [runner.run(["--help"])["wall_ns"] / 1e6 for _ in range(STARTUP_SAMPLES)]
        records, first, saved, rows = [], {}, {}, []
        for idx, call in enumerate(suite.calls):
            argv = _abs_argv(call.argv, workdir)
            res = _execute(runner, suite, idx, workdir, saved)
            records.append((idx, res))
            first[idx] = (res, saved.get(call.reads))
            # alternate which in-process run goes first, so neither gains
            # from the other having warmed the allocator
            if idx % 2:
                code, stdout, plain_ns = _in_process(argv)
                traced_ns = _traced(argv, tracer, idx)
            else:
                traced_ns = _traced(argv, tracer, idx)
                code, stdout, plain_ns = _in_process(argv)
            if (code, stdout) != (res["code"], res["stdout"]):
                raise checking.WrongAnswer(f"call {idx}: in-process answer differs from the CLI's")
            rows.append({"idx": idx, "spawn_ns": res["wall_ns"], "plain_ns": plain_ns,
                         "traced_ns": traced_ns, "notes": tracer.notes})
    finally:
        runner.close()
    return records, first, rows, tracer, startup


def _bytes_per_state(suite, rows) -> tuple[float, int, int]:
    """tracemalloc peak / states for the largest exact searches (computed)."""
    sized = []
    for row in rows:
        for stats in row["notes"].get("exact", []):
            sized.append((stats.get("visited", 0), row["idx"]))
    sized.sort(reverse=True)
    peak_total = states_total = 0
    for states, idx in sized[:TRACEMALLOC_CALLS]:
        call = suite.calls[idx]
        gc.collect()
        tracemalloc.start()
        try:
            stats: dict = {}
            search.exact_solve(suite.instances[call.instance], call.notion, stats=stats)
            peak_total += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states_total += stats["visited"]
    return (peak_total / states_total if states_total else 0.0), states_total, len(sized[:TRACEMALLOC_CALLS])


def per_layer(report: Report, suite, rows, tracer, startup, gen_s) -> dict:
    spawn_ms = [r["spawn_ns"] / 1e6 for r in rows]
    plain_ms = [r["plain_ns"] / 1e6 for r in rows]
    plain_total = sum(r["plain_ns"] for r in rows)
    traced_total = sum(r["traced_ns"] for r in rows)
    exact_stats = [s for r in rows for s in r["notes"].get("exact", [])]
    states = sum(s.get("visited", 0) for s in exact_stats)
    frontier = max((max(s.get("layer_sizes", [0])) for s in exact_stats), default=0)
    brute_cands = sum(r["notes"].get("brute_candidates", 0) for r in rows)
    exact_busy = sum(tracer.durations("search.exact_solve")) / 1e9
    names = {span[1]: span[3] for span in tracer.spans}
    brute_busy = (sum(tracer.durations("search.brute_force_solve")) + sum(
        end - start for (_, _, parent, name, start, end) in tracer.spans
        if name == "search.enumerate_sim_allocations" and names.get(parent) == "cli.main"
    )) / 1e9
    built = certified = 0
    for r in rows:
        call = suite.calls[r["idx"]]
        inst = suite.instances[call.instance]
        for cand in r["notes"].get("candidates", []):
            built += 1
            certified += is_sim(inst, cand).fair and check(inst, cand, call.notion).fair
    bps, bps_states, bps_calls = _bytes_per_state(suite, rows)

    def per_call(name: str, scale: float, unit: str, metric: str) -> None:
        mean_ns, calls = tracer.per_call_ns(name)
        how = "sampled" if name in tracer.hot_calls else "every call"
        report.add(metric, mean_ns / scale, unit, f"mean over {calls} calls ({how})" if calls else "not called")

    n_calls = len(rows)
    spawn_import = [s - p for s, p in zip(spawn_ms, plain_ms)]
    report.add("cli.startup_ms", statistics.median(startup), "ms", f"median of {STARTUP_SAMPLES} `fdsi --help` spawns")
    report.add("cli.main_ms", statistics.median(plain_ms), "ms", f"median in-process cli.main, {n_calls} calls")
    report.add("cli.spawn_import_ms", statistics.median(spawn_import), "ms", "median of spawn wall - in-process main")
    per_call("serialize.load_instance", 1e3, "us", "serialize.load_instance_us")
    per_call("serialize.dumps", 1e3, "us", "serialize.dumps_us")
    per_call("model.all_maximizers", 1e3, "us", "model.all_maximizers_us")
    per_call("model.from_assignment", 1e3, "us", "model.from_assignment_us")
    per_call("fairness.check", 1e3, "us", "fairness.check_us")
    per_call("fairness.is_sim", 1e3, "us", "fairness.is_sim_us")
    per_call("allocators.sa_weighted_picking", 1e3, "us", "allocators.picking_us")
    per_call("allocators.sa_efl_allocate", 1e6, "ms", "allocators.efl_alloc_ms")
    report.add("allocators.certified_frac", certified / built if built else 0.0, "ratio",
               f"{certified} of {built} candidates pass the requested notion")
    exact_calls = len(tracer.durations("search.exact_solve"))
    report.add("search.exact_busy_s", exact_busy, "s", f"{exact_calls} exact_solve calls")
    report.add("search.states", states, "count", "sum of stats['visited'] over one pass")
    report.add("search.states_per_s", states / exact_busy if exact_busy else 0.0, "1/s")
    report.add("search.peak_frontier", frontier, "count", "max of stats['layer_sizes']")
    report.add("search.bytes_per_state", bps, "B",
               f"computed: tracemalloc peak / {bps_states} states over the {bps_calls} largest searches")
    report.add("search.brute_candidates", brute_cands, "count", "mixed-radix rank + 1, or the full scan")
    report.add("search.brute_candidates_per_s", brute_cands / brute_busy if brute_busy else 0.0, "1/s")
    report.add("search.brute_busy_s", brute_busy, "s")
    per_call("sa_empty.solve_sa_empty", 1e6, "ms", "sa_empty.solve_ms")
    report.add("generators.suite_s", gen_s, "s", f"median of {SETUP_REPEATS} suite builds")
    report.add("trace.overhead_frac", (traced_total - plain_total) / plain_total, "ratio",
               f"base: {plain_total / 1e9:.3f} s untraced in-process over {n_calls} calls")
    print(f"# share of in-process time: search.exact_busy_s {exact_busy / (traced_total / 1e9):.3f}, "
          f"search.brute_busy_s {brute_busy / (traced_total / 1e9):.3f}")
    print(f"# share of call wall time: cli.spawn_import_ms "
          f"{statistics.median(spawn_import) / statistics.median(spawn_ms):.3f}")
    return {r["idx"]: {"search.states": sum(s.get("visited", 0) for s in r["notes"].get("exact", [])) or None,
                       "search.brute_candidates": r["notes"].get("brute_candidates")} for r in rows}


# -- provenance and files ---------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (the
    ceiling keeps git from finding a repository above the checkout)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fdsi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": args.cpus_usable,
        "pinned_cpu": args.pinned_cpu,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def write_manifest(args, suite, first, verdicts, counts, prefix: str) -> float:
    entries = []
    for idx, call in enumerate(suite.calls):
        ran = idx in first
        entries.append({
            "id": idx,
            "argv": call.argv,
            "family": call.family,
            "properties": call.props,
            "source_problem": call.source[0] if call.source else None,
            "ran": ran,
            "verdict": verdicts.get(idx) if ran else None,
            **(counts.get(idx, {}) if counts else {"search.states": None, "search.brute_candidates": None}),
        })
    positive = [v for idx, v in verdicts.items() if suite.calls[idx].kind != "count"]
    share = sum(1 for v in positive if v) / len(positive) if positive else 0.0
    (OUT / f"{prefix}-manifest.json").write_text(json.dumps({
        "provenance": provenance(args),
        "positive_share": share,
        "calls": entries,
    }, indent=1, default=str))
    return share


# -- main ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=suites.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="one block per suite, for the self-test")
    p.add_argument("--flip-expected", action="store_true",
                   help="invert the first expected verdict; the run must then fail (self-test)")
    p.add_argument("--state-budget", type=int,
                   help="set FDSI_STATE_BUDGET in every child; a tiny one must fail the run (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.cpus_usable = len(os.sched_getaffinity(0))
    args.pinned_cpu = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    prefix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    suite, texts = set_up(args)[:2]  # a first, untimed set-up warms the interpreter
    setups: list[tuple] = []
    repeat_set_up(args, setups, SETUP_REPEATS // 2 + 1)
    write_suite(texts, workdir)
    warm_up(workdir)
    print(f"# fdsi benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(suite.calls)} calls in the suite, closed loop with 1 client")
    report = Report()
    counts = None
    try:
        if args.trace:
            records, first, rows, tracer, startup = traced_phase(args, suite, workdir)
        else:
            records, first = timed_phase(args, suite, workdir)
        verdicts = check_answers(args, suite, records, first)
    except CallFailed as exc:
        print(f"error: failed call: {exc}", file=sys.stderr)
        return 1
    except checking.WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    repeat_set_up(args, setups, SETUP_REPEATS - len(setups))
    gen_s = statistics.median(g for _, g, _ in setups)
    if args.trace:
        counts = per_layer(report, suite, rows, tracer, startup, gen_s)
        (OUT / f"{prefix}-spans.json").write_text(json.dumps(tracer.export()))
    else:
        end_to_end(report, records, setups)
    share = write_manifest(args, suite, first, verdicts, counts, prefix)
    print(f"# checked {len(verdicts)} distinct answers; positive share {share:.3f}; "
          f"0 of {len(records)} calls failed")
    result = {"correct": True, "attempted": len(records), "failed": 0, "metrics": report.metrics}
    per_call = [{"id": idx, "family": suite.calls[idx].family, "wall_ms": res["wall_ns"] / 1e6,
                 "code": res["code"], "maxrss_kib": res["maxrss_kib"],
                 "cpu_ms": res["cpu_ns"] / 1e6, "samples_ns": res.get("samples_ns"),
                 "slowdown": res.get("slowdown")}
                for idx, res in records]
    (OUT / f"{prefix}-result.json").write_text(
        json.dumps({"provenance": provenance(args), **result, "calls": per_call}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
