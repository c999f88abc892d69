"""fuchs-kit benchmark: three seeded workloads, end-to-end and per-layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload shear_search --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads one after the other.

Workloads (see cases.py for the designs):

* shear_search    shear, constant form, Fuchs decomposition, fundamental
                  matrix and solver round trips, dims 1-6 plus a dim-7 cliff;
* wide_conductor  rm(mon(M)) with a horizontal witness and mon(rm(V)) with a
                  conjugacy witness at conductors 24-84, and rank-one mon of
                  N(1/1009), N(1/2003);
* cli_mix         one ``python -m fuchskit.cli`` process per invocation over
                  every data command.

Each workload is a closed loop with one client: one process, no threads, and
each case starts when the previous one has finished (cli_mix runs one
subprocess at a time).  The loop cycles through the seeded case list until
it has made at least two whole passes and ``--seconds`` have gone by.  Every
output is checked exactly, and for seeds recorded in digests.json its jsonio
digest must match.

``--trace 0`` prints the end-to-end metrics.  Every timing is scaled to a
reference host speed (see PROBE_REF_S below).  A case's time is the median
of its scaled times in the run, so that a spell of another host speed during
one pass does not move the result.  cases_per_s is the correctly completed
cases of the list over the sum of the case times; case_p50_ms is the median
case time; case_tail_ms is the case time at the highest percentile with at
least ten samples beyond it when each case counts twice (fixed per
workload); setup_s is the median of three set-ups, each from process start
to the first timed case; and peak_rss_mb.  fail_frac is printed and stored
with the record; the last line carries it as ``failed``/``attempted``.

``--trace 1`` runs a fixed subset of the cases (whatever ``--seconds`` says)
once to warm up, once untraced, once with spans and once with counters, and
prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full record, with the run metadata (rational
backend, Python version, git commit, nproc), goes to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("shear_search", "wide_conductor", "cli_mix")
SETUP_SAMPLES = 3
MIN_PASSES = 2
CASE_TIMEOUT_S = 150

# Host-speed reference.  A shared host's speed swings by up to half again
# for minutes at a time, for every program on it alike, which no statistic
# within one run can remove.  A fixed integer loop (benchmark code, never the
# program's) runs between every two timed cases and around every set-up, and
# the time of each is scaled by PROBE_REF_S over the median loop time of the
# PROBE_WINDOW probes on either side of it.  Timings are thus seconds of a
# host on which the loop takes PROBE_REF_S; the records keep the raw wall
# times next to them.
PROBE_REF_S = 0.005
PROBE_LOOP = 60_000
PROBE_WINDOW = 3

# Traced runs use a fixed slice (start, stop, step) of the case list, so two
# traced runs of one seed do exactly the same work.  shear_search leaves out
# its dim-6 and dim-7 cases, which would dominate the four traced passes.
TRACE_SUBSET = {
    "shear_search": slice(0, 11, 2),
    "wide_conductor": slice(0, None, 2),
    "cli_mix": slice(None),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_library():
    """Import fuchskit from this checkout's src/ (never from elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "fuchskit", "__init__.py")):
        raise SystemExit(f"error: no fuchskit sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fuchskit

    if os.path.dirname(os.path.dirname(os.path.abspath(fuchskit.__file__))) != SRC:
        raise SystemExit(f"error: imported fuchskit from {fuchskit.__file__}, not {SRC}")
    return fuchskit


# ---------------------------------------------------------------------------
# worker: set-up, timed loop, traced passes


class Workload:
    """A case list and, when the seed is recorded, the expected digests."""

    def __init__(self, name, cases, expected=None):
        if expected is not None and len(expected) != len(cases):
            raise SystemExit(f"error: {len(expected)} recorded digests for {len(cases)} cases")
        self.name, self.cases, self.expected = name, cases, expected

    @classmethod
    def prepare(cls, name, seed):
        """Generate the inputs, attach the references, and warm up."""
        import cases

        case_list = cases.make_cases(name, seed)
        if name == "cli_mix":
            case_list = [with_reference_output(c) for c in case_list]
        workload = cls(name, case_list, load_digests().get(name, {}).get(str(seed)))
        for case in cases.warmup_cases(name, seed):
            cases.run_case(case)
        return workload

    def run_case(self, index, case, runner, scope=None):
        """(ok, seconds, error) for one case; never raises."""
        import cases

        t0 = time.perf_counter()
        try:
            docs = cases.run_case(case, scope=scope, cli=runner)
            error = None
            if self.expected is not None and cases.digest(docs) != self.expected[index]:
                error = "output digest differs from digests.json"
        except Exception as exc:  # a failing case is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        return error is None, time.perf_counter() - t0, error


def with_reference_output(case):
    """Attach the in-process CLI output as the expected subprocess stdout."""
    import cases

    code, out = run_cli_inprocess(case.inputs["argv"], case.inputs["stdin"])
    if code != 0:
        raise SystemExit(f"error: fixture {case.stratum} fails in-process: {out.decode()[:200]}")
    return cases.Case(case.kind, case.stratum, dict(case.inputs, expected=out))


def run_cli_subprocess(argv, stdin_text):
    proc = subprocess.run(
        [sys.executable, "-m", "fuchskit.cli", *argv],
        input=stdin_text.encode(),
        capture_output=True,
        env=child_env(),
        timeout=CASE_TIMEOUT_S,
        cwd=ROOT,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv, stdin_text):
    import contextlib
    import io

    from fuchskit import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def probe():
    """Wall time of the host-speed reference loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i
    return time.perf_counter() - t0


def scaled(seconds, probes):
    """Wall time scaled to the reference host speed, given the probe times
    around it."""
    return seconds * PROBE_REF_S / statistics.median(probes)


def timed_loop(workload, seconds):
    """Cycle through the case list until at least MIN_PASSES whole passes
    are done and ``seconds`` have gone by; stop at a case boundary, so a
    run ends within one case of that point."""
    errors, times = [], []
    probes = [probe() for _ in range(PROBE_WINDOW)]
    case_ok = [True] * len(workload.cases)
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        index = attempted % len(workload.cases)
        case = workload.cases[index]
        ok, dt, error = workload.run_case(index, case, run_cli_subprocess)
        probes.append(probe())
        times.append(dt)
        attempted += 1
        if not ok:
            failed += 1
            case_ok[index] = False
            errors.append({"index": index, "stratum": case.stratum, "error": error})
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and attempted >= MIN_PASSES * len(workload.cases):
            break
    probes += [probe() for _ in range(PROBE_WINDOW - 1)]
    # Attempt a ran between probes[a + PROBE_WINDOW - 1] and the next one.
    per_case = [[] for _ in workload.cases]
    raw = [[] for _ in workload.cases]
    for a, dt in enumerate(times):
        per_case[a % len(workload.cases)].append(scaled(dt, probes[a : a + 2 * PROBE_WINDOW]))
        raw[a % len(workload.cases)].append(dt)
    return {
        "case_medians": [statistics.median(ts) for ts in per_case],
        "raw_case_medians": [statistics.median(ts) for ts in raw],
        "cases_ok": sum(case_ok),
        "attempted": attempted,
        "failed": failed,
        "elapsed": elapsed,
        "errors": errors[:20],
    }


def peak_rss_mb(workload_name):
    import resource

    who = resource.RUSAGE_CHILDREN if workload_name == "cli_mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_passes(workload, spans_path):
    """Per-layer metrics over a fixed subset: a warm-up pass, an untraced
    pass, a pass with spans and a pass with counters.  The spans are
    written to spans_path."""
    from spans import SPANS, Counter, Tracer

    import cases

    subset = list(enumerate(workload.cases))[TRACE_SUBSET[workload.name]]
    inprocess = workload.name == "cli_mix"
    runner = run_cli_inprocess if inprocess else run_cli_subprocess
    targets = dict(SPANS)
    for kind in ("decode", "encode"):
        targets[f"jsonio.{kind}"] = [("fuchskit.jsonio", n) for n in vars(cases.jsonio) if n.startswith(kind + "_")]
    if inprocess:
        targets["cli.main"] = [("fuchskit.cli", "main")]

    def one_pass(scope=None, tracer=None):
        attempted = failed = 0
        t0 = time.perf_counter()
        for index, case in subset:
            if tracer is not None:
                tracer.case_id = index
                with tracer.span("case." + case.kind):
                    ok, _, _ = workload.run_case(index, case, runner, scope=scope)
            else:
                ok, _, _ = workload.run_case(index, case, runner)
            attempted += 1
            failed += not ok
        return attempted, failed, time.perf_counter() - t0

    _, fail_w, _ = one_pass()  # fills the lazy tables of the subset
    att, fail_u, untraced_s = one_pass()
    tracer = Tracer()
    with tracer.installed(targets, extra_modules=[cases]):
        _, fail_t, traced_s = one_pass(scope=lambda name: tracer.span("scope." + name), tracer=tracer)
    counter = Counter()
    with counter.installed():
        _, fail_c, _ = one_pass()

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "parent", "case", "start", "end", "info"], "spans": tracer.spans}, fh)

    totals = tracer.totals()
    metrics = {}
    for name in SPANS:
        rec = totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")
        metrics[f"{name}.total_s"] = (rec["total_s"], "s")
    metrics["linalg.poly_roots.max_degree"] = (max(totals.get("linalg.poly_roots", {}).get("info", []) or [0]), "degree")
    metrics["linalg.rref.max_cols"] = (max(totals.get("linalg.rref", {}).get("info", []) or [0]), "count")
    for key in ("scalar.cyclo_mul.calls", "scalar.cyclo_inverse.calls", "laurent.mul.calls", "expring.sigma.calls"):
        metrics[key] = (counter.counts.get(key, 0), "count")
    metrics["scalar.max_conductor"] = (counter.max_conductor, "conductor")

    roundtrips = totals.get("scope.roundtrip", {}).get("calls", 0)
    jordans = tracer.count_under("linalg.jordan_form", "scope.roundtrip")
    metrics["functors.jordan_per_roundtrip"] = (jordans / roundtrips if roundtrips else 0.0, "ratio")
    witnesses = sum(1 for found in totals.get("functors.horizontal_isomorphism", {}).get("info", []) if found)
    dets = tracer.count_under("linalg.det_cofactor", "functors.horizontal_isomorphism")
    metrics["functors.witness_dets_per_success"] = (dets / witnesses if witnesses else 0.0, "ratio")

    jsonio_s = {k: totals.get(f"jsonio.{k}", {}).get("total_s", 0.0) for k in ("decode", "encode")}
    metrics["jsonio.decode_s"] = (jsonio_s["decode"], "s")
    metrics["jsonio.encode_s"] = (jsonio_s["encode"], "s")
    interp = import_ = compute = 0.0
    if inprocess:
        interp = median_wall([sys.executable, "-c", "pass"], 5)
        import_ = median_wall([sys.executable, "-c", "import fuchskit.cli"], 5) - interp
        compute = totals.get("cli.main", {}).get("total_s", 0.0) - jsonio_s["decode"] - jsonio_s["encode"]
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (import_, "s")
    metrics["cli.compute_s"] = (compute, "s")

    metrics["trace.untraced_cases_per_s"] = ((att - fail_u) / untraced_s, "1/s")
    metrics["trace.cases_per_s"] = ((att - fail_t) / traced_s, "1/s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return {
        "metrics": metrics,
        "attempted": 4 * att,
        "failed": fail_w + fail_u + fail_t + fail_c,
        "subset": [i for i, _ in subset],
    }


def median_wall(cmd, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def worker(args):
    fuchskit = import_library()
    workload = Workload.prepare(args.workload, args.seed)
    print("ready", flush=True)
    if args.role == "setup":
        return 0
    info = {"backend": fuchskit.BACKEND, "cases": len(workload.cases), "recorded_digests": workload.expected is not None}
    if args.trace:
        info.update(traced_passes(workload, os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")))
    else:
        info.update(timed_loop(workload, args.seconds))
        info["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(json.dumps(info), flush=True)
    return 0


# ---------------------------------------------------------------------------
# launcher: set-up samples, the worker, the report


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def spawn(args, role):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: {role} process exited with code {code}")
    return setup, rest


def tail_percentile(cases):
    """The highest percentile with at least ten samples beyond it when each
    case counts MIN_PASSES times.  It is fixed by the case list, so a faster
    commit, which fits more passes in a run, reports the same percentile."""
    n = MIN_PASSES * cases
    return 100.0 * max(n - 10, 1) / n


def percentile(samples, pct):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def launcher(args):
    if not os.path.isfile(os.path.join(SRC, "fuchskit", "__init__.py")):
        print(f"error: no fuchskit sources under {SRC}", file=sys.stderr)
        return 2
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            before = [probe() for _ in range(PROBE_WINDOW)]
            setup = spawn(args, "setup")[0]
            setups.append(scaled(setup, before + [probe() for _ in range(PROBE_WINDOW)]))
            raw_setups.append(setup)
    payload = spawn(args, "worker")[1]
    info = json.loads(payload.strip().splitlines()[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": {
            "backend": info["backend"],
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "nproc": os.cpu_count(),
        },
        "cases": info["cases"],
        "recorded_digests": info["recorded_digests"],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in info["metrics"].items()}
        record.update(attempted=info["attempted"], failed=info["failed"], trace_subset=info["subset"])
    else:
        medians = info["case_medians"]
        pct = tail_percentile(info["cases"])
        metrics = {
            "cases_per_s": {"value": info["cases_ok"] / sum(medians), "unit": "1/s"},
            "case_p50_ms": {"value": 1000.0 * statistics.median(medians), "unit": "ms"},
            "case_tail_ms": {"value": 1000.0 * percentile(medians * MIN_PASSES, pct), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": info["peak_rss_mb"], "unit": "MB"},
        }
        record.update(
            attempted=info["attempted"],
            failed=info["failed"],
            fail_frac=info["failed"] / info["attempted"],
            tail_percentile=pct,
            passes=info["attempted"] / info["cases"],
            setup_samples_s=setups,
            raw_setup_samples_s=raw_setups,
            raw_case_medians_s=info["raw_case_medians"],
            probe_ref_s=PROBE_REF_S,
            elapsed_s=info["elapsed"],
            errors=info["errors"],
        )
    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    meta = record["meta"]
    print(f"# {args.workload} seed={args.seed} backend={meta['backend']} python={meta['python']} "
          f"commit={meta['git_commit'][:12]} nproc={meta['nproc']}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6f} {m['unit']}")
    if not args.trace:
        print(f"{'case_tail_ms percentile':42s} {record['tail_percentile']:>16.2f} p (of {MIN_PASSES} x {record['cases']} case medians)")
        print(f"{'fail_frac':42s} {record['fail_frac']:>16.6f} ({info['failed']}/{info['attempted']})")
        raw_p50 = 1000.0 * statistics.median(record["raw_case_medians_s"])
        print(f"{'case_p50_ms unscaled':42s} {raw_p50:>16.6f} ms (raw wall time)")
    for err in record.get("errors", [])[:5]:
        print(f"failed case {err['index']} ({err['stratum']}): {err['error']}")
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="fuchs-kit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launcher", "worker", "setup"), default="launcher", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(launcher(argparse.Namespace(**dict(vars(args), workload=w))) for w in WORKLOADS)
    if args.role == "launcher":
        return launcher(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
