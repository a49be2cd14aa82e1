"""aftkit benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload model-prop --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; aftkit is imported from ``src/``.
One closed-loop client on one thread calls ``aftkit.cli.main(argv)``
in-process with stdout and stderr captured, one op at a time. Every op's
output is checked against a reference from ``oracle``, computed without
aftkit and outside the timed region.

Workloads (inputs come from ``--seed``; see ``gen``):

- ``model-prop``: rounds of distinct propositional programs of 3 to 5 atoms,
  each run under bilat-bool in kk and wf and under lu-bool in kk; reference
  rows are the negation chain for N = 4, 5, 6 under bilat-bool in kk and wf.
  lu-bool in wf is not part of the workload, because it fails on most
  programs with negation (``InconsistentRevision``, a known defect); the
  traced run probes it on the traced programs and counts the failures.
- ``model-ho``: rounds of non-recursive higher-order programs (``model
  --json``, then ``project`` on its output) and ``space`` listings of the
  closure types; reference rows are the identity sample under both builtins
  and the 2-symbol second-order program under lu-bool.
- ``laws``: ``laws --suite <s>`` for each of the four suites at the default
  size; one round is one pass, and the pass is the reference. The suites take
  no seeded input.

``--trace 0`` runs whole rounds until they have taken ``--seconds`` of op
time (at least one), with the reference rows run once, one after each round.
The metrics of the last line are ``setup_s``, ``peak_rss_mb`` and
``ref_ops_per_s``. aftkit is a batch tool, so work per second at the
workload's input sizes is its throughput measure: ``ops_per_s`` is the median
over rounds of each round's correct ops per second of op time. The cores of a
shared host change speed by up to a half within a minute, which moves
``ops_per_s`` between runs as much as a real change would. So
``SpeedProbe`` times ``reference_loop``, a fixed stdlib loop of the bit-row and
dict work aftkit's order and fixpoint code does, from a timer signal every
``SPEED_INTERVAL_S`` during the ops; its time is taken out of the op times.
``ref_ops_per_s`` is the median over rounds of each round's correct ops per
reference second, where a round's op time is scaled by ``REF_LOOP_S`` over the
median loop time sampled during its ops: the op rate of a machine on which the
loop takes ``REF_LOOP_S``. The loop does not call aftkit, so a change to aftkit
moves ``ref_ops_per_s`` as it moves ``ops_per_s``. ``setup_s`` is the median
time of several fresh interpreters importing aftkit and loading both builtins,
spread over the run, in reference seconds of the same kind: scaled by
``REF_LOOP_S`` over the median loop time of the whole run (``setup_wall_s`` is
the unscaled median). Latencies (``op_s.p50``,
``model_s.p50``, ``model_s.tail`` with its percentile and sample count,
``project_s.p50``, ``space_s.p50``, ``laws.<suite>_s``, ``reference_s``),
``ops_per_s``, ``setup_wall_s``, ``ref_loop_s.p50``, ``fail_ratio`` and
failures per op class are printed above it.

``--trace 1`` runs the reference rows and a fixed number of rounds twice,
first untraced and then with ``tracing.Tracer`` installed, and reports
per-layer self times and counts; the counts repeat exactly for a seed. On
model-prop it then runs lu-bool in wf on every traced program, outside the
workload, and reports ``known_defect.lu_wf.ops`` and
``known_defect.lu_wf.inconsistent``.

Seed 7919 is held out: a claimed gain is confirmed on it as well, and
nothing is tuned against it.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An op fails when it raises, exits with an
unexpected code, or prints output unequal to the reference; any failure sets
``correct`` false. The probe ops of the traced run are not counted in
``attempted`` or ``failed``: an ``InconsistentRevision`` (exit 1) there is the
known defect it counts, and any other failure or a wrong answer sets
``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gen
import oracle
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

SETUP_PROBES = 7
# reference_loop size, and its time in seconds on a quiet core of a 2-vCPU
# Intel Xeon host under CPython 3.11 (the unit of ref_ops_per_s).
REF_LOOP_N = 128
REF_LOOP_S = 0.00128
# One reference_loop sample per interval costs about 0.6% of op time.
SPEED_INTERVAL_S = 0.2
TRACE_ROUNDS = {"model-prop": 3, "model-ho": 3, "laws": 1}
# Safety stop for the measuring loop, far below the per-run time limit.
MAX_ROUND_SECONDS = 120.0

SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import aftkit.cli\n"
    "from aftkit.systems import load_system\n"
    "load_system('builtin:bilat-bool')\n"
    "load_system('builtin:lu-bool')\n"
    "print(repr(time.perf_counter() - t))\n"
)

KNOWN_FAILURE = re.compile(r"error: revision value .* is not paired with upper bound")


def reference_loop(n=REF_LOOP_N):
    """Fixed work like aftkit's hot loops: dict lookups of tuple elements and
    bit extraction from integer rows. Uses no aftkit code."""
    elements = [(i % 4, i // 4) for i in range(n)]
    index = {e: i for i, e in enumerate(elements)}
    above = [sum(1 << j for j in range(i, n, i % 5 + 1)) for i in range(n)]
    below = [0] * n
    hits = 0
    for i in range(n):
        row = above[i]
        while row:
            low = row & -row
            j = low.bit_length() - 1
            below[j] |= 1 << i
            if index[elements[j]] >= i:
                hits += 1
            row ^= low
    return hits, below


class SpeedProbe:
    """Samples the machine's speed while ops run: a SIGALRM handler times one
    ``reference_loop`` every ``SPEED_INTERVAL_S``. ``spent`` is the time the
    handler took, which the runner takes out of op times."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_loop()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Op:
    """One CLI call: its class for per-class reporting, argv and a check that
    maps (exit code, stdout, stderr) to ``"ok"``, ``"InconsistentRevision"``
    or a description of what is wrong."""

    __slots__ = ("cls", "argv", "check")

    def __init__(self, cls, argv, check):
        self.cls = cls
        self.argv = argv
        self.check = check


class Record:
    __slots__ = ("cls", "seconds", "status", "phase", "round", "speed")

    def __init__(self, cls, seconds, status, phase, round_no, speed=()):
        self.cls = cls
        self.seconds = seconds
        self.status = status
        self.phase = phase
        self.round = round_no
        self.speed = speed  # SpeedProbe samples taken during the op


class Runner:
    """Executes ops in-process, times each call and checks its output."""

    def __init__(self, cli, tracer=None, setup=None, speed=None):
        self.cli = cli  # the module: main is looked up per call, so tracing sees it
        self.tracer = tracer
        self.setup = setup
        self.speed = speed
        self.records = []
        self.busy = 0.0
        self.round_no = 0  # set by run_workload before each round

    def run(self, op: Op, phase: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        speed = self.speed
        if speed is not None:
            first, spent = len(speed.samples), speed.spent
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed op
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        samples = ()
        if speed is not None:
            samples = tuple(speed.samples[first:])
            seconds -= speed.spent - spent
        if isinstance(rc, str):
            status = rc
        else:
            try:
                status = op.check(rc, out.getvalue(), err.getvalue())
            except ValueError as exc:  # output that is not the expected JSON
                status = f"unreadable output: {exc}"
        self.records.append(Record(op.cls, seconds, status, phase, self.round_no, samples))
        self.busy += seconds
        if self.setup is not None:
            self.setup.maybe(self.busy)
        return out.getvalue() if status == "ok" else None


# ---------------------------------------------------------------------------
# Workloads


def _json_check(expected_fn, known=False):
    """Check that stdout is JSON equal to ``expected_fn()``. With ``known``,
    an exit 1 with the InconsistentRevision message is reported as the known
    defect rather than as a wrong answer."""

    def check(rc, out, err):
        if rc == 0:
            return "ok" if json.loads(out) == expected_fn() else "output differs from reference"
        if known and rc == 1 and KNOWN_FAILURE.match(err):
            return "InconsistentRevision"
        return f"exit {rc}: {err.strip()[:200]}"

    return check


def _write(tmp: Path, name: str, program) -> str:
    path = tmp / name
    path.write_text(gen.render_program(program), encoding="utf-8")
    return str(path)


def _prop_op(program, path, system, mode):
    return Op(f"model {system} {mode}",
              ["model", path, "--system", f"builtin:{system}", "--mode", mode, "--json"],
              _json_check(lambda: oracle.prop_model_doc(program, mode),
                          known=(system == "lu-bool" and mode == "wf")))


class ModelProp:
    name = "model-prop"

    def __init__(self, seed, tmp):
        self.tmp = tmp
        self.rounds = gen.prop_rounds(seed)
        self.count = 0
        self.programs = []  # (program, path) of every round program run

    def reference_steps(self):
        def step(n, mode):
            program = gen.chain_program(n)
            op = _prop_op(program, _write(self.tmp, f"chain{n}-{mode}.hl", program),
                          "bilat-bool", mode)
            op.cls = f"chain N={n} bilat-bool {mode}"
            return lambda runner: runner.run(op, "reference")

        return [step(n, mode) for n in (6, 5, 4) for mode in gen.MODES]

    def round(self, runner):
        for program in next(self.rounds):
            self.count += 1
            path = _write(self.tmp, f"prop{self.count}.hl", program)
            self.programs.append((program, path))
            for system, mode in gen.PROP_CLASSES:
                runner.run(_prop_op(program, path, system, mode), "round")

    def probe(self, runner):
        """The known defect: lu-bool in wf on every program run so far."""
        system, mode = gen.KNOWN_DEFECT
        for program, path in self.programs:
            runner.run(_prop_op(program, path, system, mode), "probe")


class ModelHO:
    name = "model-ho"

    def __init__(self, seed, tmp):
        self.tmp = tmp
        self.rounds = gen.ho_rounds(seed)
        self.count = 0

    def _round_trip(self, runner, program, systems, phase, label="model"):
        self.count += 1
        path = _write(self.tmp, f"ho{self.count}.hl", program)
        # (model document, projection document) per system, computed once
        expected = functools.cache(lambda system: oracle.ho_docs(program, system))
        for system in systems:
            op = Op(f"{label} {system} kk",
                    ["model", path, "--system", f"builtin:{system}", "--mode", "kk", "--json"],
                    _json_check(lambda: expected(system)[0]))
            out = runner.run(op, phase)
            if out is None:
                continue
            model_path = self.tmp / f"ho{self.count}-{system}.json"
            model_path.write_text(out, encoding="utf-8")
            runner.run(Op(f"project {system}",
                          ["project", str(model_path), "--system", f"builtin:{system}", "--json"],
                          _json_check(lambda: expected(system)[1])), phase)

    def reference_steps(self):
        return [
            lambda runner: self._round_trip(runner, gen.SECOND_ORDER, ("lu-bool",),
                                            "reference", "second-order"),
            lambda runner: self._round_trip(runner, gen.IDENTITY, gen.SYSTEMS,
                                            "reference", "identity"),
        ]

    def round(self, runner):
        for program, systems in next(self.rounds):
            self._round_trip(runner, program, systems, "round")
        for system, type_text, show in gen.SPACE_QUERIES:
            def expected(system=system, type_text=type_text, show=show):
                rows = oracle.space_doc(system, type_text, show)
                return {"system": system, "type": type_text, "count": len(rows),
                        "elements": rows}

            runner.run(Op(f"space {system}",
                          ["space", "--system", f"builtin:{system}", "--type", type_text,
                           "--show", show, "--json"],
                          _json_check(expected)), "round")


class Laws:
    name = "laws"

    def __init__(self, seed, tmp):
        # The suites have no seeded input; a fixed order keeps peak memory
        # comparable between runs.
        self.results = self.skipped = 0

    def reference_steps(self):
        return []

    def round(self, runner):
        for suite in gen.LAW_SUITES:
            def check(rc, out, err, suite=suite):
                lines = out.splitlines()
                if rc != 0:
                    return f"exit {rc}: {err.strip()[:200]}"
                if not lines or lines[-1] != oracle.LAWS_SUMMARY[suite]:
                    return f"summary {lines[-1] if lines else ''!r}"
                return "ok"

            out = runner.run(Op(f"laws {suite}", ["laws", "--suite", suite], check), "round")
            if out is not None:
                lines = out.splitlines()
                self.results += sum(1 for line in lines if line.startswith("["))
                self.skipped += sum(1 for line in lines if line.startswith("[SKIP]"))


# ---------------------------------------------------------------------------
# Metrics


def tail(values):
    """Highest whole percentile with at least ten samples above it, as
    (percentile, value); None with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(n * pct / 100))  # nearest rank; n - rank >= 10
    return pct, sorted(values)[rank - 1]


def round_rates(rounds, scaled=False):
    """Correct ops per second of op time, one figure per round; with
    ``scaled``, per reference second (see the module docstring). A round
    without speed samples is left out of the scaled figures."""
    per_round = {}
    for r in rounds:
        entry = per_round.setdefault(r.round, [0, 0.0, []])
        entry[0] += r.status == "ok"
        entry[1] += r.seconds
        entry[2].extend(r.speed)
    rates = []
    for ok, seconds, speed in per_round.values():
        if scaled:
            if not speed:
                continue
            seconds *= REF_LOOP_S / statistics.median(speed)
        if seconds > 0:
            rates.append(ok / seconds)
    return rates


def summarize(records, workload):
    """End-to-end figures of one run, as {name: (value, unit, note)}."""
    rounds = [r for r in records if r.phase == "round"]
    ok = [r for r in rounds if r.status == "ok"]
    busy = sum(r.seconds for r in rounds)
    rates = round_rates(rounds)
    ref_rates = round_rates(rounds, scaled=True)
    figures = {}
    figures["op_s.p50"] = (statistics.median(r.seconds for r in ok) if ok else 0.0, "s",
                           f"n={len(ok)}")
    figures["ops_per_s"] = (statistics.median(rates) if rates else 0.0, "1/s",
                            f"median of {len(rates)} rounds; {len(ok)} correct ops "
                            f"in {busy:.3f} s of op time")
    figures["ref_ops_per_s"] = (statistics.median(ref_rates) if ref_rates else 0.0, "1/s",
                                f"median of {len(ref_rates)} rounds, per reference second")
    speed = [t for r in rounds for t in r.speed]
    if speed:
        figures["ref_loop_s.p50"] = (statistics.median(speed), "s",
                                     f"n={len(speed)}; REF_LOOP_S = {REF_LOOP_S}")
    if workload == "laws":
        passes = len(rounds) / 4
        figures["reference_s"] = (busy / passes, "s", "one pass over the four suites")
    else:
        refs = [r for r in records if r.phase == "reference"]
        figures["reference_s"] = (sum(r.seconds for r in refs), "s", f"{len(refs)} reference ops")
    attempted = len(records)
    failed = sum(1 for r in records if r.status != "ok")
    figures["fail_ratio"] = (failed / attempted if attempted else 0.0, "ratio",
                             f"{failed} of {attempted}")

    kinds = {"model": "model_s", "project": "project_s", "space": "space_s"}
    for kind, metric in kinds.items():
        times = [r.seconds for r in ok if r.cls.split()[0] == kind]
        if not times:
            continue
        figures[f"{metric}.p50"] = (statistics.median(times), "s", f"n={len(times)}")
        t = tail(times)
        if t is not None:
            figures[f"{metric}.tail"] = (t[1], "s", f"p{t[0]}, n={len(times)}")
        if kind == "model":
            figures["models_per_s"] = (len(times) / busy, "1/s", "")
    if workload == "laws":
        first = {}
        for r in rounds:
            first.setdefault(r.cls.split()[1], r.seconds)
        figures["laws_s"] = (sum(first.values()), "s", "four suites, first pass")
        for suite, seconds in sorted(first.items()):
            figures[f"laws.{suite}_s"] = (seconds, "s", "")
    return figures


def class_lines(records):
    by_class = {}
    for r in records:
        entry = by_class.setdefault((r.phase, r.cls), [0, {}, []])
        entry[0] += 1
        if r.status != "ok":
            entry[1][r.status] = entry[1].get(r.status, 0) + 1
        else:
            entry[2].append(r.seconds)
    lines = []
    for (phase, cls), (n, failures, times) in sorted(by_class.items()):
        failed = sum(failures.values())
        p50 = f"p50 {statistics.median(times):.4f} s" if times else "no successes"
        detail = "".join(f"; {k}: {v}" for k, v in sorted(failures.items()))
        lines.append(f"  {phase:9s} {cls:32s} {n:4d} ops {failed:4d} failed  {p50}{detail}")
    return lines


def per_layer(tracer, workload, traced_s, untraced_s):
    self_times = tracer.self_times()
    metrics = {}
    for name in tracing.TIMED_SPANS:
        metrics[f"{name}.s"] = (self_times[name], "s")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    metrics["fixpoints.lfp.iterations"] = (
        tracer.child_count("fixpoints.lfp", "fixpoints.Operator.call"), "count")
    metrics["laws.results"] = (getattr(workload, "results", 0), "count")
    metrics["laws.skipped"] = (getattr(workload, "skipped", 0), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# Entry point


class SetupProbe:
    """Set-up time samples: a fresh interpreter imports aftkit and loads both
    builtin systems, timed inside the child. ``maybe`` takes one sample each
    time ``interval`` seconds of op time have passed, so the samples spread
    over the run; ``finish`` tops them up to SETUP_PROBES."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.next_at = 0.0

    def sample(self):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60, check=True)
        self.samples.append(float(proc.stdout.strip()))

    def maybe(self, busy):
        if busy >= self.next_at and len(self.samples) < SETUP_PROBES:
            self.sample()
            self.next_at = busy + self.interval

    def finish(self):
        while len(self.samples) < SETUP_PROBES:
            self.sample()
        return statistics.median(self.samples)


def import_aftkit():
    if not (SRC / "aftkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no aftkit sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import aftkit.cli

    if Path(aftkit.cli.__file__).resolve().parent != SRC / "aftkit":
        raise SystemExit(f"error: imported aftkit from {aftkit.cli.__file__}, not {SRC}")
    return aftkit.cli


def run_workload(workload, runner, budget=None, rounds=None):
    """Whole rounds until they have taken ``budget`` seconds of op time (or
    exactly ``rounds`` rounds), with one reference step after each round, so
    the once-per-run reference rows are spread over the run; steps left over
    run at the end."""
    steps = workload.reference_steps()
    done = 0
    start = perf_counter()
    while True:
        runner.round_no = done
        workload.round(runner)
        done += 1
        if steps:
            steps.pop(0)(runner)
        if rounds is not None:
            if done >= rounds:
                break
            continue
        busy = sum(r.seconds for r in runner.records if r.phase == "round")
        if busy >= budget or perf_counter() - start > MAX_ROUND_SECONDS:
            break
    for step in steps:
        step(runner)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_aftkit()
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        run = traced_run if args.trace else timed_run
        result = run(WORKLOADS[args.workload], args, cli, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _verdict(records, probes=()):
    """The result fields; ``probes`` count toward ``correct`` only."""
    wrong = [r for r in records if r.status != "ok"]
    wrong += [r for r in probes if r.status not in ("ok", "InconsistentRevision")]
    for r in wrong[:20]:
        print(f"WRONG {r.cls}: {r.status}")
    failed = sum(1 for r in records if r.status != "ok")
    return {"correct": not wrong, "attempted": len(records), "failed": failed}


def timed_run(cls, args, cli, tmp):
    setup = SetupProbe(args.seconds / SETUP_PROBES)
    speed = SpeedProbe()
    runner = Runner(cli, setup=setup, speed=speed)
    with speed.running():
        run_workload(cls(args.seed, tmp), runner, budget=args.seconds)
        setup_wall_s = setup.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures = summarize(runner.records, args.workload)
    figures["setup_wall_s"] = (setup_wall_s, "s",
                               "median of " + ", ".join(f"{s:.4f}" for s in setup.samples))
    figures["setup_s"] = (setup_wall_s * REF_LOOP_S / statistics.median(speed.samples), "s",
                          f"reference seconds; {len(speed.samples)} speed samples")
    figures["peak_rss_mb"] = (peak_rss_mb, "MB", "")
    print(f"workload {args.workload} seed {args.seed} trace 0")
    for name, (value, unit, note) in sorted(figures.items()):
        print(f"{name:22s} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print("op classes:")
    print("\n".join(class_lines(runner.records)))
    result = _verdict(runner.records)
    result["metrics"] = {name: {"value": figures[name][0], "unit": figures[name][1]}
                         for name in END_TO_END}
    return result


def trace_pass(cls, seed, cli, tmp):
    """The trace op list once under a fresh tracer:
    (tracer, workload, records, wall seconds)."""
    tracer = tracing.Tracer()
    runner = Runner(cli, tracer)
    workload = cls(seed, tmp)
    tracer.install()
    try:
        start = perf_counter()
        run_workload(workload, runner, rounds=TRACE_ROUNDS[workload.name])
        seconds = perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, workload, runner.records, seconds


def traced_run(cls, args, cli, tmp):
    plain = Runner(cli)
    start = perf_counter()
    run_workload(cls(args.seed, tmp), plain, rounds=TRACE_ROUNDS[args.workload])
    untraced_s = perf_counter() - start
    tracer, workload, records, traced_s = trace_pass(cls, args.seed, cli, tmp)
    tracer.write(WORK_DIR / f"spans-{args.workload}.txt")
    metrics = per_layer(tracer, workload, traced_s, untraced_s)
    probe = Runner(cli)
    if hasattr(workload, "probe"):
        workload.probe(probe)
    metrics["known_defect.lu_wf.ops"] = (len(probe.records), "count")
    metrics["known_defect.lu_wf.inconsistent"] = (
        sum(1 for r in probe.records if r.status == "InconsistentRevision"), "count")
    print(f"workload {args.workload} seed {args.seed} trace 1: {len(records)} ops, "
          f"{len(tracer.names)} spans, traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")
    for name, (value, unit) in sorted(metrics.items()):
        share = f"  {100 * value / traced_s:5.1f}% of traced wall" if unit == "s" else ""
        print(f"{name:44s} {value:.6g} {unit}{share}")
    if probe.records:
        print("probe op classes:")
        print("\n".join(class_lines(probe.records)))
    result = _verdict(plain.records + records, probe.records)
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return result


WORKLOADS = {"model-prop": ModelProp, "model-ho": ModelHO, "laws": Laws}
END_TO_END = ("setup_s", "peak_rss_mb", "ref_ops_per_s")


if __name__ == "__main__":
    sys.exit(main())
