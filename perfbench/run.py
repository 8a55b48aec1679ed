"""Benchmark of ghderiv's command line: ``solve``, ``check`` and ``verify-paper``.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Every operation goes through ``ghderiv.cli.main(argv)`` in this
process and thread, with stdout sent to a file.  A run repeats whole rounds of
the workload's operations until the next round would end past ``--seconds``
(at least one round), then checks every distinct output against the
reference code in this directory.  The last line of stdout is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics of
a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GEN = HERE / "_gen"
SETUP_PROBES = 21

# The size ladder: (--algebra, --n or None, rings).  Tensor products and
# the quaternions exist over Q only.
LADDER = (
    [("tn", n, ("q", "z5")) for n in range(2, 9)]
    + [("mn", n, ("q", "z5")) for n in range(2, 6)]
    + [
        ("quat", None, ("q",)),
        ("poly:tn2:2", None, ("q", "z5")),
        ("poly:mn2:1", None, ("q", "z5")),
        ("poly:ring:3", None, ("q", "z5")),
        ("tensor:tn2:tn2", None, ("q",)),
        ("tensor:quat:ring", None, ("q",)),
    ]
)
PAPER_KINDS = ("left-gh", "jordan-left-gh")


def load_cli():
    """Import ghderiv.cli from this checkout's src, or exit nonzero."""
    if not (SRC / "ghderiv" / "cli.py").is_file():
        sys.exit(f"error: no ghderiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ghderiv.cli

    if Path(ghderiv.cli.__file__).resolve().parent != SRC / "ghderiv":
        sys.exit(f"error: ghderiv imported from {ghderiv.cli.__file__}, not {SRC}")
    return ghderiv.cli


def call(cli, argv, out_path: Path):
    """(exit code or None on an exception, seconds) of one CLI call.

    Stdout goes to ``out_path``, as it would to a file or pipe, so that the
    captured output adds nothing to the memory measured.
    """
    with open(out_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):
            rc = None
        seconds = time.perf_counter() - start
    return rc, seconds


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Workload:
    """Operations of one workload; subclasses say what a round runs and how
    an output is judged."""

    name = ""

    def __init__(self, cli, seed: int):
        self.cli = cli
        self.tracer = None
        self.out_dir = GEN / self.name / f"seed-{seed}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.stdout = self.out_dir / "stdout.json"
        self.attempts: list[tuple] = []  # (op index, exit code, output digest)
        self.outputs: dict[tuple, Path] = {}
        self.out_bytes = 0

    def attach(self, tracer) -> None:
        """Record spans of the workload's own timing in ``tracer``."""
        self.tracer = tracer

    def probe_inputs(self) -> list[str]:
        """Documents the program needs loaded before its first operation."""
        return []

    def record(self, index: int, rc) -> None:
        """Note one attempt; each distinct (exit code, output) stays on disk
        until it is checked after the run."""
        self.out_bytes += self.stdout.stat().st_size
        digest = hashlib.sha256(self.stdout.read_bytes()).hexdigest()
        key = (index, rc, digest)
        self.attempts.append(key)
        if key not in self.outputs:
            self.outputs[key] = self.stdout.rename(
                self.out_dir / f"out-{index:03d}-{rc}-{digest[:12]}.json")

    def run_round(self):
        """Run every operation once; returns the wall time and each one's time."""
        start = time.perf_counter()
        times = []
        for index, argv in enumerate(self.argvs):
            rc, seconds = call(self.cli, argv, self.stdout)
            self.record(index, rc)
            times.append(seconds)
        return time.perf_counter() - start, times

    def ops_per_round(self) -> int:
        return len(self.argvs)

    def judge(self, index: int, rc, text: str) -> tuple[int, list[str]]:
        """(operations failed, problems showing a wrong answer) for one output.

        A crash or nonzero exit fails the operation; a wrong answer fails
        it and is reported as a problem.
        """
        if rc != 0:
            return 1, []
        try:
            problems = self.problems(index, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return int(bool(problems)), problems

    def tally(self) -> tuple[int, int, list[str]]:
        """Operations attempted and failed, and every problem found."""
        verdicts = {
            key: self.judge(key[0], key[1], path.read_text(encoding="utf-8"))
            for key, path in self.outputs.items()
        }
        failed = sum(verdicts[key][0] for key in self.attempts)
        problems = [f"operation {key[0]}: {p}" for key, (_, ps) in verdicts.items() for p in ps]
        rounds = len(self.attempts) // len(self.argvs)
        return rounds * self.ops_per_round(), failed, problems


class Solve(Workload):
    """ghderiv solve over the size ladder, both paper kinds, Q and Z/5."""

    name = "solve"

    def __init__(self, cli, seed):
        super().__init__(cli, seed)
        self.ops = []
        for algebra, n, rings in LADDER:
            spec = f"{algebra}{n}" if n else algebra
            size = ["--n", str(n)] if n else []
            for ring in rings:
                for kind in PAPER_KINDS:
                    argv = ["solve", "--algebra", algebra, *size, "--kind", kind, "--ring", ring]
                    self.ops.append((argv, spec, kind, ring))
        self.argvs = [op[0] for op in self.ops]

    def problems(self, index, text):
        import reference as ref

        _, spec, kind, ring = self.ops[index]
        return ref.verify_space_doc(json.loads(text), spec, kind, ref.Ring.from_name(ring))


class Check(Workload):
    """ghderiv check on generated triple and map documents."""

    name = "check"

    def __init__(self, cli, seed):
        super().__init__(cli, seed)
        self.inputs = GEN / "inputs" / f"seed-{seed}"
        shutil.rmtree(self.inputs, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen_inputs.py"), "--seed", str(seed),
             "--out", str(self.inputs)],
            check=True,
        )
        manifest = json.loads((self.inputs / "manifest.json").read_text(encoding="utf-8"))
        self.expected = [m["expected"] for m in manifest]
        self.argvs = [m["argv"] for m in manifest]

    def probe_inputs(self):
        return [str(self.inputs / "docs")]

    def problems(self, index, text):
        got = json.loads(text)
        return [] if got == self.expected[index] else [f"{got} != {self.expected[index]}"]


class VerifyPaper(Workload):
    """ghderiv verify-paper --json; one operation is one catalog entry."""

    name = "verify-paper"
    argvs = [["verify-paper", "--json"]]

    def __init__(self, cli, seed):
        super().__init__(cli, seed)
        rc, _ = call(cli, ["catalog", "--json"], self.stdout)
        if rc != 0:
            sys.exit("error: ghderiv catalog --json failed")
        self.ids = sorted(e["id"] for e in json.loads(self.stdout.read_text())["entries"])
        self.entry_times: dict[str, float] = {}
        self._wrap_entries(sys.modules["ghderiv.catalog"])

    def _wrap_entries(self, catalog):
        """Time each entry's run from outside, spanning the polylift ones.

        The report's own "seconds" are rounded to 0.1 ms, and the fastest
        entries read 0.0 there, so they cannot give a geometric mean.
        """
        original = getattr(catalog, "entries", None)
        if original is None:
            sys.exit("error: ghderiv.catalog.entries is gone; verify-paper times "
                     "each catalog entry through it")
        times = self.entry_times

        def timed(entry):
            def run(ctx):
                span = None
                if self.tracer is not None and entry.id.startswith("polylift-"):
                    span = self.tracer.open("catalog.polylift")
                start = time.perf_counter()
                try:
                    return entry.run(ctx)
                finally:
                    times[entry.id] = time.perf_counter() - start
                    if span is not None:
                        self.tracer.close(span)
            return dataclasses.replace(entry, run=run)

        catalog.entries = lambda: [timed(e) for e in original()]

    def run_round(self):
        self.entry_times.clear()
        rc, seconds = call(self.cli, self.argvs[0], self.stdout)
        out = self.stdout.read_text(encoding="utf-8")
        # Entry timings vary from run to run; keep them out of the output kept.
        self.stdout.write_text(re.sub(r'"seconds": [-0-9.e]+', '"seconds": 0', out),
                               encoding="utf-8")
        self.record(0, rc)
        return seconds, [self.entry_times.get(i, seconds) for i in self.ids]

    def ops_per_round(self):
        return len(self.ids)

    def judge(self, index, rc, text):
        """Every entry that did not pass or note fails; so do all on a crash."""
        try:
            status = {e["id"]: e["status"] for e in json.loads(text)["entries"]}
        except (ValueError, KeyError, TypeError):
            return len(self.ids), []
        bad = [i for i in self.ids if status.get(i) not in ("pass", "note")]
        if rc != 0 and not bad:
            return len(self.ids), [f"exit code {rc} with no failed entry"]
        return len(bad), []


WORKLOADS = {w.name: w for w in (Solve, Check, VerifyPaper)}


def setup_seconds(inputs: list[str]) -> float:
    """Median time from process start until ghderiv and the inputs are loaded."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), *inputs],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit("error: set-up probe failed")
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    sys.path.insert(0, str(HERE))
    workload = WORKLOADS[args.workload](cli, args.seed)
    setup = None if args.trace else setup_seconds(workload.probe_inputs())

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer().install()
        workload.attach(tracer)

    walls, geomeans = [], []
    start = time.perf_counter()
    while True:
        wall, times = workload.run_round()
        walls.append(wall)
        geomeans.append(geomean(times) * 1000)
        if time.perf_counter() - start + wall > args.seconds:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    rounds = len(walls)
    attempted, failed, problems = workload.tally()
    for problem in problems[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_geomean_ms": {"value": statistics.median(geomeans), "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
        }
    else:
        metrics = tracer.metrics(rounds, sum(walls), workload.out_bytes)
        trace_path = GEN / f"trace-{args.workload}-seed-{args.seed}.json"
        tracer.dump(trace_path)
        print(f"traced wall_s {statistics.median(walls):.3f}; spans in {trace_path}",
              file=sys.stderr)
        if tracer.absent():
            print(f"absent (read 0): {', '.join(tracer.absent())}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds, walls {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
