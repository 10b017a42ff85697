"""The benchmark's workloads: closed loops with one client, one op in flight.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up), then yields an endless stream of :class:`Op`.  Only ``Op.run``
is timed; the correctness check runs after it, outside the timed span,
and checks that would touch endcalc's caches are deferred to
:meth:`Workload.finish`.  endcalc functions are looked up on their
modules at call time, so that a :class:`tracer.Tracer` installed before
set-up sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

import surfgen

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# Every public function the traced run wraps, as (module, function).
TRACED = (
    ("endcalc.dsl", "parse"),
    ("endcalc.dsl", "emit_report"),
    ("endcalc.dsl", "report_to_dict"),
    ("endcalc.endspace", "canonicalize_spec"),
    ("endcalc.endspace", "invariant_bundle"),
    ("endcalc.endspace", "preceq"),
    ("endcalc.classify", "classify"),
    ("endcalc.classify", "validate"),
    ("endcalc.classify", "tng_verdict"),
    ("endcalc.classify", "generator_bounds"),
    ("endcalc.oracle", "oracle_preceq"),
    ("endcalc.oracle", "enumerate_trees"),
    ("endcalc.flux", "suite_phi"),
    ("endcalc.flux", "suite_theta"),
    ("endcalc.flux", "suite_normalize"),
    ("endcalc.flux", "swindle_check"),
    ("endcalc.flux", "compose"),
    ("endcalc.flux", "phi"),
    ("endcalc.cli", "main"),
)


class Op(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object], bool]  # gets the result, or the exception raised
    units: int = 1


@dataclass
class Pass:
    latencies: List[float]
    units: List[int]
    failed: int
    traced: List[bool] = field(default_factory=list)  # per op, when traced

    def throughput(self, traced: bool) -> float:
        """Work units per CPU second of the traced ops, or of the untraced
        ones."""
        pick = [i for i, t in enumerate(self.traced) if t == traced]
        return (sum(self.units[i] for i in pick)
                / sum(self.latencies[i] for i in pick))


def closed_loop(stream: Iterator[Op], seconds: Optional[float] = None,
                max_ops: Optional[int] = None, tracer=None,
                clock: Callable[[], float] = thread_time) -> Pass:
    """Run ops one after another until ``seconds`` of wall time, the op
    count or the stream is used up.  Each op is timed by ``clock``."""
    latencies: List[float] = []
    units: List[int] = []
    traced: List[bool] = []
    failed = 0
    deadline = None if seconds is None else perf_counter() + seconds
    for i in itertools.count():
        if max_ops is not None and i >= max_ops:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
        op = next(stream, None)
        if op is None:
            break
        if tracer is not None:
            traced.append(tracer.begin_op(i))
        start = clock()
        try:
            out = op.run()
        except Exception as e:  # judged by the op's check
            out = e
        latencies.append(clock() - start)
        units.append(op.units)
        try:
            ok = op.check(out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            if failed <= 3:
                print("op %d failed: %r" % (i, out)[:500], file=sys.stderr)
    if tracer is not None:
        tracer.stop()
    return Pass(latencies, units, failed, traced)


def _us(totals, name: str, column: int = 1) -> float:
    calls = totals[name][0]
    return totals[name][column] / calls * 1e6


class Workload:
    name = ""
    op_unit = ""  # what one op is
    work_unit = ""  # what throughput counts
    finite = False  # the stream ends after one pass
    rss_ops: Optional[int] = None  # ops after which peak memory is read

    def stream(self) -> Iterator[Op]:
        raise NotImplementedError

    def profile_stream(self) -> Iterator[Op]:
        """The ops of the traced run and of its untraced twin."""
        return self.stream()

    def finish(self) -> int:
        """Run deferred checks; return the number of further failed ops."""
        return 0

    @staticmethod
    def op_clock() -> float:
        """CPU seconds that the work of the timed ops is charged to."""
        return thread_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_metrics(self, tracer) -> Dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


def _expectation(report: dict, key: str):
    """A field of a JSON report, by the key names of expectations.json."""
    bounds = report["bounds"]
    if key == "budget":
        return [bounds["budget"][k] for k in ("shifts", "dehn", "handles")]
    if key in ("free_rank", "torsion2"):
        witness = report["witness"]
        return None if witness is None else witness["target"][key]
    return report[key] if key in report else bounds[key]


class ClassifyBatch(Workload):
    name = "classify-batch"
    op_unit = "surface"
    work_unit = "surfaces"
    rss_ops = 4000  # endcalc's caches grow with every new surface

    def __init__(self, seed: int):
        self.dsl = importlib.import_module("endcalc.dsl")
        self.cls = importlib.import_module("endcalc.classify")
        endspace = importlib.import_module("endcalc.endspace")
        self.rejections = (self.dsl.ParseError, endspace.SpecError)
        expectations = json.loads((CORPUS / "expectations.json").read_text())
        corpus = [(p.read_text(encoding="utf-8"), expectations.get(p.name, {}))
                  for p in sorted(CORPUS.glob("*.surf"))]
        random.Random("corpus:%d" % seed).shuffle(corpus)
        self.corpus = corpus
        self.seed = seed
        self.inputs: List[tuple] = []  # (bytes, valid) of each op's input
        self._pending: List[tuple] = []  # (variant text, expected report)

    def report(self, text: str) -> str:
        return self.dsl.emit_report(self.cls.classify(self.dsl.parse(text)),
                                    "JSON", include_witness=True)

    def stream(self) -> Iterator[Op]:
        inputs = itertools.chain(
            ((text, expected, None, True) for text, expected in self.corpus),
            ((s.text, None, s.variant, s.valid)
             for s in surfgen.surfaces(self.seed)))
        for text, expected, variant, valid in inputs:
            self.inputs.append((len(text.encode()), valid))
            yield Op(lambda text=text: self.report(text),
                     self._checker(expected, variant, valid))

    def _checker(self, expected, variant, valid):
        def check(out) -> bool:
            if not valid:
                return isinstance(out, self.rejections)
            if not isinstance(out, str):
                return False
            if expected is not None:
                d = json.loads(out)
                return all(_expectation(d, k) == v for k, v in expected.items())
            self._pending.append((variant, out))
            return True
        return check

    def finish(self) -> int:
        failed = 0
        for variant, expected in self._pending:
            try:
                same = self.report(variant) == expected
            except Exception:  # a failed check, reported like one
                traceback.print_exc()
                same = False
            if not same:
                failed += 1
                print("variant mismatch:\n%s" % variant, file=sys.stderr)
        self._pending = []
        return failed

    def layer_metrics(self, tracer) -> Dict[str, float]:
        t = tracer.totals()
        valid = {i for i in tracer.traced_ops if self.inputs[i][1]}
        parsed_bytes = sum(self.inputs[i][0] for i in tracer.traced_ops)

        def per_surface(name: str) -> float:
            return sum(1 for s in tracer.spans
                       if s[0] == name and s[4] in valid) / len(valid)

        es = importlib.import_module("endcalc.endspace")
        out = {
            "dsl.parse.us_per_call": _us(t, "dsl.parse"),
            "dsl.parse.self_us": _us(t, "dsl.parse", 2),
            "dsl.parse.kb_per_s": parsed_bytes / 1e3 / t["dsl.parse"][2],
            "dsl.emit_report.us_per_call": _us(t, "dsl.emit_report"),
            "dsl.report_to_dict.us_per_call": _us(t, "dsl.report_to_dict"),
            "endspace.canonicalize_spec.calls_per_surface":
                per_surface("endspace.canonicalize_spec"),
            "endspace.canonicalize_spec.us_per_call":
                _us(t, "endspace.canonicalize_spec"),
            "endspace.invariant_bundle.us_per_call":
                _us(t, "endspace.invariant_bundle"),
            "classify.classify.self_us": _us(t, "classify.classify", 2),
            "classify.tng_verdict.us_per_call": _us(t, "classify.tng_verdict"),
            "classify.generator_bounds.us_per_call":
                _us(t, "classify.generator_bounds"),
            "classify.validate.calls_per_surface":
                per_surface("classify.validate"),
        }
        for fname in ("canonicalize", "below"):
            info = getattr(vars(es).get(fname), "cache_info", None)
            if info is not None:
                c = info()
                out["endspace.%s.hit_ratio" % fname] = (
                    c.hits / (c.hits + c.misses))
                if fname == "canonicalize":
                    out["endspace.canonicalize.entries"] = c.currsize
        return out


class PreorderSweep(Workload):
    """preceq against the oracle over the exhaustive universe of small trees.

    An op decides one tree y against a block of x; blocks and the order of
    y are shuffled by the seed.  The stream ends after one pass over all
    pairs: a second pass in the same process would find every answer
    cached, so a run reaching it would measure a mix whose share depends
    on the speed.  Timed runs repeat whole passes in fresh workers.
    """

    name = "preorder-sweep"
    op_unit = "tree y against a block of x"
    work_unit = "pairs"
    finite = True
    BLOCKS = 12  # 732 trees split into blocks of 61

    def __init__(self, seed: int):
        self.es = importlib.import_module("endcalc.endspace")
        self.oracle = importlib.import_module("endcalc.oracle")
        universe = list(self.oracle.enumerate_trees(
            max_nodes=4, max_children=3, max_depth=3))
        self.rng = random.Random("sweep:%d" % seed)
        xs = universe[:]
        self.rng.shuffle(xs)
        size = -(-len(xs) // self.BLOCKS)
        self.blocks = [xs[i:i + size] for i in range(0, len(xs), size)]
        self.universe = universe

    def decide(self, y, block):
        return [(self.es.preceq(y, x), self.oracle.oracle_preceq(y, x))
                for x in block]

    def stream(self) -> Iterator[Op]:
        for block in self.blocks:
            ys = self.universe[:]
            self.rng.shuffle(ys)
            for y in ys:
                yield Op(lambda y=y, block=block: self.decide(y, block),
                         lambda out: isinstance(out, list)
                         and all(a == b for a, b in out),
                         len(block))

    def layer_metrics(self, tracer) -> Dict[str, float]:
        t = tracer.totals()
        setup = tracer.totals(setup=True)
        return {
            "endspace.preceq.us_per_pair": _us(t, "endspace.preceq"),
            "oracle.oracle_preceq.us_per_pair": _us(t, "oracle.oracle_preceq"),
            "oracle.enumerate_trees.ms":
                _us(setup, "oracle.enumerate_trees") / 1e3,
        }


class FluxSuites(Workload):
    """Rounds of one phi, theta and normalize trial and one swindle check.

    Trial seeds come from the workload seed; the swindle checks walk a
    seeded shuffle of every permutation ``suite_swindle`` covers.
    """

    name = "flux-suites"
    op_unit = "trial or swindle permutation"
    work_unit = "ops"
    WINDOW = 200

    def __init__(self, seed: int):
        self.flux = importlib.import_module("endcalc.flux")
        self.rng = random.Random("flux:%d" % seed)
        cases = []
        for k in (1, 2, 3):
            pts = list(range(-k, k + 1))
            for img in itertools.permutations(pts):
                table = {i: j for i, j in zip(pts, img) if i != j}
                # supports touching both ends of the window are checked at
                # k + 1, as suite_swindle does
                kk = k + 1 if -k in table and k in table else k
                cases.append((self.flux.EndPerm(0, table), kk))
        self.rng.shuffle(cases)
        self.swindles = cases

    def stream(self) -> Iterator[Op]:
        fx = self.flux
        no_errors = lambda out: out == []  # noqa: E731
        for f, k in itertools.cycle(self.swindles):
            s = self.rng.getrandbits(32)
            yield Op(lambda s=s: fx.suite_phi(1, s), no_errors)
            yield Op(lambda s=s: fx.suite_theta(1, s), no_errors)
            yield Op(lambda s=s: fx.suite_normalize(1, s, self.WINDOW),
                     no_errors)
            yield Op(lambda f=f, k=k: fx.swindle_check(f, k, self.WINDOW),
                     lambda out: out is True)

    def layer_metrics(self, tracer) -> Dict[str, float]:
        t = tracer.totals()
        out = {"flux.%s.us_per_trial" % s: _us(t, "flux." + s)
               for s in ("suite_phi", "suite_theta", "suite_normalize")}
        out.update({"flux.%s.us_per_call" % s: _us(t, "flux." + s)
                    for s in ("swindle_check", "compose", "phi")})
        return out


class CliCold(Workload):
    """Fresh ``python -m endcalc.cli`` processes over the corpus.

    Each round classifies every corpus file with ``--json --witness`` and
    runs ``corpus`` once, in a seeded order.  The expected stdout is
    computed in-process during set-up: by ``emit_report`` for ``classify``
    and by ``cli.main`` for ``corpus``.
    """

    name = "cli-cold"
    op_unit = "process"
    work_unit = "processes"
    STARTUP_SAMPLES = 5

    def __init__(self, seed: int):
        self.cli = importlib.import_module("endcalc.cli")
        dsl = importlib.import_module("endcalc.dsl")
        cls = importlib.import_module("endcalc.classify")
        self.rng = random.Random("cli:%d" % seed)
        self.expected = {}  # argv -> stdout
        for path in sorted(CORPUS.glob("*.surf")):
            report = cls.classify(dsl.parse(path.read_text(encoding="utf-8")))
            argv = ("classify", "corpus/" + path.name, "--json", "--witness")
            self.expected[argv] = dsl.emit_report(report, "JSON",
                                                  include_witness=True)
        argv = ("corpus", "corpus",
                "--expectations", "corpus/expectations.json")
        self.expected[argv] = self.main(argv)[1]

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()

    def spawn(self, argv):
        done = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              capture_output=True, timeout=60)
        return done.returncode, done.stdout.decode()

    def _ops(self, cold: bool) -> Iterator[Op]:
        while True:
            order = list(self.expected)
            self.rng.shuffle(order)
            for argv in order:
                if cold:
                    run = lambda a=argv: self.spawn(  # noqa: E731
                        ["-m", "endcalc.cli", *a])
                else:
                    run = lambda a=argv: self.main(a)  # noqa: E731
                want = (0, self.expected[argv])
                yield Op(run, lambda out, want=want: out == want)

    def stream(self) -> Iterator[Op]:
        return self._ops(cold=True)

    def profile_stream(self) -> Iterator[Op]:
        """In-process ``main`` calls: spans cannot cross into a child."""
        return self._ops(cold=False)

    @staticmethod
    def op_clock() -> float:
        """CPU seconds of the CLI processes that have ended."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def peak_rss_mb(self) -> float:
        """The largest CLI process's peak."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def _startup_ms(self, code: str) -> float:
        """Median over fresh processes running ``code``: the milliseconds
        the process prints, or its wall time when it prints nothing."""
        samples = []
        for _ in range(self.STARTUP_SAMPLES):
            start = perf_counter()
            _, out = self.spawn(["-c", code])
            samples.append(float(out) if out.strip()
                           else (perf_counter() - start) * 1e3)
        return statistics.median(samples)

    def layer_metrics(self, tracer) -> Dict[str, float]:
        t = tracer.totals()
        return {
            "cli.main.us_per_call": _us(t, "cli.main"),
            "cli.python_startup_ms": self._startup_ms("pass"),
            "cli.import_ms": self._startup_ms(
                "import time; t = time.perf_counter(); import endcalc.cli; "
                "print((time.perf_counter() - t) * 1e3)"),
        }


WORKLOADS = {w.name: w for w in (ClassifyBatch, PreorderSweep, FluxSuites,
                                 CliCold)}
