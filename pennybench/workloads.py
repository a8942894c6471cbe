"""The three workloads: compile-suite, campaign and figures.

Each workload is built once (its set-up: imports, registry load, input
generation) and then runs *rounds*.  A round is always the same fixed
set of operations, so every run attempts whole rounds and its share of
failed operations does not depend on how long it ran.  Timing covers
only the calls into the program; every check runs after the round.

An operation is one compile (compile-suite), one injection (campaign)
or one (kernel, config) cell of a figure table (figures).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.bench import ALL_BENCHMARKS, get_benchmark
from repro.coding import ParityCode
from repro.core.pipeline import PennyCompiler
from repro.core.schemes import SCHEME_PENNY, scheme_config
from repro.experiments import fig9, fig11, fig15
from repro.experiments.harness import compile_cache
from repro.gpusim import (
    FERMI_C2050,
    CampaignSpec,
    ParallelCampaign,
    TimingModel,
    fsck_journal,
    make_executor,
)
from repro.ir.printer import print_kernel
from repro.regalloc import count_registers

from pennybench import checks

#: the kernels the campaign workload injects into: short, branchy
#: (BFS), loop- and memory-heavy (SGEMM), checkpoint-rich (STC)
CAMPAIGN_KERNELS = ("STC", "BFS", "SGEMM")
CAMPAIGN_INJECTIONS = 200
#: injections per kernel re-run on the scalar interpreter as an oracle
SCALAR_SAMPLE = 3
#: left out of the figures workload: its compile alone takes ~7.5 s per
#: configuration, which would make one figures round ~100 s; its cost
#: is measured by compile-suite
FIGURES_EXCLUDED = ("NQU",)
TINY_KERNELS = ("BFS", "SGEMM", "STC")


def seeded(bench, seed: int):
    """``bench`` with its workload inputs drawn from ``seed``."""
    make = bench.workload
    return dataclasses.replace(
        bench, workload=lambda: dataclasses.replace(make(), seed=seed)
    )


def read_inputs(workload):
    """(memory image, output region, every input buffer's words)."""
    mem, addrs, out = workload.make()
    inputs = {
        name: mem.download(addrs[name], words)
        for name, words, _ in workload.buffers
    }
    return mem, out, inputs


def cycles(kernel, execution, workload, regs: int) -> float:
    """Fermi cycles of one run, by the paper's analytic timing model."""
    return TimingModel(FERMI_C2050).estimate(
        execution,
        threads_per_block=workload.block,
        num_blocks=workload.grid,
        regs_per_thread=regs,
        shared_per_block=sum(4 * d.num_words for d in kernel.shared),
    ).cycles


def gmean(values) -> float:
    values = list(values)
    return statistics.geometric_mean(values) if values else float("nan")


@dataclasses.dataclass
class Round:
    """One round: its wall time, its operations and their outcomes."""

    wall_s: float
    ops: int
    #: kernel or figure -> what the call returned
    results: Dict[str, object]
    #: kernel or figure -> problem, for calls that raised
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, out_dir: str):
        self.out_dir = out_dir
        #: time spent in repro.bench during set-up
        self.build_s = 0.0
        #: checkpoints / protected_instructions / penny_overhead_gmean,
        #: filled in by :meth:`check`
        self.static_metrics: Dict[str, float] = {}

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rounds: List[Round]) -> Dict[str, str]:
        """Failed operation id -> its first problem, over ``rounds``.
        Operation ids carry the round number, so a failure in two rounds
        counts twice.  Also fills in :attr:`static_metrics`."""
        raise NotImplementedError

    def metrics(self, rounds: List[Round]) -> Dict[str, float]:
        walls = [r.wall_s for r in rounds]
        rates = [r.ops / r.wall_s for r in rounds]
        out = {
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(rates),
        }
        out.update(self.static_metrics)
        return out


# -- compile-suite ----------------------------------------------------------------


class CompileSuite(Workload):
    """Each Table-3 kernel compiled once under Penny, cold and serially."""

    name = "compile-suite"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        t0 = time.perf_counter()
        benches = list(ALL_BENCHMARKS)
        if tiny:
            benches = [b for b in benches if b.abbr in TINY_KERNELS]
        self.benches = [seeded(b, seed) for b in benches]
        self.kernels = {b.abbr: b.fresh_kernel() for b in self.benches}
        self.launches = {b.abbr: b.workload().launch_config for b in self.benches}
        self.build_s = time.perf_counter() - t0
        self.config = scheme_config(SCHEME_PENNY)

    def run_round(self) -> Round:
        results, errors = {}, {}
        wall = 0.0
        for bench in self.benches:
            kernel = self.kernels[bench.abbr]
            launch = self.launches[bench.abbr]
            t0 = time.perf_counter()
            try:
                with obs.span("bench.compile", kernel=bench.abbr):
                    result = PennyCompiler(self.config).compile(kernel, launch)
            except Exception as exc:  # report, keep compiling the rest
                wall += time.perf_counter() - t0
                errors[bench.abbr] = f"{bench.abbr}: {type(exc).__name__}: {exc}"
                continue
            wall += time.perf_counter() - t0
            results[bench.abbr] = result
        return Round(wall_s=wall, ops=len(self.benches), results=results, errors=errors)

    def check(self, rounds):
        failed: Dict[str, str] = {}
        first = rounds[0].results
        texts = {abbr: print_kernel(r.kernel) for abbr, r in first.items()}
        for i, rnd in enumerate(rounds):
            for abbr, problem in rnd.errors.items():
                failed[f"{i}:{abbr}"] = problem
            if i == 0:
                continue
            for abbr, result in rnd.results.items():
                if print_kernel(result.kernel) != texts.get(abbr):
                    failed[f"{i}:{abbr}"] = (
                        f"{abbr}: round {i} compiled differently from round 0"
                    )
        ratios, ckpts, insts = [], 0, 0
        for bench in self.benches:
            result = first.get(bench.abbr)
            if result is None:
                continue
            problems, ratio = self.oracle(bench, result)
            if problems:
                for i in range(len(rounds)):
                    failed.setdefault(f"{i}:{bench.abbr}", problems[0])
            ratios.append(ratio)
            ckpts += int(result.stats["emitted_checkpoints"])
            insts += sum(1 for _ in result.kernel.instructions())
        self.static_metrics = {
            "checkpoints": ckpts,
            "protected_instructions": insts,
            "penny_overhead_gmean": gmean(ratios),
        }
        return failed

    @staticmethod
    def oracle(bench, result) -> Tuple[List[str], float]:
        """Penny's fault-free vector output against the unprotected
        kernel on the scalar interpreter and the NumPy reference;
        returns the problems and Penny's Fermi cycle ratio."""
        wl = bench.workload()
        base_kernel = bench.fresh_kernel()
        mem, out, inputs = read_inputs(wl)
        base = make_executor(
            base_kernel, backend="scalar", rf_code_factory=lambda: None
        ).run(wl.launch, mem)
        oracle = mem.download(*out)
        mem, out, _ = read_inputs(wl)
        prot = make_executor(
            result.kernel, backend="vector", rf_code_factory=ParityCode
        ).run(wl.launch, mem)
        protected = mem.download(*out)
        problems = checks.check_oracle(bench.abbr, protected, oracle)
        problems += checks.check_reference(bench.abbr, inputs, oracle)
        ratio = cycles(
            result.kernel, prot, wl, int(result.stats["registers"])
        ) / cycles(base_kernel, base, wl, count_registers(base_kernel))
        return problems, ratio


# -- campaign ---------------------------------------------------------------------


class Campaign(Workload):
    """One 2-worker Penny campaign each on STC, BFS and SGEMM."""

    name = "campaign"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        t0 = time.perf_counter()
        self.benches = [get_benchmark(a) for a in CAMPAIGN_KERNELS]
        self.build_s = time.perf_counter() - t0
        n = 6 if tiny else CAMPAIGN_INJECTIONS
        self.specs = [
            CampaignSpec(
                benchmark=b.abbr,
                scheme=SCHEME_PENNY,
                rf_code="parity",
                num_injections=n,
                seed=seed,
                surfaces=("rf", "ckpt", "recovery"),
                bits_per_fault=1,
                backend="vector",
            )
            for b in self.benches
        ]

    def run_round(self, workers: int = 2) -> Round:
        results, errors, journals = {}, {}, {}
        wall = 0.0
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            for spec in self.specs:
                path = os.path.join(tmp, f"{spec.benchmark}.jsonl")
                t0 = time.perf_counter()
                try:
                    with obs.span("bench.campaign", kernel=spec.benchmark):
                        report = ParallelCampaign(
                            spec, workers=workers, journal_path=path
                        ).run()
                except Exception as exc:  # report, run the other kernels
                    wall += time.perf_counter() - t0
                    errors[spec.benchmark] = (
                        f"{spec.benchmark}: {type(exc).__name__}: {exc}"
                    )
                    continue
                wall += time.perf_counter() - t0
                results[spec.benchmark] = report
                journals[spec.benchmark] = fsck_journal(path)
        ops = sum(s.num_injections for s in self.specs)
        return Round(
            wall_s=wall, ops=ops, results=results, errors=errors,
            extra={"journals": journals},
        )

    def check(self, rounds):
        failed: Dict[str, str] = {}
        first = {
            k: [dataclasses.asdict(r) for r in rep.records]
            for k, rep in rounds[0].results.items()
        }
        for i, rnd in enumerate(rounds):
            for spec in self.specs:
                k = spec.benchmark
                ids = [f"{i}:{k}:{j}" for j in range(spec.num_injections)]
                if k in rnd.errors:
                    for op in ids:
                        failed[op] = rnd.errors[k]
                    continue
                report = rnd.results[k]
                problem = self.campaign_problem(report, rnd.extra["journals"][k])
                if problem:
                    for op in ids:
                        failed[op] = f"{k}: {problem}"
                    continue
                records = [dataclasses.asdict(r) for r in report.records]
                for rec in records:
                    bad = checks.check_record(rec)
                    if bad:
                        failed[f"{i}:{k}:{rec['index']}"] = f"{k}: {bad}"
                if i and k in first:
                    for j, bad in checks.check_records_equal(
                        f"{k} round {i}", records, first[k]
                    ).items():
                        failed.setdefault(f"{i}:{k}:{j}", bad)
        ratios, ckpts, insts = [], 0, 0
        for spec, bench in zip(self.specs, self.benches):
            k = spec.benchmark
            problems, ratio, result = self.golden(bench)
            bad = {j: problems[0] for j in range(spec.num_injections)} if problems else {}
            if k in first:
                bad.update(self.scalar_sample(spec, first[k]))
            for i in range(len(rounds)):
                for j, problem in bad.items():
                    failed.setdefault(f"{i}:{k}:{j}", f"{k}: {problem}")
            ratios.append(ratio)
            ckpts += int(result.stats["emitted_checkpoints"])
            insts += sum(1 for _ in result.kernel.instructions())
        self.static_metrics = {
            "checkpoints": ckpts,
            "protected_instructions": insts,
            "penny_overhead_gmean": gmean(ratios),
        }
        return failed

    @staticmethod
    def campaign_problem(report, fsck) -> Optional[str]:
        if report.interrupted:
            return "campaign was interrupted"
        recon = report.reconciliation()
        if not recon["complete"]:
            return f"reconciliation incomplete: {recon}"
        if fsck.corrupt_lines:
            return f"journal has {fsck.corrupt_lines} corrupt line(s)"
        if len(fsck.records) != len(report.records):
            return "journal and report disagree on the record count"
        return None

    @staticmethod
    def golden(bench):
        """The campaign's golden run, rebuilt from public entry points,
        against the NumPy reference; plus Penny's Fermi cycle ratio."""
        wl = bench.workload()
        result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
            bench.fresh_kernel(), wl.launch_config
        )
        mem, out, inputs = read_inputs(wl)
        prot = make_executor(
            result.kernel, backend="vector", rf_code_factory=ParityCode
        ).run(wl.launch, mem)
        problems = checks.check_reference(bench.abbr, inputs, mem.download(*out))
        base_kernel = bench.fresh_kernel()
        mem, _, _ = read_inputs(wl)
        base = make_executor(
            base_kernel, backend="vector", rf_code_factory=lambda: None
        ).run(wl.launch, mem)
        ratio = cycles(
            result.kernel, prot, wl, int(result.stats["registers"])
        ) / cycles(base_kernel, base, wl, count_registers(base_kernel))
        return problems, ratio, result

    @staticmethod
    def scalar_sample(spec, records) -> Dict[int, str]:
        """The first few indices re-run on the scalar interpreter must
        produce identical records (plans are seeded per index); returns
        index -> problem where they do not."""
        sample = dataclasses.replace(
            spec, num_injections=min(SCALAR_SAMPLE, spec.num_injections),
            backend="scalar",
        )
        report = ParallelCampaign(sample, workers=1).run()
        got = [dataclasses.asdict(r) for r in report.records]
        return checks.check_records_equal("scalar re-run", got, records)


# -- figures ----------------------------------------------------------------------


class Figures(Workload):
    """fig9, fig11 and fig15 through one memory-only compile cache."""

    name = "figures"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        # a cache directory in the environment would make rounds warm
        os.environ.pop("PENNY_CACHE_DIR", None)
        t0 = time.perf_counter()
        keep = TINY_KERNELS if tiny else None
        benches = [
            seeded(b, seed)
            for b in ALL_BENCHMARKS
            if b.abbr not in FIGURES_EXCLUDED and (keep is None or b.abbr in keep)
        ]
        self.benches = benches
        self.volta = [b for b in benches if b.abbr in fig15.VOLTA_APPS]
        self.build_s = time.perf_counter() - t0
        n, nv = len(self.benches), len(self.volta)
        self.cells = (
            n * len(fig9.PAPER_GMEANS) + n * len(fig11.VARIANTS)
            + nv * len(fig9.PAPER_GMEANS)
        )

    def run_round(self) -> Round:
        tables, errors = {}, {}
        with compile_cache() as cache:
            t0 = time.perf_counter()
            for name, run, benches in (
                ("fig9", fig9.run, self.benches),
                ("fig11", fig11.run, self.benches),
                ("fig15", fig15.run, self.volta),
            ):
                try:
                    with obs.span("bench.figure", figure=name):
                        tables[name] = run(benches)
                except Exception as exc:  # report, draw the other figures
                    errors[name] = f"{name}: {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        return Round(
            wall_s=wall, ops=self.cells, results=tables, errors=errors,
            extra={"cache": cache},
        )

    def figure_cells(self, name: str) -> List[str]:
        if name == "fig11":
            schemes, benches = list(fig11.VARIANTS), self.benches
        else:
            schemes = list(fig9.PAPER_GMEANS)
            benches = self.volta if name == "fig15" else self.benches
        return [f"{name}:{s}:{b.abbr}" for s in schemes for b in benches]

    def check(self, rounds):
        failed: Dict[str, str] = {}
        for i, rnd in enumerate(rounds):
            tables = rnd.results
            for name in ("fig9", "fig11", "fig15"):
                if name in rnd.errors:
                    problems = [rnd.errors[name]]
                else:
                    problems = checks.check_finite(name, tables[name])
                    if name != "fig11":
                        problems += checks.check_ordering(name, tables[name])
                    if i and tables[name] != rounds[0].results.get(name):
                        problems.append(f"{name}: round {i} differs from round 0")
                if problems:
                    for cell in self.figure_cells(name):
                        failed[f"{i}:{cell}"] = problems[0]
            if "fig9" in tables and "fig11" in tables:
                for abbr, bad in checks.check_fig11_matches_fig9(
                    tables["fig9"], tables["fig11"]
                ).items():
                    failed.setdefault(f"{i}:fig11:Auto/Auto_select:{abbr}", bad)
        self.static_metrics = self.penny_statics(rounds[-1])
        return failed

    def penny_statics(self, rnd: Round) -> Dict[str, float]:
        """Static counts of fig9's Penny kernels (served by the round's
        cache) and fig9's Penny gmean."""
        config = scheme_config(SCHEME_PENNY)
        ckpts = insts = 0
        with rnd.extra["cache"]:
            for bench in self.benches:
                result = PennyCompiler(config).compile(
                    bench.fresh_kernel(), bench.workload().launch_config
                )
                ckpts += int(result.stats["emitted_checkpoints"])
                insts += sum(1 for _ in result.kernel.instructions())
        fig = rnd.results.get("fig9")
        return {
            "checkpoints": ckpts,
            "protected_instructions": insts,
            "penny_overhead_gmean": fig["Penny"]["gmean"] if fig else float("nan"),
        }


WORKLOADS = {w.name: w for w in (CompileSuite, Campaign, Figures)}
