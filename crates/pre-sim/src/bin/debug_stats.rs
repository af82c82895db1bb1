//! Development aid: dump detailed statistics for one workload under one
//! technique.
//!
//! Usage: `debug_stats [--suite synthetic|asm|mixed] [--trace <spec>]
//! [--sample [n=K,interval=N]] [workload] [technique] [max_uops]`. Workload
//! names include the asm kernels (`asm-matmul`, `quicksort`, ...); when only
//! `--suite` is given, the suite's first workload is dumped. Run with
//! `--help` for the environment variables the tools honour.

use pre_runahead::Technique;
use pre_sim::experiments::split_suite_flag;
use pre_sim::runner::{run_one, run_one_traced, RunSpec};
use pre_sim::sample::SampleSpec;
use pre_trace::collect::IntervalLog;
use pre_trace::{IntervalCollector, TraceSession, TraceSpec, Tracer};
use pre_workloads::Workload;

const HELP: &str = "\
usage: debug_stats [--suite synthetic|asm|mixed] [--trace <spec>] [--sample [n=K,interval=N]] [workload] [technique] [max_uops]

Dumps every statistic of one (workload, technique) run, including the
runahead interval entry/exit event log collected through the tracer.

  --suite <name>   pick the default workload from this suite
  --trace <spec>   also write trace files; <spec> is a comma-separated list
                   of dir=PATH, pipeview, chrome, timeseries[=csv|json],
                   commit, all, window=K, ring=N (see the README)
  --sample [spec]  estimate the run by SimPoint-style interval sampling
                   instead of simulating the whole budget; statistics are
                   then extrapolated (marked ~) and the sampling metadata
                   (clusters, coverage, weights) is dumped. Incompatible
                   with --trace.
  --help           this message

environment variables:
  PRE_DEBUG_ALL_EVENTS  print every interval event instead of the first 200
  PRE_THREADS           cap the worker pool used by the matrix binaries
";

fn main() {
    let (suite, positional) = match split_suite_flag(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    };
    let mut trace: Option<TraceSpec> = None;
    let mut sample: Option<SampleSpec> = None;
    let mut rest = Vec::new();
    let mut args = positional.into_iter().peekable();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            print!("{HELP}");
            return;
        }
        if arg == "--trace" {
            let value = args.next().unwrap_or_else(|| {
                eprintln!("--trace requires a value");
                std::process::exit(2);
            });
            trace = Some(value.parse().expect("valid --trace spec"));
            continue;
        }
        if let Some(value) = arg.strip_prefix("--trace=") {
            trace = Some(value.parse().expect("valid --trace spec"));
            continue;
        }
        if arg == "--sample" {
            // The value is optional; consume the next argument only when it
            // looks like a sample spec (contains `=`).
            sample = Some(match args.peek() {
                Some(next) if next.contains('=') => args
                    .next()
                    .unwrap_or_default()
                    .parse()
                    .expect("valid --sample spec"),
                _ => SampleSpec::default(),
            });
            continue;
        }
        if let Some(value) = arg.strip_prefix("--sample=") {
            sample = Some(value.parse().expect("valid --sample spec"));
            continue;
        }
        rest.push(arg);
    }
    if sample.is_some() && trace.is_some() {
        eprintln!("--sample and --trace are incompatible (sampled runs cannot be traced)");
        std::process::exit(2);
    }
    let workload: Workload = rest
        .first()
        .map(|s| s.parse().expect("workload"))
        .unwrap_or_else(|| suite.workloads()[0]);
    let technique: Technique = rest
        .get(1)
        .map(|s| s.parse().expect("technique"))
        .unwrap_or(Technique::OutOfOrder);
    let budget: u64 = rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(60_000);

    let mut spec = RunSpec::new(workload, technique).with_budget(budget);
    spec.sample = sample;
    let (result, events, trace_files) = if sample.is_some() {
        // Sampled runs cannot carry a tracer; the interval event log stays
        // empty and the extrapolated statistics are dumped with a ~ marker.
        let result = run_one(&spec).expect("run");
        (result, IntervalLog::default(), None)
    } else {
        // The interval event log rides on the tracer: a full TraceSession
        // when `--trace` asks for files, the lightweight IntervalCollector
        // otherwise.
        let tracer: Box<dyn Tracer> = match &trace {
            Some(ts) => Box::new(
                TraceSession::create(ts, &spec.cell_name()).expect("trace files can be created"),
            ),
            None => Box::new(IntervalCollector::new()),
        };
        let (result, tracer) = run_one_traced(&spec, tracer).expect("run");
        let (events, trace_files) = recover_log(tracer, trace.is_some());
        (result, events, trace_files)
    };
    let s = &result.stats;
    println!(
        "workload {workload}  technique {technique}  deadlocked {}{}",
        result.deadlocked,
        if result.sample.is_some() {
            "  (sampled: statistics below are ~extrapolated)"
        } else {
            ""
        }
    );
    if let Some(meta) = &result.sample {
        println!("sampling: {}", meta.summary());
    }
    println!("{s}");
    println!("--- pipeline ---");
    println!(
        "fetched {}  decoded {}  renamed {}  dispatched {}  issued {}  executed {}  squashed {}",
        s.fetched_uops,
        s.decoded_uops,
        s.renamed_uops,
        s.dispatched_uops,
        s.issued_uops,
        s.executed_uops,
        s.squashed_uops
    );
    println!(
        "frontend stall cycles {}  fw-stall cycles {}  fw-stalls {}",
        s.frontend_stall_cycles, s.full_window_stall_cycles, s.full_window_stalls
    );
    println!(
        "scheduler: normal cycles {} simulated + {} fast-forwarded, \
         runahead cycles {} simulated + {} fast-forwarded (ff fraction {:.3})",
        s.normal_cycles_simulated(),
        s.ff_cycles.normal,
        s.runahead_cycles_simulated(),
        s.ff_cycles.runahead,
        s.ff_fraction()
    );
    println!("--- memory ---");
    println!("l1d acc {} miss {}  l2 acc {} miss {}  l3 acc {} miss {}  dram rd {} wr {} rowhit {} rowmiss {}",
        s.l1d_accesses, s.l1d_misses, s.l2_accesses, s.l2_misses, s.l3_accesses, s.l3_misses,
        s.dram_reads, s.dram_writes, s.dram_row_hits, s.dram_row_misses);
    println!(
        "lsq searches {}  forwards {}  fwd-blk (partial overlap) {}",
        s.lsq_searches, s.lsq_forwards, s.forward_blocked_partial
    );
    println!("--- runahead ---");
    println!("entries {}  exits {}  cycles {}  uops {}  loads {}  inv-loads {}  prefetches {}  useful {}",
        s.runahead_entries, s.runahead_exits, s.runahead_cycles, s.runahead_uops_executed,
        s.runahead_loads_executed, s.runahead_inv_loads, s.runahead_prefetches_issued, s.runahead_prefetches_useful);
    println!(
        "skipped short {}  skipped overlap {}  emq-full stalls {}  flush/refill {}",
        s.runahead_entries_skipped_short,
        s.runahead_entries_skipped_overlap,
        s.emq_full_stall_cycles,
        s.flush_refill_cycles
    );
    println!(
        "interval mean {:.1}  <20cyc {:.2}",
        s.runahead_interval_hist.mean(),
        s.runahead_interval_hist.fraction_below(20)
    );
    println!(
        "sst lookups {} hits {} inserts {} evictions {}",
        s.sst_lookups, s.sst_hits, s.sst_inserts, s.sst_evictions
    );
    println!(
        "prdq alloc {} reclaim {}  eager seeds {} reclaims {}  emq w {} r {}  rabuf walks {} replays {}",
        s.prdq_allocations,
        s.prdq_reclaims,
        s.prdq_eager_seeds,
        s.prdq_eager_reclaims,
        s.emq_writes,
        s.emq_reads,
        s.runahead_buffer_walks,
        s.runahead_buffer_replays
    );
    println!(
        "free@entry iq {:.2} int {:.2} fp {:.2}  skipped(no-regs) {}",
        s.iq_free_at_entry.mean(),
        s.int_regs_free_at_entry.mean(),
        s.fp_regs_free_at_entry.mean(),
        s.runahead_entries_skipped_no_regs
    );
    println!("--- free PRF at full-window stalls ---");
    for (label, hist) in [
        ("int", &s.int_free_at_stall_hist),
        ("fp ", &s.fp_free_at_stall_hist),
    ] {
        let buckets: Vec<String> = hist
            .buckets()
            .map(|(bound, count)| {
                if bound == u64::MAX {
                    format!(">=90%:{count}")
                } else {
                    format!("<{bound}%:{count}")
                }
            })
            .collect();
        println!(
            "{label} stalls {}  mean {:.1}%  [{}]",
            hist.count(),
            hist.mean(),
            buckets.join(" ")
        );
    }
    println!("--- runahead entry/exit events (free regs per class) ---");
    if events.events().is_empty() {
        println!("(no runahead events)");
    }
    // Keep the dump usable on big budgets; PRE_DEBUG_ALL_EVENTS lifts the cap.
    let shown = if std::env::var_os("PRE_DEBUG_ALL_EVENTS").is_some() {
        events.events().len()
    } else {
        events.events().len().min(200)
    };
    for event in &events.events()[..shown] {
        match event.kind {
            pre_model::stats::RunaheadEventKind::Entry => println!(
                "cycle {:>9}  ENTER  int free {:>3} (eager +{})  fp free {:>3} (eager +{})",
                event.cycle,
                event.int_free,
                event.int_eager_freed,
                event.fp_free,
                event.fp_eager_freed
            ),
            pre_model::stats::RunaheadEventKind::Exit => println!(
                "cycle {:>9}  EXIT   int free {:>3}  fp free {:>3}  prdq allocs {}",
                event.cycle, event.int_free, event.fp_free, event.prdq_allocated
            ),
        }
    }
    let hidden = events.events().len() - shown;
    if hidden > 0 {
        println!("({hidden} further events hidden; set PRE_DEBUG_ALL_EVENTS=1 to print all)");
    }
    if events.dropped() > 0 {
        println!("({} further events dropped)", events.dropped());
    }
    println!("--- energy ---");
    println!(
        "total {:.3} mJ  static fraction {:.2}",
        result.energy.total_mj(),
        result.energy.static_fraction()
    );
    if let Some(files) = trace_files {
        println!("--- trace files ---");
        for f in files {
            println!("{}", f.display());
        }
    }
}

/// Downcasts the returned tracer back to whichever concrete type was
/// attached, extracting the interval event log (and, for a trace session,
/// the list of files written).
fn recover_log(
    tracer: Box<dyn Tracer>,
    traced_to_files: bool,
) -> (IntervalLog, Option<Vec<std::path::PathBuf>>) {
    if traced_to_files {
        let session = tracer
            .into_any()
            .downcast::<TraceSession>()
            .expect("tracer is the session attached above");
        if let Some(e) = session.io_error() {
            eprintln!("warning: trace output incomplete: {e}");
        }
        let files = session.files().to_vec();
        (session.interval_log().clone(), Some(files))
    } else {
        let collector = tracer
            .into_any()
            .downcast::<IntervalCollector>()
            .expect("tracer is the collector attached above");
        (collector.log, None)
    }
}
