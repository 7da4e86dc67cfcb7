//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explain_fresh|serve_mixed|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: each client waits for its reply before
//! sending the next request. Inputs are generated from `--seed`; the
//! system receives only the generated inputs, through its public API.
//! Every output is checked, and failures are counted against attempts
//! without stopping the run.
//!
//! With `--trace 0` the run measures the end-to-end metrics. With
//! `--trace 1` it alternates blocks of untraced requests with the same
//! requests replayed with spans around each call into a layer's public
//! functions, and reports the per-layer metrics, the tracing overhead and
//! the share of each request that no layer call covers.
//!
//! Human-readable lines (run context, metrics that only one workload has)
//! come first; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 1 when any check
//! failed.

mod explain;
mod report;
mod serve;
mod trace;

use report::{Metric, Outcome};

/// Directory, relative to the working directory, for the durable
/// system's files and the span logs.
pub const RUN_DIR: &str = ".perfbench_run";

const WORKLOADS: [&str; 2] = ["explain_fresh", "serve_mixed"];

/// End-to-end metrics every workload reports, with their units. Tail
/// latencies are printed as notes: on a shared 2-core host their spread
/// across runs came too close to the 25% bound to gate on.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that never reaches a
/// layer reports its figures as 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("sql.bind_us", "us"),
    ("opt.plan_tp_us", "us"),
    ("opt.plan_ap_us", "us"),
    ("exec.tp_us", "us"),
    ("exec.ap_us", "us"),
    ("exec.tp_rows_examined_per_row", "count"),
    ("exec.ap_cells_per_row", "count"),
    ("engine.dual_run_us", "us"),
    ("engine.dual_run_self_us", "us"),
    ("sim.tp_latency_ms", "ms"),
    ("sim.ap_latency_ms", "ms"),
    ("storage.pin_snapshot_us", "us"),
    ("storage.wal_records_per_fsync", "ratio"),
    ("storage.delta_rows_peak", "count"),
    ("storage.compactor_failures", "count"),
    ("storage.recovery_s", "s"),
    ("session.plan_cache_hit_ratio", "ratio"),
    ("session.prepared_exec_us.tp_point", "us"),
    ("session.prepared_exec_us.ap_point", "us"),
    ("session.prepared_exec_us.dual_point", "us"),
    ("session.prepared_exec_us.ap_scan", "us"),
    ("session.prepared_exec_us.dml", "us"),
    ("server.wire_overhead_us.tp_point", "us"),
    ("server.wire_overhead_us.ap_point", "us"),
    ("server.wire_overhead_us.dual_point", "us"),
    ("server.wire_overhead_us.ap_scan", "us"),
    ("server.wire_overhead_us.dml", "us"),
    ("server.wire_to_inprocess_ratio.tp_point", "ratio"),
    ("server.bytes_in_per_op", "bytes"),
    ("server.bytes_out_per_op", "bytes"),
    ("server.statements_rejected", "count"),
    ("server.protocol_errors", "count"),
    ("treecnn.embed_pair_us", "us"),
    ("vectordb.search_us", "us"),
    ("vectordb.kb_entries", "count"),
    ("llm.explain_us", "us"),
    ("llm.prompt_tokens", "count"),
    ("llm.output_tokens", "count"),
    ("llm.sim_response_ms", "ms"),
    ("llm.explain_accuracy_pct", "%"),
    ("llm.explain_wrong_pct", "%"),
    ("core.explain_outcome_us", "us"),
    ("core.explain_outcome_self_us", "us"),
    ("trace.untraced_throughput_ops_s", "1/s"),
    ("trace.traced_throughput_ops_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.round_spread_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (expected one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(workload: &str, args: &Args) -> Outcome {
    match workload {
        "explain_fresh" => explain::explain_fresh(args),
        _ => serve::serve_mixed(args),
    }
}

/// Picks the metrics the mode reports, in the declared order; a per-layer
/// metric the workload does not measure is 0.
fn select(out: &Outcome, trace: bool) -> Vec<Metric> {
    let (list, have): (&[(&str, &str)], &[Metric]) = if trace {
        (&PER_LAYER, &out.per_layer)
    } else {
        (&END_TO_END, &out.end_to_end)
    };
    list.iter()
        .map(|(name, unit)| {
            let value = have
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            Metric {
                name: (*name).to_string(),
                value,
                unit,
            }
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "context: available_parallelism={} profile={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for w in &workloads {
        let reset = report::reset_peak_rss();
        let rss_start = report::rss_mb();
        let out = run(w, &args);
        println!("== {w}");
        println!(
            "  peak_rss_mb counts from {rss_start:.1} MB resident at the start{}",
            if reset {
                ""
            } else {
                "; VmHWM could not be reset, so it includes earlier workloads"
            }
        );
        for line in &out.notes {
            println!("  {line}");
        }
        for f in &out.check_failures {
            println!("  CHECK FAILED: {f}");
        }
        let selected = select(&out, args.trace);
        for m in &selected {
            println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "  ops attempted {} failed {} (wrong outputs {})",
            out.attempted, out.failed, out.wrong
        );
        correct &= out.correct();
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if workloads.len() > 1 {
            format!("{w}.")
        } else {
            String::new()
        };
        metrics.extend(selected.into_iter().map(|m| Metric {
            name: prefix.clone() + &m.name,
            ..m
        }));
    }
    println!(
        "{}",
        report::summary_json(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
